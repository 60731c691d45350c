//! Order statistics over timing samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the value would rest on a handful of runs.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (`0 < q < 100`) of `samples` by nearest rank,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The middle value of a small sample set (the lower middle for an even
/// count), for repeated whole-run measurements such as set-up time.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples is rank 990: only 9 samples beyond it.
        assert_eq!(percentile(&samples, 99.0), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        // The median needs 20 samples (10 beyond rank 10).
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None);
        let enough: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&enough, 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}

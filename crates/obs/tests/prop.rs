//! Property tests for the histogram core.
//!
//! Pins the algebra the registry leans on: histogram merge is
//! associative (and order-insensitive), quantiles are monotone in `q`,
//! and every bucket's bounds bracket the values mapped into it across
//! the whole `u64` range.

use proptest::prelude::*;

use trinit_obs::Histogram;

/// Samples spread across the whole u64 range (bit-shifted so small
/// strategies reach huge magnitudes).
fn wide_samples() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..u64::MAX, 0u32..64), 1..80)
}

fn hist_of(samples: &[(u64, u32)]) -> Histogram {
    let mut h = Histogram::new();
    for &(base, shift) in samples {
        h.record(base >> shift);
    }
    h
}

fn assert_hist_eq(a: &Histogram, b: &Histogram) {
    assert_eq!(a.count(), b.count());
    assert_eq!(a.sum(), b.sum());
    assert_eq!(a.min(), b.min());
    assert_eq!(a.max(), b.max());
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(a.quantile(q), b.quantile(q), "quantile {q} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c), and merge order never matters.
    #[test]
    fn merge_is_associative(
        xs in wide_samples(),
        ys in wide_samples(),
        zs in wide_samples(),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_hist_eq(&left, &right);

        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_hist_eq(&left, &rev);
    }

    /// quantile(q) is monotone non-decreasing in q, bounded by
    /// min/max, and quantile(1.0) is exactly the recorded max.
    #[test]
    fn quantiles_are_monotone_and_bounded(xs in wide_samples()) {
        let h = hist_of(&xs);
        let qs = [0.0, 0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0];
        let mut prev = 0u64;
        for q in qs {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q})={v} < previous {prev}");
            assert!(v <= h.max());
            prev = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
        assert!(h.quantile(0.0) <= h.max());
    }

    /// Every recorded value lies within the bounds of the bucket the
    /// histogram placed it in, across the whole u64 range, and the
    /// bucket's relative width never exceeds 1/64.
    #[test]
    fn bucket_bounds_bracket_all_values(xs in wide_samples()) {
        for &(base, shift) in &xs {
            let v = base >> shift;
            let mut h = Histogram::new();
            h.record(v);
            // The single occupied bucket must bracket v: quantile(1.0)
            // returns max (=v), and some bucket's bounds contain it.
            assert_eq!(h.quantile(1.0), v);
            let mut found = false;
            for i in 0..trinit_obs::hist::BUCKETS {
                if Histogram::bucket_low(i) <= v && v <= Histogram::bucket_high(i) {
                    found = true;
                    if v >= 64 && Histogram::bucket_high(i) != u64::MAX {
                        let width = Histogram::bucket_high(i) - Histogram::bucket_low(i);
                        assert!(
                            (width as f64) <= Histogram::bucket_low(i) as f64 / 64.0 + 1.0,
                            "bucket {i} too wide for {v}"
                        );
                    }
                    break;
                }
            }
            assert!(found, "no bucket brackets {v}");
        }
    }
}

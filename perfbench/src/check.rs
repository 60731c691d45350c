//! Answer checks: a workload's answers against a reference engine's.
//!
//! Two rankings agree when they hold the same number of answers, their
//! scores agree to 1e-9 position by position, and every interior tie
//! group holds the same keys in some order. The trailing group may be
//! cut by `k` anywhere inside it, so only its size is compared.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use trinit_query::{Answer, VarId};
use trinit_xkg::TermId;

/// Scores closer than this are the same score.
pub const SCORE_TOLERANCE: f64 = 1e-9;

/// The projected bindings that identify an answer.
pub type Key = Vec<(VarId, Option<TermId>)>;

/// One ranked answer list: keys with their scores, best first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ranking(pub Vec<(Key, f64)>);

impl Ranking {
    pub fn of(answers: &[Answer]) -> Ranking {
        Ranking(answers.iter().map(|a| (a.key.clone(), a.score)).collect())
    }

    /// Index ranges of the tie groups, in rank order.
    fn groups(&self) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            let mut j = i + 1;
            while j < self.0.len() && (self.0[j].1 - self.0[i].1).abs() < SCORE_TOLERANCE {
                j += 1;
            }
            out.push(i..j);
            i = j;
        }
        out
    }

    /// The ranking with each interior tie group's keys sorted and the
    /// trailing group reduced to its size, so that any two rankings the
    /// check accepts as equal (with identical scores) map to one form.
    fn canonical(&self) -> (Vec<Vec<&Key>>, Vec<u64>, usize) {
        let groups = self.groups();
        let mut keys = Vec::new();
        for g in groups.iter().take(groups.len().saturating_sub(1)) {
            let mut ks: Vec<&Key> = self.0[g.clone()].iter().map(|(k, _)| k).collect();
            ks.sort();
            keys.push(ks);
        }
        let scores = self.0.iter().map(|(_, s)| s.to_bits()).collect();
        (keys, scores, self.0.len())
    }

    /// An in-process fingerprint of the canonical form.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.canonical().hash(&mut h);
        h.finish()
    }

    /// A stable text form for digests: scores to six decimals, interior
    /// tie groups as sorted display names, the trailing group as a count.
    pub fn digest_text(&self, display: &dyn Fn(TermId) -> String) -> String {
        let groups = self.groups();
        let mut out = String::new();
        for (gi, g) in groups.iter().enumerate() {
            out.push_str(&format!("{:.6}:", self.0[g.start].1));
            if gi + 1 == groups.len() {
                out.push_str(&format!("#{};", g.len()));
                continue;
            }
            let mut names: Vec<String> = self.0[g.clone()]
                .iter()
                .map(|(key, _)| {
                    key.iter()
                        .map(|(_, t)| t.map_or_else(|| "_".to_string(), display))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            names.sort();
            out.push_str(&names.join("|"));
            out.push(';');
        }
        out
    }
}

/// Checks `got` against the reference ranking `want`.
pub fn compare(got: &Ranking, want: &Ranking) -> Result<(), String> {
    if got.0.len() != want.0.len() {
        return Err(format!(
            "{} answers, reference has {}",
            got.0.len(),
            want.0.len()
        ));
    }
    for (i, ((_, x), (_, y))) in got.0.iter().zip(&want.0).enumerate() {
        if (x - y).abs() >= SCORE_TOLERANCE {
            return Err(format!("score at rank {i} is {x}, reference has {y}"));
        }
    }
    let groups = want.groups();
    for g in groups.iter().take(groups.len().saturating_sub(1)) {
        let mut a: Vec<&Key> = got.0[g.clone()].iter().map(|(k, _)| k).collect();
        let mut b: Vec<&Key> = want.0[g.clone()].iter().map(|(k, _)| k).collect();
        a.sort();
        b.sort();
        if a != b {
            return Err(format!(
                "tie group at ranks {}..{} holds other answers",
                g.start, g.end
            ));
        }
    }
    Ok(())
}

/// 64-bit FNV-1a: a digest whose value does not depend on the standard
/// library's hasher, which may change between toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The distinct rankings a workload produced for each `(query, k)`,
/// with how often each was seen: repeated runs of one query normally
/// yield one form, so memory stays bounded however long the run.
#[derive(Default)]
pub struct Observed {
    /// Per `(query, k)`: each distinct ranking's fingerprint, the
    /// ranking, and how many times it was served.
    forms: HashMap<(usize, usize), Vec<Form>>,
}

type Form = (u64, Ranking, u64);

impl Observed {
    pub fn record(&mut self, query: usize, k: usize, answers: &[Answer]) {
        self.record_ranking(query, k, Ranking::of(answers));
    }

    fn record_ranking(&mut self, query: usize, k: usize, ranking: Ranking) {
        let fp = ranking.fingerprint();
        let forms = self.forms.entry((query, k)).or_default();
        match forms.iter_mut().find(|(f, _, _)| *f == fp) {
            Some(form) => form.2 += 1,
            None => forms.push((fp, ranking, 1)),
        }
    }

    /// The `(query, k)` pairs seen, sorted.
    fn keys(&self) -> Vec<(usize, usize)> {
        let mut keys: Vec<_> = self.forms.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Checks every recorded answer list against `reference`; returns
    /// the number of lists checked, the number that failed, and the
    /// first failure's description.
    pub fn check(&self, reference: &dyn Fn(usize, usize) -> Ranking) -> (u64, u64, Option<String>) {
        let (mut checked, mut failed, mut first) = (0, 0, None);
        for key in self.keys() {
            let want = reference(key.0, key.1);
            for (_, got, count) in &self.forms[&key] {
                checked += count;
                if let Err(e) = compare(got, &want) {
                    failed += count;
                    first.get_or_insert_with(|| format!("query {} at k={}: {e}", key.0, key.1));
                }
            }
        }
        (checked, failed, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::TermKind;

    fn key(t: u32) -> Key {
        vec![(VarId(0), Some(TermId::new(TermKind::Resource, t)))]
    }

    fn ranking(rows: &[(u32, f64)]) -> Ranking {
        Ranking(rows.iter().map(|&(t, s)| (key(t), s)).collect())
    }

    #[test]
    fn accepts_reordered_ties_and_any_cut_of_the_last_group() {
        let want = ranking(&[(1, -1.0), (2, -2.0), (3, -2.0), (4, -3.0), (5, -3.0)]);
        let got = ranking(&[
            (1, -1.0),
            (3, -2.0),
            (2, -2.0 + 1e-12),
            (6, -3.0),
            (4, -3.0),
        ]);
        assert_eq!(compare(&got, &want), Ok(()));
        assert_eq!(
            got.fingerprint(),
            ranking(&[
                (1, -1.0),
                (3, -2.0),
                (2, -2.0 + 1e-12),
                (4, -3.0),
                (7, -3.0)
            ])
            .fingerprint()
        );
    }

    #[test]
    fn rejects_perturbed_answer_lists() {
        let want = ranking(&[(1, -1.0), (2, -2.0), (3, -2.0), (4, -3.0)]);
        let perturbed_score = ranking(&[(1, -1.0), (2, -2.0), (3, -2.0 - 1e-6), (4, -3.0)]);
        assert!(compare(&perturbed_score, &want).is_err());
        let swapped_key = ranking(&[(1, -1.0), (2, -2.0), (9, -2.0), (4, -3.0)]);
        assert!(compare(&swapped_key, &want).is_err());
        let truncated = ranking(&[(1, -1.0), (2, -2.0), (3, -2.0)]);
        assert!(compare(&truncated, &want).is_err());
        let reordered = ranking(&[(2, -2.0), (1, -1.0), (3, -2.0), (4, -3.0)]);
        assert!(compare(&reordered, &want).is_err());
    }

    #[test]
    fn observed_counts_every_failing_run() {
        let want = ranking(&[(1, -1.0), (2, -2.0)]);
        let mut seen = Observed::default();
        let bad = ranking(&[(1, -1.5), (2, -2.0)]);
        for r in [&want, &want, &bad] {
            seen.record_ranking(0, 10, r.clone());
        }
        let (checked, failed, first) = seen.check(&|_, _| want.clone());
        assert_eq!((checked, failed), (3, 1));
        assert!(first.is_some());
    }

    #[test]
    fn digest_text_is_order_independent_within_ties() {
        let a = ranking(&[(1, -1.0), (2, -1.0), (3, -2.0)]);
        let b = ranking(&[(2, -1.0), (1, -1.0), (4, -2.0)]);
        let show = |t: TermId| format!("{t:?}");
        assert_eq!(a.digest_text(&show), b.digest_text(&show));
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

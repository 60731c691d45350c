//! Partitioned top-k execution: the staged pipeline over shard slices.
//!
//! A sharded store splits the triple table into N independent
//! [`XkgStore`] slices (subject-hash partitioned, sharing one term
//! dictionary — see `trinit-xkg`'s `XkgBuilder::build_sharded`). This
//! module runs the *same* staged operator pipeline over all slices at
//! once by swapping only stage 1:
//!
//! * each query pattern gets one [`ShardedMerge`] — a merge-of-merges
//!   holding one [`IncrementalMerge`] per shard, emitting the union of
//!   the shards' posting streams in globally descending probability
//!   order behind the same [`RankSource`] seam the monolithic source
//!   implements;
//! * probabilities are normalized by a [`GlobalTotals`] provider, so a
//!   shard's emissions carry exactly the probability the monolithic
//!   engine would assign them (a shard-local denominator would inflate
//!   them);
//! * the emitted triple ids are remapped into a global id space
//!   (per-shard offset + local id), and the rank join resolves them
//!   through a caller-supplied [`TripleLookup`];
//! * stages 2–4 — the join, threshold/capping policy, and the driver
//!   loop — are literally the monolithic engine's code:
//!   [`run_partitioned`] calls the same
//!   [`drive::run_pipeline`](crate::exec::drive::run_pipeline) with a
//!   `ShardedMerge` factory instead of an `IncrementalMerge` factory.
//!   Each shard's posting-index head bounds enter the merge exactly as
//!   the single store's do, so the global k-th answer terminates the
//!   join as soon as it dominates every shard's remaining frontier —
//!   and the ε-approximate mass criterion sums the shards' remaining
//!   masses into one envelope with the same guarantee.
//!
//! **Soundness / completeness.** The union of the shards' match sets is
//! exactly the monolithic match set (the partition is total and
//! disjoint), and [`ShardedMerge::next_merged`] only emits a shard's
//! head after [`IncrementalMerge::tighten_head`] has made it exact and
//! no other shard's upper bound exceeds it — so the union stream is
//! emitted in the same globally descending order the monolithic merge
//! produces, and every threshold argument of the single-store engine
//! carries over verbatim.
//!
//! **Ties.** A single store's merge emits equal probabilities by
//! alternative, then by triple id. When shard heads tie exactly, the
//! election tightens every tied shard and emits the head with the lowest
//! (alternative, tie rank) — the rank being the id the monolithic store
//! gives the triple ([`TripleLookup::tie_ranks`]) — so the union stream
//! equals the monolithic stream triple for triple, and a k-cut inside a
//! tie group keeps the same answers on both backends. Ranks are read
//! only for heads that tie.
//!
//! **Election cost.** The best shard is elected from a small max-heap
//! keyed by per-shard bounds (O(log shards) per emission instead of a
//! linear rescan), and the union's remaining-mass envelope is an
//! incrementally maintained sum (O(1) per read). The heap's entries are
//! always current: a shard's bound only moves inside its own `&mut` calls
//! (`tighten_head` / `next_merged`), each of which is followed by a
//! re-push here — the emission order is property-pinned identical to
//! a linear-scan election and to the monolithic merge at 1/2/4/7
//! shards.
//!
//! A slice need not be a subject-hash shard: a store with a live
//! ingestion delta passes its delta views as extra slices after its
//! base shards (a monolithic store is the one-shard case, so a live
//! delta makes it two slices), and the `restrict` parameter of
//! [`run_partitioned`] confines one query pattern to a sub-range of
//! slices — the seam semi-naive delta queries ("which answers did this
//! batch introduce?") are built on.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;

use trinit_obs::{now_ns, SpanRecord, Stage, TraceRecorder};
use trinit_relax::{ConditionOracle, RuleSet};
use trinit_xkg::{TripleId, XkgStore};

use crate::answer::Answer;
use crate::ast::Query;
use crate::exec::budget::{BudgetTracker, Completeness};
use crate::exec::drive::{self, TopkConfig};
use crate::exec::merge::{IncrementalMerge, Merged, RankSource};
use crate::exec::{ExecMetrics, TripleLookup};
use crate::score::{GlobalTotals, PostingCache, SharedPostingCache};

/// One shard's standing in the election. Max-heap order: higher bound
/// first; at equal bounds a loose entry first (it may tie once
/// tightened), then an exact one whose tie key is not yet computed,
/// then the lower tie key — the monolithic merge's order — then the
/// lower shard index.
struct ShardEntry {
    bound: f64,
    /// True once `bound` is the exact probability of the shard's next
    /// emission (its head list is open).
    exact: bool,
    /// The exact head's (alternative, tie rank), computed only when it
    /// ties another shard's head, and kept until the shard emits.
    key: Option<(usize, u32)>,
    idx: usize,
}

impl PartialEq for ShardEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ShardEntry {}

impl PartialOrd for ShardEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShardEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.exact.cmp(&self.exact))
            .then_with(|| match (self.key, other.key) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Greater,
                (Some(_), None) => Ordering::Less,
                (Some(a), Some(b)) => b.cmp(&a),
            })
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Per-pattern sorted access over every shard of a partitioned store:
/// one [`IncrementalMerge`] per shard, pulled head-first across shards
/// via a bound-keyed max-heap.
pub struct ShardedMerge<'a> {
    shards: Vec<IncrementalMerge<'a>>,
    /// Each shard's base in the global triple-id space (parallel to
    /// `shards`).
    offsets: Vec<u32>,
    /// Each shard's tie ranks by local id (parallel to `shards`; `None`
    /// when they are the global ids), read for exactly tied heads.
    ranks: Vec<Option<&'a [u32]>>,
    /// Each shard's slot in the shared `metrics` vector (parallel to
    /// `shards`; restricted merges cover a sub-range of the slots).
    slots: Vec<usize>,
    /// Work counters attributed per shard, shared by every pattern's
    /// merge of one execution (drained into the aggregate at the end).
    metrics: Rc<RefCell<Vec<ExecMetrics>>>,
    /// Election heap: exactly one entry per non-exhausted shard, each
    /// carrying the shard's *current* [`IncrementalMerge::peek_bound`]
    /// (bounds move only inside that shard's `&mut` calls, which
    /// re-push here), marked exact once its head list is open.
    heap: BinaryHeap<ShardEntry>,
    /// Incrementally maintained sum of the shards' remaining-mass
    /// envelopes: deltas are folded in around every `tighten_head` /
    /// `next_merged`, making [`RankSource::remaining_mass`] O(1).
    mass: f64,
    /// Elections in the current observation window (see
    /// [`RankSource::next_merged`]'s batching: one [`Stage::Election`]
    /// span per 64 elections keeps the clock off the per-pull path).
    obs_elections: u32,
    /// Wall start of the current election window.
    obs_window_start: u64,
}

impl<'a> ShardedMerge<'a> {
    fn new(
        shards: Vec<IncrementalMerge<'a>>,
        offsets: Vec<u32>,
        lookup: &'a dyn TripleLookup,
        slots: Vec<usize>,
        metrics: Rc<RefCell<Vec<ExecMetrics>>>,
    ) -> ShardedMerge<'a> {
        let heap = (0..shards.len())
            .filter_map(|idx| ShardedMerge::entry(&shards, idx))
            .collect();
        let mass = shards.iter().map(IncrementalMerge::remaining_mass).sum();
        let ranks = offsets.iter().map(|&o| lookup.tie_ranks(o)).collect();
        ShardedMerge {
            shards,
            offsets,
            ranks,
            slots,
            metrics,
            heap,
            mass,
            obs_elections: 0,
            obs_window_start: 0,
        }
    }

    /// Runs `f` against shard `i`'s merge, folding the move of its mass
    /// envelope into the incrementally tracked union sum. The work `f`
    /// records is counted straight into the shard's slot;
    /// [`run_partitioned`] folds the slots into the aggregate once the
    /// run ends.
    fn with_mass_delta<T>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut IncrementalMerge<'a>, &mut ExecMetrics) -> T,
    ) -> T {
        let shard = &mut self.shards[i];
        let before = shard.remaining_mass();
        let out = f(shard, &mut self.metrics.borrow_mut()[self.slots[i]]);
        self.mass += shard.remaining_mass() - before;
        out
    }
}

impl RankSource for ShardedMerge<'_> {
    fn peek_bound(&self) -> Option<f64> {
        // The heap invariant (one exact entry per live shard) makes the
        // top the max over all shards' current bounds.
        self.heap.peek().map(|e| e.bound)
    }

    /// Work is counted into the per-shard slots (see
    /// [`ShardedMerge::with_mass_delta`]), not into `_metrics`.
    fn next_merged(
        &mut self,
        _metrics: &mut ExecMetrics,
        recorder: &mut TraceRecorder,
    ) -> Option<Merged> {
        let obs_on = recorder.is_enabled();
        if obs_on && self.obs_elections == 0 {
            self.obs_window_start = now_ns();
        }
        let out = 'elect: loop {
            // The shard with the highest upper bound.
            let Some(mut cand) = self.heap.pop() else {
                break None;
            };
            // Settle the candidate against the heap top until it wins,
            // swapping in place whenever the top must go first.
            loop {
                if !cand.exact {
                    // A bound can be loose (unopened alternatives).
                    // Tighten the head to its exact next probability.
                    let i = cand.idx;
                    let tightened = self.with_mass_delta(i, |shard, m| shard.tighten_head(m));
                    let Some(tight) = tightened else {
                        // Exhausted while tightening — drop out of the
                        // election (re-enter only if a bound remains).
                        if let Some(entry) = ShardedMerge::entry(&self.shards, i) {
                            self.heap.push(entry);
                        }
                        continue 'elect;
                    };
                    cand.bound = tight;
                    cand.exact = true;
                }
                let Some(mut next) = self.heap.peek_mut() else {
                    break;
                };
                let next_first = if next.bound != cand.bound {
                    next.bound > cand.bound
                } else if !next.exact {
                    // May tie once tightened.
                    true
                } else if next.key.is_none() {
                    // An exact tie: key the top in place (the heap
                    // re-sifts it) and look again — every tied head is
                    // keyed before one emits.
                    next.key = Some(tie_key(&self.shards, &self.offsets, &self.ranks, next.idx));
                    continue;
                } else {
                    let key = *cand.key.get_or_insert_with(|| {
                        tie_key(&self.shards, &self.offsets, &self.ranks, cand.idx)
                    });
                    next.key < Some(key)
                };
                if !next_first {
                    break;
                }
                std::mem::swap(&mut *next, &mut cand);
            }
            let i = cand.idx;
            let Some(mut merged) = self.with_mass_delta(i, |shard, m| shard.next_merged(m)) else {
                // A just-tightened head always emits; if the invariant
                // ever broke, dropping the shard from this election
                // degrades to a skipped emission instead of panicking.
                continue;
            };
            if let Some(entry) = ShardedMerge::entry(&self.shards, i) {
                self.heap.push(entry);
            }
            // Remap into the global id space.
            merged.triple = TripleId(self.offsets[i] + merged.triple.0);
            break Some(merged);
        };
        if obs_on {
            self.obs_elections += 1;
            if self.obs_elections >= 64 {
                self.flush_election_window(recorder);
            }
        }
        out
    }

    fn remaining_mass(&self) -> f64 {
        // The shards' match sets are disjoint, so their per-slice mass
        // envelopes sum to a sound envelope on the union stream: the
        // sum dominates each shard's own mass, hence every future
        // emission, and also the collective unconsumed mass. The sum is
        // tracked incrementally around the per-shard calls that move it.
        self.mass.max(0.0)
    }

    fn finish_obs(&mut self, recorder: &mut TraceRecorder) {
        if recorder.is_enabled() {
            self.flush_election_window(recorder);
        }
    }
}

impl ShardedMerge<'_> {
    /// Shard `i`'s election entry: exact when its head list is already
    /// open, loose otherwise; `None` once the shard is exhausted.
    fn entry(shards: &[IncrementalMerge<'_>], i: usize) -> Option<ShardEntry> {
        let shard = &shards[i];
        Some(ShardEntry {
            bound: shard.peek_bound()?,
            exact: shard.head_is_open(),
            idx: i,
            key: None,
        })
    }

    /// Record the pending [`Stage::Election`] window span (covers the
    /// wall interval its `detail` elections ran in) and reset it.
    fn flush_election_window(&mut self, recorder: &mut TraceRecorder) {
        if self.obs_elections == 0 {
            return;
        }
        let now = now_ns();
        recorder.record_span(SpanRecord {
            stage: Stage::Election,
            detail: self.obs_elections,
            start_ns: self.obs_window_start,
            dur_ns: now.saturating_sub(self.obs_window_start),
        });
        self.obs_window_start = now;
        self.obs_elections = 0;
    }
}

/// Shard `i`'s exact head as (alternative, tie rank): the order a single
/// store's merge emits equal probabilities in. A head that cannot be
/// keyed sorts last among its ties.
fn tie_key(
    shards: &[IncrementalMerge<'_>],
    offsets: &[u32],
    ranks: &[Option<&[u32]>],
    i: usize,
) -> (usize, u32) {
    shards[i]
        .head_key()
        .map_or((usize::MAX, u32::MAX), |(alt, local)| {
            let rank = ranks[i].and_then(|r| r.get(local.idx()).copied());
            (alt, rank.unwrap_or(offsets[i] + local.0))
        })
}

/// The result of one partitioned execution.
#[derive(Debug)]
pub struct PartitionedRun {
    /// Top-k answers, best first. Derivation triple ids are global
    /// (shard offset + local id).
    pub answers: Vec<Answer>,
    /// Aggregate work counters, per-shard merge work included.
    pub metrics: ExecMetrics,
    /// Merge-level work (posting lists built, postings scanned, cache
    /// hits, relaxations opened) attributed to each shard.
    pub per_shard: Vec<ExecMetrics>,
    /// The exactness guarantee of `answers`, read off the run's budget
    /// tracker: `Exact` unless an ε/θ criterion genuinely retired work
    /// or a hard budget cutoff fired.
    pub completeness: Completeness,
}

/// Runs incremental top-k over the shards of a partitioned store,
/// returning exactly the answers (keys *and* scores) the monolithic
/// engine returns on the union of the shards.
///
/// * `offsets[i]` is shard `i`'s base in the global triple-id space;
///   `lookup` resolves those global ids.
/// * `totals` supplies cross-shard normalization totals; `oracle`
///   verifies structural-rule data conditions across every slice.
/// * `shard_caches`, when given, holds one store-level posting cache
///   per *leading* slice (cached lists are slice-specific, so slices
///   must never share one); trailing slices — e.g. freshly built delta
///   segments, whose lists change every ingest — run uncached.
/// * `tracker` carries the query's budget state into the pipeline
///   (pass a fresh [`BudgetTracker`] for a standalone run); the
///   returned completeness is read off it.
/// * `restrict`, when `Some((j, range))`, confines query pattern `j`'s
///   merge source to the slice sub-range `range` — the semi-naive
///   delta-query seam: a pattern restricted to the delta slices matches
///   only newly ingested triples, while every other pattern still reads
///   the full union. Scores stay exact because `totals` normalizes over
///   the whole store either way.
/// * `recorder` receives the run's stage spans (variant spans, pull
///   windows, election windows, threshold/cutoff events); pass
///   [`TraceRecorder::off`] for an uninstrumented run.
#[allow(clippy::too_many_arguments)]
pub fn run_partitioned(
    shards: &[&XkgStore],
    offsets: &[u32],
    lookup: &dyn TripleLookup,
    totals: &dyn GlobalTotals,
    oracle: Option<&dyn ConditionOracle>,
    query: &Query,
    rules: &RuleSet,
    cfg: &TopkConfig,
    shard_caches: Option<&[SharedPostingCache]>,
    tracker: &BudgetTracker,
    restrict: Option<(usize, Range<usize>)>,
    recorder: &mut TraceRecorder,
) -> PartitionedRun {
    assert_eq!(shards.len(), offsets.len(), "one offset per shard");
    if let Some(caches) = shard_caches {
        assert!(
            caches.len() <= shards.len(),
            "at most one cache per slice, leading slices first"
        );
    }
    if let Some((_, range)) = &restrict {
        assert!(
            range.start < range.end && range.end <= shards.len(),
            "restricted slice range out of bounds"
        );
    }
    let n_shards = shards.len();
    let mut metrics = ExecMetrics::default();

    // One per-execution posting cache per shard: a cached list holds one
    // slice's entries, so the cache key space is per shard.
    let exec_caches: Vec<Rc<RefCell<PostingCache>>> = (0..n_shards)
        .map(|_| Rc::new(RefCell::new(PostingCache::new())))
        .collect();
    let shard_metrics = Rc::new(RefCell::new(vec![ExecMetrics::default(); n_shards]));

    // The same pipeline as the monolithic engine, assembled around a
    // cross-shard stage-1 source: one IncrementalMerge per shard per
    // pattern, unioned by ShardedMerge behind the RankSource seam.
    let answers = drive::run_pipeline(
        lookup,
        oracle,
        query,
        rules,
        cfg,
        &mut metrics,
        tracker,
        recorder,
        |alts, position| {
            let range = match &restrict {
                Some((j, range)) if *j == position => range.clone(),
                _ => 0..n_shards,
            };
            let merges = range
                .clone()
                .map(|s| {
                    IncrementalMerge::new(
                        shards[s],
                        Rc::clone(alts),
                        Rc::clone(&exec_caches[s]),
                        shard_caches.and_then(|c| c.get(s)),
                        cfg.tighten_threshold,
                        Some(totals),
                    )
                })
                .collect();
            ShardedMerge::new(
                merges,
                range.clone().map(|s| offsets[s]).collect(),
                lookup,
                range.collect(),
                Rc::clone(&shard_metrics),
            )
        },
    );

    // The merges counted their work per shard only; fold it into the
    // aggregate now.
    let per_shard = shard_metrics.borrow().clone();
    for m in &per_shard {
        metrics.merge(m);
    }
    let completeness = tracker.completeness(&answers);
    PartitionedRun {
        answers,
        metrics,
        per_shard,
        completeness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::merge::{pattern_alternatives, Alternative};
    use crate::score::{satisfies_mask, CanonicalPattern};
    use trinit_relax::QPattern;
    use trinit_xkg::XkgBuilder;

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..60u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 6));
            if i % 2 == 0 {
                let s = b.dict_mut().resource(&format!("s{i}"));
                let p = b.dict_mut().token("close to");
                let o = b.dict_mut().resource(&format!("o{}", (i + 1) % 6));
                let src = b.intern_source(&format!("doc{i}"));
                b.add_extracted(s, p, o, 0.3 + (i % 7) as f32 * 0.09, src);
            }
        }
        b
    }

    /// The reference election, a linear scan: tighten shards at the
    /// highest bound (lowest index first) until every one there is
    /// exact, then emit the tied head with the lowest (alternative, tie
    /// rank).
    fn reference_next(
        shards: &mut [IncrementalMerge<'_>],
        offsets: &[u32],
        lookup: &Ranked<'_>,
        metrics: &mut [ExecMetrics],
    ) -> Option<Merged> {
        loop {
            let max = shards
                .iter()
                .filter_map(IncrementalMerge::peek_bound)
                .max_by(f64::total_cmp)?;
            let at_max = |m: &IncrementalMerge<'_>| m.peek_bound() == Some(max);
            if let Some(i) = shards
                .iter()
                .position(|m| at_max(m) && m.head_key().is_none())
            {
                shards[i].tighten_head(&mut metrics[i]);
                continue;
            }
            let i = (0..shards.len())
                .filter(|&i| at_max(&shards[i]))
                .min_by_key(|&i| {
                    let (alt, local) = shards[i].head_key().expect("tightened head");
                    (alt, lookup.rank(TripleId(offsets[i] + local.0)))
                })?;
            let mut merged = shards[i]
                .next_merged(&mut metrics[i])
                .expect("tightened head must emit");
            merged.triple = TripleId(offsets[i] + merged.triple.0);
            return Some(merged);
        }
    }

    /// Slices of one builder with the tie ranks a sharded store keeps
    /// (each triple's id in the monolithic store), resolving global ids
    /// and scanning cross-slice totals.
    struct Ranked<'a> {
        slices: &'a [XkgStore],
        offsets: Vec<u32>,
        ranks: Vec<Vec<u32>>,
    }

    impl TripleLookup for Ranked<'_> {
        fn triple_of(&self, id: TripleId) -> trinit_xkg::Triple {
            let i = self.slice_of(id.0);
            self.slices[i].triple(TripleId(id.0 - self.offsets[i]))
        }

        fn tie_ranks(&self, offset: u32) -> Option<&[u32]> {
            Some(&self.ranks[self.slice_of(offset)])
        }
    }

    impl GlobalTotals for Ranked<'_> {
        fn pattern_total(&self, &(slot, mask): &CanonicalPattern) -> Option<f64> {
            let slice_total = |s: &XkgStore| -> f64 {
                s.lookup(&slot)
                    .iter()
                    .filter(|&&id| satisfies_mask(s, id, mask))
                    .map(|&id| s.provenance(id).weight())
                    .sum()
            };
            Some(self.slices.iter().map(slice_total).sum())
        }
    }

    impl Ranked<'_> {
        fn slice_of(&self, id: u32) -> usize {
            self.offsets.partition_point(|&base| base <= id) - 1
        }

        fn rank(&self, id: TripleId) -> u32 {
            let i = self.slice_of(id.0);
            self.ranks[i][(id.0 - self.offsets[i]) as usize]
        }
    }

    fn merge_for<'a>(
        slice: &'a XkgStore,
        alts: &Rc<[Alternative]>,
        totals: Option<&'a dyn GlobalTotals>,
    ) -> IncrementalMerge<'a> {
        let cache = Rc::new(RefCell::new(PostingCache::new()));
        IncrementalMerge::new(slice, Rc::clone(alts), cache, None, true, totals)
    }

    fn merges_for<'a>(
        slices: &'a [XkgStore],
        alts: &Rc<[Alternative]>,
        totals: &'a dyn GlobalTotals,
    ) -> Vec<IncrementalMerge<'a>> {
        slices
            .iter()
            .map(|s| merge_for(s, alts, Some(totals)))
            .collect()
    }

    #[test]
    fn heap_election_matches_linear_scan_and_monolith() {
        let b = builder();
        let mono = b.clone().build();
        let probe = mono.resource("p").unwrap();
        for n in [1usize, 2, 4, 7] {
            let slices = b.clone().build_sharded(n);
            let mut offsets = Vec::new();
            let mut base = 0u32;
            for s in &slices {
                offsets.push(base);
                base += s.len() as u32;
            }
            let mut ranks = vec![Vec::new(); n];
            for (rank, t) in (0u32..).zip(b.triples()) {
                ranks[t.s.shard_of(n)].push(rank);
            }
            let lookup = Ranked {
                slices: &slices,
                offsets: offsets.clone(),
                ranks,
            };
            let exec = &lookup;
            let rules = RuleSet::new();
            let cfg = TopkConfig::default();
            // Both shapes the merge serves heavily: predicate-bound and
            // fully unbound.
            for pattern in [
                QPattern::new(
                    trinit_relax::QTerm::Var(trinit_relax::VarId(0)),
                    trinit_relax::QTerm::Term(probe),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(1)),
                ),
                QPattern::new(
                    trinit_relax::QTerm::Var(trinit_relax::VarId(0)),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(2)),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(1)),
                ),
            ] {
                let alts: Rc<[Alternative]> =
                    pattern_alternatives(&pattern, &rules, &cfg, &mut 8).into();
                let mut reference = merges_for(&slices, &alts, exec);
                let mut ref_metrics = vec![ExecMetrics::default(); n];
                let mut monolith = merge_for(&mono, &alts, None);
                let heap_metrics = Rc::new(RefCell::new(vec![ExecMetrics::default(); n]));
                let mut heap_merge = ShardedMerge::new(
                    merges_for(&slices, &alts, exec),
                    offsets.clone(),
                    &lookup,
                    (0..n).collect(),
                    Rc::clone(&heap_metrics),
                );
                let mut scratch = ExecMetrics::default();
                let mut emitted = 0usize;
                loop {
                    // The incremental mass sum must always agree with a
                    // re-sum of the per-shard envelopes.
                    let resummed: f64 = heap_merge
                        .shards
                        .iter()
                        .map(IncrementalMerge::remaining_mass)
                        .sum();
                    assert!(
                        (heap_merge.remaining_mass() - resummed.max(0.0)).abs() < 1e-9,
                        "mass drifted from re-sum at {n} shards after {emitted} emissions"
                    );
                    let want = reference_next(&mut reference, &offsets, &lookup, &mut ref_metrics);
                    let got = heap_merge.next_merged(&mut scratch, &mut TraceRecorder::off());
                    let single = monolith.next_merged(&mut ExecMetrics::default());
                    match (want, got, single) {
                        (None, None, None) => break,
                        (Some(w), Some(g), Some(m)) => {
                            assert_eq!(w.triple, g.triple, "{n} shards, emission {emitted}");
                            assert_eq!(
                                w.prob.to_bits(),
                                g.prob.to_bits(),
                                "{n} shards, emission {emitted}"
                            );
                            assert_eq!(w.alt, g.alt);
                            // The union stream is the monolithic stream,
                            // tied runs included.
                            assert_eq!(
                                lookup.rank(g.triple),
                                m.triple.0,
                                "{n} shards, emission {emitted}: tie order differs"
                            );
                            assert!((g.prob - m.prob).abs() < 1e-12);
                        }
                        (w, g, m) => panic!(
                            "streams diverge at {n} shards, emission {emitted}: \
                             reference {w:?} vs heap {g:?} vs monolith {m:?}"
                        ),
                    }
                    emitted += 1;
                }
                assert!(emitted > 0, "fixture must emit");
                assert_eq!(heap_merge.peek_bound(), None, "drained merge still bounds");
                // Identical per-shard work too: the elections visited the
                // same shards in the same order.
                assert_eq!(&*heap_metrics.borrow(), &ref_metrics);
                // Shard-pull attribution: every unit of merge work lands
                // in the per-shard slots, none in the metrics passed to
                // `next_merged` — `run_partitioned` folds the slots into
                // the aggregate once, at the end of the run.
                assert_eq!(scratch, ExecMetrics::default());
            }
        }
    }
}

//! Stage 2 of the top-k operator pipeline: the **hash-partitioned rank
//! join**.
//!
//! Consumes emissions from any [`RankSource`] (stage 1,
//! [`crate::exec::merge`]) and combines them across a variant's streams,
//! HRJN-style: each new item joins against the seen items of the other
//! streams. Each [`Stream`] keeps its seen items partitioned by the
//! values of its *join variables* (variables shared with other streams
//! in the variant), so an arriving item probes exactly one bucket per
//! stream instead of scanning every seen item — the Yannakakis-style
//! observation that only join-compatible partners can ever merge. Items
//! whose relaxed form dropped a join variable land in a small
//! always-scanned residual list, and streams with no shared variables
//! degrade to a single bucket (a true cross product).
//!
//! **Per-pull contract.** Pulling an item, joining it and remembering
//! it allocate nothing in the steady state; only opening a posting list
//! (stage 1) and offering a completed answer to the collector do.
//! Concretely:
//!
//! * a [`SeenItem`] is `Copy`: its ≤ 3 bound pairs are stored inline
//!   ([`BoundPairs`]), and it names its alternative by index — the
//!   pattern, weight and rule trace are read from the stream's
//!   alternative table only when an answer is offered;
//! * partition keys are inline ≤ 3-term [`JoinKey`]s hashed by the
//!   in-tree [`FxHasher`], and a bucket's members are an index chain
//!   through one per-stream `Vec`, not a `Vec` per key;
//! * the combination loop works in one per-variant [`JoinScratch`]:
//!   a scratch [`Bindings`] with an undo stack for backtracking and
//!   the accumulated items, reused across pulls;
//! * each stream caches its frontier (`ln` of the source's next-emission
//!   bound); the cache changes only when that stream itself is pulled.
//!
//! The seen-item vector, the bucket chains and the residual list grow
//! amortized, like any `Vec`.
//!
//! This module knows nothing about thresholds or termination — pulls
//! are sequenced by the driver ([`crate::exec::drive`]) under the
//! policy of [`crate::exec::threshold`]. The seams it exposes upward
//! are [`Stream`] (per-stream join state plus the frontier /
//! contribution bounds the threshold reads) and
//! [`JoinScratch::join_arrival`] (combine one arrival against the
//! other streams' partitions).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

use trinit_obs::TraceRecorder;
use trinit_relax::{QPattern, QTerm, RuleId, VarId};
use trinit_xkg::{TermId, Triple, TripleId};

use crate::answer::{Answer, AnswerCollector, Bindings, Derivation};
use crate::exec::merge::{Alternative, Merged, RankSource};
use crate::exec::{ExecMetrics, TripleLookup};
use crate::score::{ln_weight, LOG_ZERO};

/// A word-at-a-time multiplicative hasher in the style of rustc's
/// `FxHasher`: one rotate, xor and multiply per word. Join keys are a
/// few dense term ids chosen by the store, not by an adversary, so
/// SipHash's flooding resistance buys nothing on this path.
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Filler for unused inline term slots.
const NO_TERM: TermId = TermId::from_raw(0);

/// The `(variable, value)` pairs one item binds — at most three (one per
/// triple slot), deduplicated, stored inline. Joining is an O(pairs)
/// probe into the shared scratch assignment instead of a per-candidate
/// vector clone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundPairs {
    vars: [VarId; 3],
    vals: [TermId; 3],
    len: u8,
}

impl BoundPairs {
    /// The pairs `pattern` induces against the triple `t`. Returns
    /// `None` if a repeated variable meets two different values (cannot
    /// happen for triples from the pattern's own match list, which
    /// pre-filters repetition, but kept defensive).
    pub(crate) fn of(pattern: &QPattern, t: Triple) -> Option<BoundPairs> {
        let mut out = BoundPairs {
            vars: [VarId(0); 3],
            vals: [NO_TERM; 3],
            len: 0,
        };
        for (slot, value) in pattern.slots().into_iter().zip([t.s, t.p, t.o]) {
            if let QTerm::Var(v) = slot {
                match out.get(v) {
                    Some(existing) if existing != value => return None,
                    Some(_) => {}
                    None => {
                        let i = usize::from(out.len);
                        out.vars[i] = v;
                        out.vals[i] = value;
                        out.len += 1;
                    }
                }
            }
        }
        Some(out)
    }

    /// The value bound to `v`, if this item binds it.
    #[inline]
    pub(crate) fn get(&self, v: VarId) -> Option<TermId> {
        self.iter().find(|&(u, _)| u == v).map(|(_, t)| t)
    }

    /// The pairs in slot order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VarId, TermId)> + '_ {
        self.vars
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .take(usize::from(self.len))
    }
}

/// An item seen by one rank-join stream: the (few) variable bindings its
/// triple induced, its score, and the alternative that emitted it.
/// `Copy` and heap-free; the alternative's pattern, weight and rule
/// trace are looked up in the stream's alternative table only when an
/// answer is offered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeenItem {
    pub(crate) bound: BoundPairs,
    pub(crate) log_score: f64,
    pub(crate) triple: TripleId,
    /// Index into the stream's alternatives ([`Stream::alts`]).
    pub(crate) alt: u32,
}

/// A stream's partition key: the values of its join variables (at most
/// three, one per triple slot), inline. Unused slots hold a filler; all
/// keys of one stream have the same arity, so the filler never tells
/// two of them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinKey([TermId; 3]);

impl Hash for JoinKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.0;
        state.write_u64(u64::from(a.raw()) | u64::from(b.raw()) << 32);
        state.write_u32(c.raw());
    }
}

impl JoinKey {
    /// The key of `join_vars` under `value`, or `None` if some join
    /// variable has no value.
    #[inline]
    fn of(join_vars: &[VarId], value: impl Fn(VarId) -> Option<TermId>) -> Option<JoinKey> {
        debug_assert!(
            join_vars.len() <= 3,
            "a pattern has at most three variables"
        );
        let mut key = [NO_TERM; 3];
        for (slot, &v) in key.iter_mut().zip(join_vars) {
            *slot = value(v)?;
        }
        Some(JoinKey(key))
    }
}

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// First and last seen index of one bucket; the members in between are
/// linked through [`Stream::next_in_bucket`] in insertion order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// One rank-join stream: a stage-1 source plus the partitioned seen-item
/// state the join probes and the bounds the threshold policy reads.
pub(crate) struct Stream<M> {
    pub(crate) merge: M,
    /// The pattern's alternatives, indexed by [`SeenItem::alt`].
    pub(crate) alts: Rc<[Alternative]>,
    pub(crate) seen: Vec<SeenItem>,
    /// This stream's join variables: variables of its variant pattern
    /// shared with at least one other stream. Sorted, deduplicated; the
    /// partition key is their value tuple.
    join_vars: Vec<VarId>,
    /// Seen items that bind every join variable, partitioned by their
    /// join-key values. With no join variables all items share the empty
    /// key (a deliberate single-bucket cross product).
    buckets: HashMap<JoinKey, Chain, BuildHasherDefault<FxHasher>>,
    /// Parallel to `seen`: the next member of the item's bucket, or
    /// [`NIL`] (also for residual items).
    next_in_bucket: Vec<u32>,
    /// Seen items whose (relaxed) pattern dropped a join variable; they
    /// are compatible with any key value there, so every probe scans
    /// this residual list as well.
    partial: Vec<u32>,
    pub(crate) best_log: f64,
    pub(crate) exhausted: bool,
    /// Retired by the termination policy: no unseen item of this stream
    /// can improve the top-k (exact capping) or everything it can still
    /// contribute is within the ε tolerance (approximate capping), so it
    /// is no longer pulled (its seen items keep participating in other
    /// streams' joins).
    pub(crate) capped: bool,
    /// Cached [`Stream::frontier_log`], refreshed by [`Stream::pull`].
    frontier: f64,
}

impl<M: RankSource> Stream<M> {
    /// A fresh stream over `merge`, which emits from `alts`, with the
    /// given join variables.
    pub(crate) fn new(merge: M, alts: Rc<[Alternative]>, join_vars: Vec<VarId>) -> Stream<M> {
        let frontier = merge.peek_bound().map_or(LOG_ZERO, ln_weight);
        Stream {
            merge,
            alts,
            seen: Vec::new(),
            join_vars,
            buckets: HashMap::default(),
            next_in_bucket: Vec::new(),
            partial: Vec::new(),
            best_log: LOG_ZERO,
            exhausted: false,
            capped: false,
            frontier,
        }
    }

    /// Upper bound (log) on this stream's next emission; [`LOG_ZERO`]
    /// once exhausted. Cached: a source's bound moves only when it is
    /// pulled, so this is re-read from the source by [`Stream::pull`]
    /// alone.
    #[inline]
    pub(crate) fn frontier_log(&self) -> f64 {
        self.frontier
    }

    /// Upper bound on any item this stream can contribute.
    #[inline]
    pub(crate) fn contribution_bound(&self) -> f64 {
        if self.seen.is_empty() {
            self.frontier
        } else {
            self.best_log
        }
    }

    /// Pulls the source's next emission, marking the stream exhausted
    /// when there is none, and refreshes the cached frontier.
    pub(crate) fn pull(
        &mut self,
        metrics: &mut ExecMetrics,
        recorder: &mut TraceRecorder,
    ) -> Option<Merged> {
        let merged = self.merge.next_merged(metrics, recorder);
        self.exhausted |= merged.is_none();
        self.frontier = if self.exhausted {
            LOG_ZERO
        } else {
            self.merge.peek_bound().map_or(LOG_ZERO, ln_weight)
        };
        merged
    }

    /// The seen item for an emission of this stream, or `None` if the
    /// triple does not bind the alternative's pattern consistently.
    pub(crate) fn seen_item(&self, m: Merged, lookup: &dyn TripleLookup) -> Option<SeenItem> {
        let pattern = &self.alts[m.alt as usize].pattern;
        Some(SeenItem {
            bound: BoundPairs::of(pattern, lookup.triple_of(m.triple))?,
            log_score: ln_weight(m.prob),
            triple: m.triple,
            alt: m.alt,
        })
    }

    /// Remembers an item, filing it under its join-key partition.
    pub(crate) fn push_seen(&mut self, item: SeenItem) {
        if self.seen.is_empty() {
            self.best_log = item.log_score;
        }
        let idx = self.seen.len() as u32;
        match JoinKey::of(&self.join_vars, |v| item.bound.get(v)) {
            Some(key) => match self.buckets.entry(key) {
                Entry::Occupied(mut chain) => {
                    let chain = chain.get_mut();
                    self.next_in_bucket[chain.tail as usize] = idx;
                    chain.tail = idx;
                }
                Entry::Vacant(slot) => {
                    slot.insert(Chain {
                        head: idx,
                        tail: idx,
                    });
                }
            },
            None => self.partial.push(idx),
        }
        self.next_in_bucket.push(NIL);
        self.seen.push(item);
    }
}

impl<M> Stream<M> {
    /// The members of the bucket under `key`, in insertion order.
    fn bucket(&self, key: &JoinKey) -> impl Iterator<Item = u32> + '_ {
        let mut next = self.buckets.get(key).map_or(NIL, |c| c.head);
        std::iter::from_fn(move || {
            let idx = next;
            (idx != NIL).then(|| {
                next = self.next_in_bucket[idx as usize];
                idx
            })
        })
    }
}

/// The join variables of each pattern: variables shared with at least
/// one other pattern of the variant. Relaxed alternatives only rename
/// rule-introduced *fresh* variables (into per-stream disjoint ranges),
/// so shared variables are exactly the shared variables of the variant
/// patterns themselves.
pub(crate) fn join_vars_of(patterns: &[QPattern]) -> Vec<Vec<VarId>> {
    patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut join_vars: Vec<VarId> = p.vars().collect();
            join_vars.sort_unstable();
            join_vars.dedup();
            join_vars.retain(|v| {
                patterns
                    .iter()
                    .enumerate()
                    .any(|(j, q)| j != i && q.vars().any(|w| w == *v))
            });
            join_vars
        })
        .collect()
}

/// The first variable id beyond every variable used by `patterns`.
pub(crate) fn max_var_of(patterns: &[QPattern]) -> u16 {
    patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m + 1)
}

/// The rank join's per-variant scratch: the variant's constants, a
/// scratch assignment with an undo stack for backtracking, and the
/// items of the combination being built. Created once per variant and
/// reused across its pulls; every [`JoinScratch::join_arrival`] leaves
/// the assignment fully unbound again.
pub(crate) struct JoinScratch<'v> {
    variant_log: f64,
    variant_trace: &'v [RuleId],
    projection: &'v [VarId],
    bindings: Bindings,
    /// Variables bound in `bindings`, in binding order; each level of
    /// the combination unwinds to its own mark.
    undo: Vec<VarId>,
    /// The combination so far: `(stream, item)`, the arrival first,
    /// then one item per other stream in stream order.
    items: Vec<(usize, SeenItem)>,
    /// The arrival's stream, skipped by the combination.
    skip: usize,
}

impl<'v> JoinScratch<'v> {
    /// Scratch for a variant whose patterns use variable ids below
    /// `n_vars`.
    pub(crate) fn new(
        n_vars: usize,
        variant_log: f64,
        variant_trace: &'v [RuleId],
        projection: &'v [VarId],
    ) -> JoinScratch<'v> {
        JoinScratch {
            variant_log,
            variant_trace,
            projection,
            bindings: Bindings::new(n_vars),
            undo: Vec::new(),
            items: Vec::new(),
            skip: 0,
        }
    }

    /// The variant's weight, in log space.
    pub(crate) fn variant_log(&self) -> f64 {
        self.variant_log
    }

    /// Joins one arrival of stream `new_stream` against the other
    /// streams' seen partitions, offering every completed combination
    /// to the collector.
    pub(crate) fn join_arrival<M>(
        &mut self,
        streams: &[Stream<M>],
        new_stream: usize,
        item: SeenItem,
        collector: &mut AnswerCollector,
        metrics: &mut ExecMetrics,
    ) {
        // The scratch starts unbound, so this cannot conflict; defensive.
        if !self.bind(&item.bound, 0) {
            return;
        }
        self.skip = new_stream;
        self.items.clear();
        self.items.push((new_stream, item));
        let score = item.log_score + self.variant_log;
        self.combine(streams, 0, score, collector, metrics);
        self.unwind(0);
    }

    /// Binds an item's pairs into the scratch assignment, recording new
    /// bindings on the undo stack. On conflict, unwinds to `mark` and
    /// returns `false`.
    #[inline]
    fn bind(&mut self, pairs: &BoundPairs, mark: usize) -> bool {
        for (v, t) in pairs.iter() {
            if !self.bindings.try_bind_recorded(v, t, &mut self.undo) {
                self.unwind(mark);
                return false;
            }
        }
        true
    }

    /// Unbinds every variable recorded after `mark`.
    #[inline]
    fn unwind(&mut self, mark: usize) {
        for v in self.undo.drain(mark..) {
            self.bindings.unbind(v);
        }
    }

    /// Depth-first combination over the other streams' seen items. Each
    /// stream is entered through its join-key partition: one hash probe
    /// selects the only bucket whose items can merge with the
    /// accumulated assignment, plus the residual list of items missing
    /// a join variable. If a join variable is still unbound (the
    /// accumulated streams do not cover it), every seen item is a
    /// candidate.
    fn combine<M>(
        &mut self,
        streams: &[Stream<M>],
        idx: usize,
        score: f64,
        collector: &mut AnswerCollector,
        metrics: &mut ExecMetrics,
    ) {
        if idx == streams.len() {
            self.offer(streams, score, collector);
            return;
        }
        if idx == self.skip {
            self.combine(streams, idx + 1, score, collector, metrics);
            return;
        }
        let stream = &streams[idx];
        match JoinKey::of(&stream.join_vars, |v| self.bindings.get(v)) {
            Some(key) => {
                for i in stream.bucket(&key).chain(stream.partial.iter().copied()) {
                    let item = stream.seen[i as usize];
                    self.try_candidate(streams, idx, score, item, collector, metrics);
                }
            }
            None => {
                for &item in &stream.seen {
                    self.try_candidate(streams, idx, score, item, collector, metrics);
                }
            }
        }
    }

    /// Extends the combination with `item` of stream `idx` if it agrees
    /// with the assignment, recursing into the next stream.
    fn try_candidate<M>(
        &mut self,
        streams: &[Stream<M>],
        idx: usize,
        score: f64,
        item: SeenItem,
        collector: &mut AnswerCollector,
        metrics: &mut ExecMetrics,
    ) {
        metrics.join_candidates += 1;
        let mark = self.undo.len();
        if !self.bind(&item.bound, mark) {
            return;
        }
        self.items.push((idx, item));
        self.combine(streams, idx + 1, score + item.log_score, collector, metrics);
        self.items.pop();
        self.unwind(mark);
    }

    /// Offers the completed combination — the one place the join
    /// allocates: the answer's key, bindings and derivation.
    fn offer<M>(&self, streams: &[Stream<M>], score: f64, collector: &mut AnswerCollector) {
        let mut rules: Vec<RuleId> = self.variant_trace.to_vec();
        let mut triples = Vec::with_capacity(self.items.len());
        let mut rule_weight = 1.0;
        for &(s, item) in &self.items {
            let alt = &streams[s].alts[item.alt as usize];
            rules.extend_from_slice(&alt.trace);
            rule_weight *= alt.weight;
            triples.push((alt.pattern, item.triple));
        }
        // Variant weight folds into the derivation weight as well.
        if self.variant_log.is_finite() {
            rule_weight *= self.variant_log.exp();
        }
        collector.offer(Answer {
            key: self.bindings.project(self.projection),
            bindings: self.bindings.clone(),
            score,
            derivation: Derivation {
                triples,
                rules,
                rule_weight,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drive::TopkConfig;
    use crate::exec::merge::{pattern_alternatives, IncrementalMerge};
    use crate::exec::testfix::store;
    use crate::score::PostingCache;
    use std::cell::RefCell;
    use trinit_relax::RuleSet;

    fn stream_over<'s>(
        store: &'s trinit_xkg::XkgStore,
        pattern: QPattern,
        join_vars: Vec<VarId>,
    ) -> Stream<IncrementalMerge<'s>> {
        let alts: Rc<[Alternative]> =
            pattern_alternatives(&pattern, &RuleSet::new(), &TopkConfig::default(), &mut 10).into();
        let cache = Rc::new(RefCell::new(PostingCache::new()));
        let merge = IncrementalMerge::new(store, Rc::clone(&alts), cache, None, true, None);
        Stream::new(merge, alts, join_vars)
    }

    fn pairs(list: &[(VarId, TermId)]) -> BoundPairs {
        let mut out = BoundPairs {
            vars: [VarId(0); 3],
            vals: [NO_TERM; 3],
            len: 0,
        };
        for (i, &(v, t)) in list.iter().enumerate() {
            out.vars[i] = v;
            out.vals[i] = t;
            out.len += 1;
        }
        out
    }

    fn item(bound: BoundPairs, score: f64) -> SeenItem {
        SeenItem {
            bound,
            log_score: score,
            triple: TripleId(0),
            alt: 0,
        }
    }

    fn bucket_of<M: RankSource>(stream: &Stream<M>, key: JoinKey) -> Vec<u32> {
        stream.bucket(&key).collect()
    }

    #[test]
    fn partition_buckets_and_residual_list() {
        // White-box: items binding every join variable land in the
        // keyed bucket (in insertion order); items whose (relaxed)
        // pattern dropped a join variable go to the always-scanned
        // residual list.
        let store = store();
        let p = store.resource("affiliation").unwrap();
        let pattern = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(p), QTerm::Var(VarId(1)));
        let mut stream = stream_over(&store, pattern, vec![VarId(0)]);
        let einstein = store.resource("AlbertEinstein").unwrap();
        let ias = store.resource("IAS").unwrap();
        stream.push_seen(item(pairs(&[(VarId(0), einstein), (VarId(1), ias)]), -0.1));
        stream.push_seen(item(pairs(&[(VarId(1), ias)]), -0.2)); // dropped ?x
        stream.push_seen(item(pairs(&[(VarId(0), ias), (VarId(1), ias)]), -0.25));
        stream.push_seen(item(
            pairs(&[(VarId(0), einstein), (VarId(1), einstein)]),
            -0.3,
        ));
        let key = |t| JoinKey([t, NO_TERM, NO_TERM]);
        assert_eq!(bucket_of(&stream, key(einstein)), vec![0u32, 3]);
        assert_eq!(bucket_of(&stream, key(ias)), vec![2u32]);
        assert_eq!(bucket_of(&stream, key(p)), Vec::<u32>::new(), "absent key");
        assert_eq!(stream.partial, vec![1u32]);
        assert_eq!(stream.best_log, -0.1);

        // Probe keys resolve through the scratch assignment.
        let mut scratch = Bindings::new(4);
        let probe = |b: &Bindings, vars: &[VarId]| JoinKey::of(vars, |v| b.get(v));
        assert_eq!(probe(&scratch, &stream.join_vars), None, "unbound join var");
        scratch.bind(VarId(0), einstein);
        assert_eq!(probe(&scratch, &stream.join_vars), Some(key(einstein)));
        assert_eq!(
            probe(&scratch, &[]),
            Some(JoinKey([NO_TERM; 3])),
            "cross product key"
        );
    }

    #[test]
    fn inline_keys_cover_zero_to_three_join_variables() {
        let store = store();
        let t = |name: &str| store.resource(name).unwrap();
        let (a, b, c) = (t("AlbertEinstein"), t("IAS"), t("MaxPlanck"));
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let full = pairs(&[(x, a), (y, b), (z, c)]);
        let key = |vars: &[VarId], p: &BoundPairs| JoinKey::of(vars, |v| p.get(v));
        // Zero join variables: every item shares the empty key.
        assert_eq!(key(&[], &full), Some(JoinKey([NO_TERM; 3])));
        assert_eq!(key(&[], &pairs(&[])), key(&[], &full));
        // One, two and three join variables, in join-variable order.
        assert_eq!(key(&[y], &full), Some(JoinKey([b, NO_TERM, NO_TERM])));
        assert_eq!(key(&[x, z], &full), Some(JoinKey([a, c, NO_TERM])));
        assert_eq!(key(&[x, y, z], &full), Some(JoinKey([a, b, c])));
        // Keys of the same arity differ when any value differs.
        let other = pairs(&[(x, a), (y, c), (z, c)]);
        assert_ne!(key(&[x, y, z], &full), key(&[x, y, z], &other));
        assert_eq!(key(&[x, z], &full), key(&[x, z], &other));
        // An item that dropped a join variable has no key.
        let dropped = pairs(&[(x, a), (z, c)]);
        assert_eq!(key(&[x, y], &dropped), None);
        assert_eq!(key(&[x, z], &dropped), Some(JoinKey([a, c, NO_TERM])));

        // Equal keys hash equally; the hasher separates the slots.
        let hash = |k: JoinKey| {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(JoinKey([a, b, c])), hash(JoinKey([a, b, c])));
        assert_ne!(hash(JoinKey([a, b, c])), hash(JoinKey([b, a, c])));
        assert_ne!(hash(JoinKey([a, b, c])), hash(JoinKey([a, c, b])));

        // A stream with all three variables joined partitions by the
        // full triple of values.
        let pattern = QPattern::new(QTerm::Var(x), QTerm::Var(y), QTerm::Var(z));
        let mut stream = stream_over(&store, pattern, vec![x, y, z]);
        stream.push_seen(item(full, -0.1));
        stream.push_seen(item(other, -0.2));
        stream.push_seen(item(full, -0.3));
        stream.push_seen(item(dropped, -0.4));
        assert_eq!(bucket_of(&stream, JoinKey([a, b, c])), vec![0u32, 2]);
        assert_eq!(bucket_of(&stream, JoinKey([a, c, c])), vec![1u32]);
        assert_eq!(stream.partial, vec![3u32]);
    }

    #[test]
    fn bind_pairs_dedupes_and_detects_conflicts() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let einstein = store.resource("AlbertEinstein").unwrap();
        let triple = store
            .iter()
            .find(|(_, t)| t.p == aff && t.s == einstein)
            .map(|(id, _)| store.triple(id))
            .unwrap();
        let v = QTerm::Var(VarId(0));
        let w = QTerm::Var(VarId(1));
        let p = BoundPairs::of(&QPattern::new(v, QTerm::Term(aff), w), triple).unwrap();
        let list: Vec<_> = p.iter().collect();
        assert_eq!(list, vec![(VarId(0), einstein), (VarId(1), triple.o)]);
        assert_eq!(p.get(VarId(1)), Some(triple.o));
        assert_eq!(p.get(VarId(2)), None);
        // Repeated variable over distinct slot values: conflict.
        assert!(BoundPairs::of(&QPattern::new(v, QTerm::Term(aff), v), triple).is_none());
        // Repeated variable over equal values binds once.
        let self_loop = Triple {
            s: einstein,
            p: aff,
            o: einstein,
        };
        let once = BoundPairs::of(&QPattern::new(v, w, v), self_loop).unwrap();
        assert_eq!(
            once.iter().collect::<Vec<_>>(),
            vec![(VarId(0), einstein), (VarId(1), aff)]
        );
        // All three slots variable: three pairs.
        let all = BoundPairs::of(&QPattern::new(v, w, QTerm::Var(VarId(2))), triple).unwrap();
        assert_eq!(all.iter().count(), 3);
        // Ground pattern binds nothing.
        let ground = QPattern::new(
            QTerm::Term(triple.s),
            QTerm::Term(triple.p),
            QTerm::Term(triple.o),
        );
        assert_eq!(BoundPairs::of(&ground, triple).unwrap().iter().count(), 0);
    }

    #[test]
    fn seen_items_are_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<SeenItem>();
        assert_copy::<BoundPairs>();
        assert_copy::<JoinKey>();
        assert_copy::<Merged>();
        // Three inline pairs (6 + 12 bytes, a length byte), the score,
        // the triple and the alternative index.
        assert_eq!(std::mem::size_of::<SeenItem>(), 40);
        assert_eq!(std::mem::size_of::<JoinKey>(), 12);
    }
}

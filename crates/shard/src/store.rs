//! The sharded store: N subject-hash-partitioned [`XkgStore`] slices
//! behind one global façade, each a frozen base with a live ingestion
//! delta. A monolithic store is the one-shard case.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use trinit_query::exec::TripleLookup;
use trinit_query::{satisfies_mask, CanonicalPattern, GlobalTotals};
use trinit_relax::ConditionOracle;
use trinit_xkg::{
    GraphTag, Provenance, SegmentLayout, SlotPattern, SourceId, TermDict, TermId, TermKind, Triple,
    TripleId, XkgBuilder, XkgStore,
};

/// N subject-hash-partitioned store shards sharing one term dictionary,
/// plus the global aggregates partitioned execution needs: per-predicate
/// and whole-store emission-weight totals (frozen at build time) and a
/// memo of scanned totals for pattern shapes that span shards.
///
/// Triple ids exposed by this type are **global**: shard `i`'s local id
/// `t` maps to `offsets[i] + t`. Term and source ids need no mapping —
/// the shards share one dictionary and source table.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<XkgStore>,
    /// Shard `i`'s base in the global triple-id space.
    offsets: Vec<u32>,
    /// Tie rank of each base triple, per shard by local id: the id the
    /// monolithic store over the same builder gives it (see
    /// [`TripleLookup::tie_ranks`]). Empty when the ranks are the
    /// global ids: one shard, or shards wrapped without their builder.
    ranks: Vec<Vec<u32>>,
    /// Emission-weight total per predicate over the *base* shards
    /// (frozen at build time; delta contributions live in
    /// [`ShardedStore::delta_pred_totals`]).
    pred_totals: HashMap<TermId, f64>,
    /// Emission-weight total of the base shards.
    global_total: f64,
    /// Union of the base shards' predicates, ascending by term id.
    predicates: Vec<TermId>,
    len: usize,
    kg_len: usize,
    /// Memoized cross-shard totals for non-precomputed shapes
    /// (object-bound and repeated-variable patterns). Cleared on every
    /// mutation — memoized totals span the delta slices.
    totals_memo: Mutex<HashMap<CanonicalPattern, f64>>,
    /// Accumulates ingested triples between compactions. Its dictionary
    /// and source table are supersets of the shards' (same ids).
    delta: XkgBuilder,
    /// The delta re-frozen into subject-hash-partitioned views (same
    /// partitioning as the base shards, so subject co-location holds
    /// per segment pair); empty while the delta is empty.
    delta_views: Vec<XkgStore>,
    /// Delta view `i`'s base in the global triple-id space (delta ids
    /// follow every base id).
    delta_offsets: Vec<u32>,
    /// Tie rank of each delta triple, per view by local id: the base
    /// length plus its position in the delta, as a monolithic store's
    /// delta numbers it.
    delta_ranks: Vec<Vec<u32>>,
    /// Emission-weight total per predicate over the delta views.
    delta_pred_totals: HashMap<TermId, f64>,
    /// Emission-weight total of the delta views.
    delta_global_total: f64,
    /// Distinct triples in the delta, and how many are KG-stratum.
    delta_len: usize,
    delta_kg_len: usize,
    /// Provenance merges for re-observed *base* triples, keyed by the
    /// global base id; applied at the next compaction.
    pending: Vec<(TripleId, Provenance)>,
    /// Bumped on every mutation (ingest or compact). Caches stamp
    /// entries with this and drop them when it moves.
    generation: u64,
    /// Wall time of the most recent ingest batch, in nanoseconds (`0`
    /// before the first ingest).
    last_ingest_ns: u64,
    /// Wall time of the most recent compaction, in nanoseconds (`0`
    /// before the first compaction).
    last_compact_ns: u64,
}

impl ShardedStore {
    /// Freezes `builder` into `shards` subject-hash-partitioned slices
    /// (see [`XkgBuilder::build_sharded`]) and aggregates the global
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build(builder: XkgBuilder, shards: usize) -> ShardedStore {
        ShardedStore::build_with(builder, shards, SegmentLayout::Flat)
    }

    /// [`ShardedStore::build`] with an explicit physical layout for the
    /// frozen base shards (`Packed` trades decode work for ~3–4× fewer
    /// index bytes; answers are identical bit for bit). The layout
    /// survives compaction; delta views are always rebuilt `Flat`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build_with(builder: XkgBuilder, shards: usize, layout: SegmentLayout) -> ShardedStore {
        let ranks = if shards > 1 {
            partition_ranks(builder.triples(), shards, 0)
        } else {
            Vec::new()
        };
        let mut store = ShardedStore::from_shards(builder.build_sharded_with(shards, layout));
        store.ranks = ranks;
        store
    }

    /// Wraps already-built shards. They must share one term dictionary —
    /// i.e. come from one [`XkgBuilder::build_sharded`] call. Without the
    /// builder the single-store order is unknown, so tie ranks follow
    /// the global ids.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards do not share a
    /// dictionary.
    pub fn from_shards(shards: Vec<XkgStore>) -> ShardedStore {
        assert!(!shards.is_empty(), "at least one shard required");
        let dict = shards[0].dict_handle();
        for shard in &shards[1..] {
            assert!(
                Arc::ptr_eq(&dict, &shard.dict_handle()),
                "shards must share one term dictionary"
            );
        }
        let mut offsets = Vec::with_capacity(shards.len());
        let mut base: u64 = 0;
        for shard in &shards {
            // lint:allow(no-panic-hot-path): construction-time capacity guard — the global triple-id space is u32 by design
            let offset = u32::try_from(base).expect("global triple-id overflow");
            offsets.push(offset);
            base += shard.len() as u64;
        }
        let mut pred_totals: HashMap<TermId, f64> = HashMap::new();
        let mut global_total = 0.0;
        for shard in &shards {
            let index = shard.posting_index();
            for &p in shard.predicates() {
                *pred_totals.entry(p).or_insert(0.0) += index.predicate_total_weight(p);
            }
            global_total += index.total_weight();
        }
        let mut predicates: Vec<TermId> = pred_totals.keys().copied().collect();
        predicates.sort_unstable();
        let len = shards.iter().map(XkgStore::len).sum();
        let kg_len = shards.iter().map(|s| s.len_of(GraphTag::Kg)).sum();
        let delta = XkgBuilder::with_context(shards[0].dict().clone(), shards[0].sources());
        ShardedStore {
            shards,
            offsets,
            ranks: Vec::new(),
            pred_totals,
            global_total,
            predicates,
            len,
            kg_len,
            totals_memo: Mutex::new(HashMap::new()),
            delta,
            delta_views: Vec::new(),
            delta_offsets: Vec::new(),
            delta_ranks: Vec::new(),
            delta_pred_totals: HashMap::new(),
            delta_global_total: 0.0,
            delta_len: 0,
            delta_kg_len: 0,
            pending: Vec::new(),
            generation: 0,
            last_ingest_ns: 0,
            last_compact_ns: 0,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard slices.
    #[inline]
    pub fn shards(&self) -> &[XkgStore] {
        &self.shards
    }

    /// One shard slice.
    #[inline]
    pub fn shard(&self, i: usize) -> &XkgStore {
        &self.shards[i]
    }

    /// The frozen base of shard 0: the whole frozen base of a one-shard
    /// store.
    #[inline]
    pub fn base(&self) -> &XkgStore {
        &self.shards[0]
    }

    /// The store's only slice, when it has exactly one: one shard and no
    /// live delta. A query over it is a query over one frozen
    /// [`XkgStore`], so the monolithic engines answer it directly.
    #[inline]
    pub fn single_slice(&self) -> Option<&XkgStore> {
        (self.shards.len() == 1 && self.delta_views.is_empty()).then(|| &self.shards[0])
    }

    /// Per-shard bases in the global triple-id space.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Total number of distinct triples across shards and the delta.
    #[inline]
    pub fn len(&self) -> usize {
        self.len + self.delta_len
    }

    /// True if neither the shards nor the delta hold a triple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct triples in a stratum, across shards and the
    /// delta.
    pub fn len_of(&self, graph: GraphTag) -> usize {
        match graph {
            GraphTag::Kg => self.kg_len + self.delta_kg_len,
            GraphTag::Xkg => (self.len - self.kg_len) + (self.delta_len - self.delta_kg_len),
        }
    }

    /// The shared term dictionary of the frozen base shards. Terms
    /// interned by ingestion live only in the delta's superset
    /// dictionary — resolve vocabulary through
    /// [`ShardedStore::vocab`] instead when a delta may be live.
    #[inline]
    pub fn dict(&self) -> &TermDict {
        self.shards[0].dict()
    }

    /// The store to resolve vocabulary against: a delta view when the
    /// delta is non-empty (its dictionary is a superset of the base's,
    /// with identical ids for shared terms), base shard 0 otherwise.
    #[inline]
    pub fn vocab(&self) -> &XkgStore {
        self.delta_views.first().unwrap_or(&self.shards[0])
    }

    /// Looks up an existing resource term by name (either segment's
    /// vocabulary).
    pub fn resource(&self, name: &str) -> Option<TermId> {
        self.vocab().dict().get(TermKind::Resource, name)
    }

    /// Looks up an existing token term by phrase (either segment's
    /// vocabulary).
    pub fn token(&self, phrase: &str) -> Option<TermId> {
        self.vocab().dict().get(TermKind::Token, phrase)
    }

    /// Looks up an existing literal term by value (either segment's
    /// vocabulary).
    pub fn literal(&self, value: &str) -> Option<TermId> {
        self.vocab().dict().get(TermKind::Literal, value)
    }

    /// Union of the *base* shards' predicates, ascending by term id
    /// (predicates introduced by ingestion join at compaction).
    #[inline]
    pub fn predicates(&self) -> &[TermId] {
        &self.predicates
    }

    /// Global emission-weight total of one predicate's match set,
    /// across the base shards and the delta.
    pub fn predicate_total_weight(&self, p: TermId) -> f64 {
        self.pred_totals.get(&p).copied().unwrap_or(0.0)
            + self.delta_pred_totals.get(&p).copied().unwrap_or(0.0)
    }

    /// Resolves a *base-segment* global triple id to
    /// `(shard index, local id)`. Delta ids (at and above the base
    /// total) resolve through the triple accessors instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range of the base segment.
    pub fn resolve(&self, id: TripleId) -> (usize, TripleId) {
        let shard = self.offsets.partition_point(|&base| base <= id.0) - 1;
        let local = TripleId(id.0 - self.offsets[shard]);
        assert!(
            local.idx() < self.shards[shard].len(),
            "triple id {id:?} not issued by this store's base segment"
        );
        (shard, local)
    }

    /// Resolves any global triple id — base or delta — to its slice and
    /// slice-local id.
    fn slice_of(&self, id: TripleId) -> (&XkgStore, TripleId) {
        if (id.0 as usize) < self.len {
            let (shard, local) = self.resolve(id);
            return (&self.shards[shard], local);
        }
        assert!(
            !self.delta_views.is_empty(),
            "triple id {id:?} not issued by this store"
        );
        let i = self.delta_offsets.partition_point(|&base| base <= id.0) - 1;
        let local = TripleId(id.0 - self.delta_offsets[i]);
        assert!(
            local.idx() < self.delta_views[i].len(),
            "triple id {id:?} not issued by this store"
        );
        (&self.delta_views[i], local)
    }

    /// The global id of shard `i`'s local triple `t`.
    #[inline]
    pub fn global_id(&self, shard: usize, local: TripleId) -> TripleId {
        TripleId(self.offsets[shard] + local.0)
    }

    /// The triple with the given global id (base or delta).
    pub fn triple(&self, id: TripleId) -> Triple {
        let (slice, local) = self.slice_of(id);
        slice.triple(local)
    }

    /// Provenance of the triple with the given global id (base or
    /// delta).
    pub fn provenance(&self, id: TripleId) -> &Provenance {
        let (slice, local) = self.slice_of(id);
        slice.provenance(local)
    }

    /// Resolves a source id to its document identifier (the delta's
    /// source table is a superset of the shared base table).
    pub fn source_name(&self, id: SourceId) -> Option<&str> {
        self.vocab().source_name(id)
    }

    /// Renders a term for display (superset delta dictionary when one
    /// is live).
    pub fn display_term(&self, id: TermId) -> String {
        self.vocab().display_term(id)
    }

    /// Renders a triple with a global id in `S P O` form.
    pub fn display_triple(&self, id: TripleId) -> String {
        let (slice, local) = self.slice_of(id);
        slice.display_triple(local)
    }

    /// Exact number of triples matching `pattern`, across shards and
    /// the delta.
    pub fn count(&self, pattern: &SlotPattern) -> usize {
        match pattern.s {
            // Subject-bound patterns are co-located per segment: the
            // home base shard plus the home delta view.
            Some(s) => {
                let home = s.shard_of(self.shards.len());
                self.shards[home].count(pattern)
                    + self.delta_views.get(home).map_or(0, |v| v.count(pattern))
            }
            None => {
                self.shards.iter().map(|sh| sh.count(pattern)).sum::<usize>()
                    + self.delta_views.iter().map(|v| v.count(pattern)).sum::<usize>()
            }
        }
    }

    /// One slice's total emission weight for a (mask-filtered) pattern:
    /// the reference scan of lookup + repetition mask + provenance
    /// weights.
    fn slice_total(slice: &XkgStore, slot: &SlotPattern, mask: u8) -> f64 {
        slice
            .lookup(slot)
            .iter()
            .filter(|&&id| mask == 0 || satisfies_mask(slice, id, mask))
            .map(|&id| slice.provenance(id).weight())
            .sum()
    }

    /// Cross-shard total emission weight of a canonical pattern's
    /// (mask-filtered) match set — the slow path behind
    /// [`GlobalTotals::pattern_total`], memoized per store generation
    /// (the memo is cleared on every mutation). Spans the delta views.
    fn scan_total(&self, key: &CanonicalPattern) -> f64 {
        let (slot, mask) = *key;
        self.shards
            .iter()
            .chain(&self.delta_views)
            .map(|slice| ShardedStore::slice_total(slice, &slot, mask))
            .sum()
    }

    /// True if an ingested, not-yet-compacted delta is live. While it
    /// is, execution unions the delta views into the merge and global
    /// totals are explicit for every shape (subject matches split
    /// between a subject's home base shard and its home delta view).
    #[inline]
    pub fn has_delta(&self) -> bool {
        !self.delta_views.is_empty()
    }

    /// Number of triples currently in the delta segment.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.delta_len
    }

    /// Number of provenance merges queued for the next compaction.
    #[inline]
    pub fn pending_absorbs(&self) -> usize {
        self.pending.len()
    }

    /// The store generation: bumped by every [`ShardedStore::ingest`]
    /// and [`ShardedStore::compact`]. Two reads under the same
    /// generation observe an identical store.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The non-empty delta views with their global-id bases, in
    /// global-id order — the extra merge slices partitioned execution
    /// appends after the base shards.
    pub fn delta_slices(&self) -> impl Iterator<Item = (&XkgStore, u32)> {
        self.delta_views
            .iter()
            .zip(self.delta_offsets.iter().copied())
            .filter(|(view, _)| !view.is_empty())
    }

    /// Ingests a batch of triples: `fill` appends into a scratch
    /// builder whose dictionary/source table extend the current
    /// vocabulary, and the batch lands in the delta, which is re-frozen
    /// into subject-hash-partitioned views (the base shards are never
    /// rebuilt). Returns the number of *new* triples appended;
    /// re-observations of base triples are queued as pending provenance
    /// absorbs (applied at the next [`ShardedStore::compact`]), and
    /// re-observations of delta triples merge in place.
    pub fn ingest(&mut self, fill: impl FnOnce(&mut XkgBuilder)) -> usize {
        let ingest_start = trinit_obs::now_ns();
        let mut scratch = XkgBuilder::with_context(self.delta.dict().clone(), self.delta.sources());
        fill(&mut scratch);
        // Rebuild the delta under the scratch's (possibly grown)
        // dictionary so batch-interned terms resolve in the delta views.
        let mut next = XkgBuilder::with_context(scratch.dict().clone(), scratch.sources());
        for (t, p) in self.delta.triples().iter().zip(self.delta.provenances()) {
            next.add(*t, p.clone());
        }
        let n = self.shards.len();
        let mut appended = 0;
        for (t, p) in scratch.triples().iter().zip(scratch.provenances()) {
            let home = t.s.shard_of(n);
            let ground = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
            if let Some(&local) = self.shards[home].lookup(&ground).first() {
                self.pending
                    .push((TripleId(self.offsets[home] + local.0), p.clone()));
            } else if next.add(*t, p.clone()).idx() == next.len() - 1 {
                appended += 1;
            }
        }
        self.delta = next;
        self.rebuild_delta_views();
        self.invalidate_memo();
        self.generation += 1;
        self.last_ingest_ns = trinit_obs::now_ns().saturating_sub(ingest_start);
        appended
    }

    /// Re-freezes the delta into the base shards: base triples, pending
    /// provenance absorbs, and delta triples merge into fresh
    /// subject-hash-partitioned shards with rebuilt strata and
    /// aggregates, and the delta empties. Global triple ids are
    /// reassigned.
    pub fn compact(&mut self) {
        let compact_start = trinit_obs::now_ns();
        let n = self.shards.len();
        let mut merged = XkgBuilder::with_context(self.delta.dict().clone(), self.delta.sources());
        // Base triples re-enter in tie-rank order (each shard's ranks
        // ascend by local id), so the compacted store's ranks keep the
        // single-store order: base, then delta. Without a rank table
        // that order is the global-id order.
        if self.ranks.is_empty() {
            for shard in &self.shards {
                for (id, t) in shard.iter() {
                    merged.add(t, shard.provenance(id).clone());
                }
            }
        } else {
            let mut cursors = vec![0usize; n];
            while let Some(s) = (0..n)
                .filter(|&s| cursors[s] < self.ranks[s].len())
                .min_by_key(|&s| self.ranks[s][cursors[s]])
            {
                let local = TripleId(cursors[s] as u32);
                merged.add(
                    self.shards[s].triple(local),
                    self.shards[s].provenance(local).clone(),
                );
                cursors[s] += 1;
            }
        }
        for (gid, prov) in std::mem::take(&mut self.pending) {
            let (shard, local) = self.resolve(gid);
            merged.add(self.shards[shard].triple(local), prov);
        }
        for (t, p) in self.delta.triples().iter().zip(self.delta.provenances()) {
            merged.add(*t, p.clone());
        }
        let generation = self.generation + 1;
        let last_ingest_ns = self.last_ingest_ns;
        // Compaction re-freezes into the base shards' configured layout
        // (delta views stay Flat — see `rebuild_delta_views`).
        let layout = self.shards[0].layout();
        // `merged` holds every triple now. Releasing the old slices
        // before the new ones freeze lets the freeze reuse their memory;
        // keeping them alive until the swap fragmented the heap and
        // slowed later ingests and queries by about a fifth on the
        // `ingest` benchmark workload.
        self.shards.clear();
        self.delta_views.clear();
        self.delta = XkgBuilder::new();
        *self = ShardedStore::build_with(merged, n, layout);
        self.generation = generation;
        self.last_ingest_ns = last_ingest_ns;
        self.last_compact_ns = trinit_obs::now_ns().saturating_sub(compact_start);
    }

    /// Wall time of the most recent ingest batch, in nanoseconds (`0`
    /// before the first ingest).
    #[inline]
    pub fn last_ingest_ns(&self) -> u64 {
        self.last_ingest_ns
    }

    /// Wall time of the most recent compaction, in nanoseconds (`0`
    /// before the first compaction).
    #[inline]
    pub fn last_compact_ns(&self) -> u64 {
        self.last_compact_ns
    }

    /// Re-freezes the delta builder into partitioned views and
    /// recomputes the delta-side aggregates. The old views stay alive
    /// until the new ones are built: freeing them first made one-shard
    /// ingests on the `ingest` benchmark workload about 7% slower.
    fn rebuild_delta_views(&mut self) {
        self.delta_offsets.clear();
        self.delta_ranks.clear();
        self.delta_pred_totals.clear();
        self.delta_global_total = 0.0;
        self.delta_len = self.delta.len();
        self.delta_kg_len = self
            .delta
            .provenances()
            .iter()
            .filter(|p| p.graph == GraphTag::Kg)
            .count();
        if self.delta.is_empty() {
            self.delta_views.clear();
            return;
        }
        if self.shards.len() > 1 {
            let base_len = u32::try_from(self.len).unwrap_or(u32::MAX);
            self.delta_ranks = partition_ranks(self.delta.triples(), self.shards.len(), base_len);
        }
        let views = self.delta.clone().build_sharded(self.shards.len());
        let mut base = self.len as u64;
        for view in &views {
            // lint:allow(no-panic-hot-path): ingestion-time capacity guard — the global triple-id space is u32 by design
            let offset = u32::try_from(base).expect("global triple-id overflow");
            self.delta_offsets.push(offset);
            base += view.len() as u64;
            let index = view.posting_index();
            for &p in view.predicates() {
                *self.delta_pred_totals.entry(p).or_insert(0.0) +=
                    index.predicate_total_weight(p);
            }
            self.delta_global_total += index.total_weight();
        }
        self.delta_views = views;
    }

    /// Drops every memoized cross-shard total — they embed delta mass,
    /// which just changed. Poison is cleared the same way
    /// [`GlobalTotals::pattern_total`] recovers it.
    fn invalidate_memo(&mut self) {
        match self.totals_memo.get_mut() {
            Ok(memo) => memo.clear(),
            Err(poisoned) => {
                poisoned.into_inner().clear();
                self.totals_memo.clear_poison();
            }
        }
    }
}

impl GlobalTotals for ShardedStore {
    fn pattern_total(&self, key: &CanonicalPattern) -> Option<f64> {
        if self.single_slice().is_some() {
            // One slice: local is global for every shape.
            return None;
        }
        let (slot, mask) = *key;
        if let Some(s) = slot.s {
            if self.delta_views.is_empty() {
                // Subject-bound, frozen: all matches are co-located, so
                // the shard's local total is already the global total.
                return None;
            }
            // With a live delta the subject's matches split between its
            // home base shard and its home delta view, so the total
            // must be explicit.
            let home = s.shard_of(self.shards.len());
            let delta_view = &self.delta_views[home];
            if mask == 0 && slot.p.is_none() && slot.o.is_none() {
                return Some(
                    self.shards[home].subject_total_weight(s)
                        + delta_view.subject_total_weight(s),
                );
            }
            return Some(
                ShardedStore::slice_total(&self.shards[home], &slot, mask)
                    + ShardedStore::slice_total(delta_view, &slot, mask),
            );
        }
        if mask == 0 {
            match (slot.p, slot.o) {
                (Some(p), None) => return Some(self.predicate_total_weight(p)),
                (None, None) => return Some(self.global_total + self.delta_global_total),
                // Object-anchored: each slice's object-group total is an
                // O(log n) prefix-sum read, so the global total is a sum
                // over slices instead of a memoized cross-shard scan —
                // and the shard-local lists themselves stay borrowed
                // slices (no per-shard materialization for anchored
                // lookups).
                (None, Some(o)) => {
                    return Some(
                        self.shards
                            .iter()
                            .chain(&self.delta_views)
                            .map(|sh| sh.object_total_weight(o))
                            .sum(),
                    )
                }
                _ => {}
            }
        }
        // Poison recovery: a panicking holder can at worst have left a
        // partially inserted memo entry; entries are immutable once
        // written and derived purely from the frozen store, so the memo
        // is dropped wholesale (totals recompute on demand) rather than
        // trusted — a cache-warmth loss, never an abort.
        let mut memo = match self.totals_memo.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.totals_memo.clear_poison();
                guard
            }
        };
        if let Some(&t) = memo.get(key) {
            return Some(t);
        }
        let t = self.scan_total(key);
        memo.insert(*key, t);
        Some(t)
    }
}

impl ConditionOracle for ShardedStore {
    fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool {
        // Subject-hash partitioning: a ground triple can only live in
        // its subject's base shard or its subject's delta view.
        let shard = s.shard_of(self.shards.len());
        let slot = SlotPattern::new(Some(s), Some(p), Some(o));
        self.shards[shard].count(&slot) > 0
            || self
                .delta_views
                .get(shard)
                .is_some_and(|v| v.count(&slot) > 0)
    }
}

impl TripleLookup for ShardedStore {
    #[inline]
    fn triple_of(&self, id: TripleId) -> Triple {
        self.triple(id)
    }

    fn tie_ranks(&self, offset: u32) -> Option<&[u32]> {
        // Empty slices share their successor's offset; the last slice
        // at an offset is the one that can hold triples.
        let (offsets, ranks) = if (offset as usize) < self.len {
            (&self.offsets, &self.ranks)
        } else {
            (&self.delta_offsets, &self.delta_ranks)
        };
        let i = offsets.partition_point(|&base| base <= offset).checked_sub(1)?;
        ranks.get(i).map(Vec::as_slice)
    }
}

/// Each triple's tie rank (`base` plus its builder id), grouped per
/// subject-hash shard in local-id order — the same partition
/// [`XkgBuilder::build_sharded`] applies.
fn partition_ranks(triples: &[Triple], shards: usize, base: u32) -> Vec<Vec<u32>> {
    let mut ranks = vec![Vec::new(); shards];
    for (rank, t) in (base..).zip(triples) {
        ranks[t.s.shard_of(shards)].push(rank);
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_query::QPattern;
    use trinit_relax::{QTerm, VarId};

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..30u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{i}"));
            b.add_kg_resources(&format!("s{i}"), "q", "hub");
        }
        let src = b.intern_source("doc");
        for i in 0..10u32 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            let p = b.dict_mut().token("linked to");
            let o = b.dict_mut().resource(&format!("s{}", (i + 1) % 10));
            b.add_extracted(s, p, o, 0.5 + (i % 4) as f32 * 0.1, src);
        }
        // A self-loop for repeated-variable totals.
        b.add_kg_resources("loop", "p", "loop");
        b
    }

    #[test]
    fn global_aggregates_match_monolith() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 4);
        assert_eq!(sharded.len(), single.len());
        assert_eq!(sharded.len_of(GraphTag::Kg), single.len_of(GraphTag::Kg));
        assert_eq!(sharded.predicates(), single.predicates());
        let idx = single.posting_index();
        assert!((sharded.global_total - idx.total_weight()).abs() < 1e-9);
        for &p in single.predicates() {
            assert!(
                (sharded.predicate_total_weight(p) - idx.predicate_total_weight(p)).abs() < 1e-9,
                "predicate total diverges"
            );
        }
    }

    /// The tie rank of a global id, read the way the sharded merge reads
    /// it: through its slice's rank table.
    fn tie_rank(sharded: &ShardedStore, gid: TripleId) -> u32 {
        let slices: Vec<(u32, usize)> = (0..sharded.shard_count())
            .map(|i| (sharded.offsets()[i], sharded.shard(i).len()))
            .chain(sharded.delta_slices().map(|(view, offset)| (offset, view.len())))
            .collect();
        let &(offset, _) = slices
            .iter()
            .find(|&&(offset, len)| offset <= gid.0 && gid.0 < offset + len as u32)
            .expect("id in some slice");
        // Without a rank table the ranks are the global ids.
        sharded
            .tie_ranks(offset)
            .map_or(gid.0, |ranks| ranks[(gid.0 - offset) as usize])
    }

    /// Asserts every triple's tie rank is its id in `mono`, base shards
    /// and delta views alike, and that the ranks cover `mono` exactly.
    fn assert_ranks_are_monolithic_ids(sharded: &ShardedStore, mono: &XkgStore) {
        let base = (0..sharded.shard_count()).flat_map(|i| {
            let offset = sharded.offsets()[i];
            (0..sharded.shard(i).len() as u32).map(move |t| TripleId(offset + t))
        });
        let delta = sharded
            .delta_slices()
            .flat_map(|(view, offset)| (0..view.len() as u32).map(move |t| TripleId(offset + t)));
        let mut ranks = Vec::new();
        for gid in base.chain(delta) {
            let rank = tie_rank(sharded, gid);
            assert_eq!(mono.triple(TripleId(rank)), sharded.triple(gid), "{gid:?}");
            ranks.push(rank);
        }
        ranks.sort_unstable();
        assert_eq!(ranks, (0..mono.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn tie_ranks_are_monolithic_ids_through_ingest_and_compaction() {
        let batch = |b: &mut XkgBuilder| {
            for i in 30..40u32 {
                b.add_kg_resources(&format!("s{i}"), "q", "hub");
            }
        };
        let mut union = builder();
        batch(&mut union);
        let union = union.build();
        for shards in [1usize, 2, 3, 7] {
            let mut sharded = ShardedStore::build(builder(), shards);
            assert_ranks_are_monolithic_ids(&sharded, &builder().build());
            assert_eq!(sharded.ingest(batch), 10);
            assert_ranks_are_monolithic_ids(&sharded, &union);
            sharded.compact();
            assert_ranks_are_monolithic_ids(&sharded, &union);
        }
    }

    /// An ingest batch of fresh subjects under a fresh predicate: it
    /// interns terms the base does not know.
    fn ingest_names(b: &mut XkgBuilder) {
        for i in 0..6u32 {
            b.add_kg_resources(&format!("fresh{i}"), "new", "hub");
        }
        let s = b.dict_mut().resource("s1");
        let p = b.dict_mut().token("linked to");
        let o = b.dict_mut().resource("fresh0");
        let src = b.intern_source("delta-doc");
        b.add_extracted(s, p, o, 0.9, src);
    }

    /// Every slice's (triple, weight) matches of `pattern`, sorted.
    fn matches(slices: &[&XkgStore], pattern: &SlotPattern) -> Vec<(Triple, u64)> {
        let mut out: Vec<(Triple, u64)> = slices
            .iter()
            .flat_map(|slice| {
                slice
                    .lookup(pattern)
                    .iter()
                    .map(|&id| (slice.triple(id), slice.provenance(id).weight().to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }

    /// Compaction re-freezes the base into its configured layout: a
    /// Packed base stays Packed (delta views are always Flat), and the
    /// compacted store serves the rebuilt store's matches.
    #[test]
    fn packed_base_stays_packed_through_compact() {
        let mut union = builder();
        ingest_names(&mut union);
        let union = union.build();
        for shards in [1usize, 2] {
            let mut sharded = ShardedStore::build_with(builder(), shards, SegmentLayout::Packed);
            assert!(sharded.shards().iter().all(|s| !s.layout().is_flat()));
            sharded.ingest(ingest_names);
            assert!(sharded
                .delta_slices()
                .all(|(view, _)| view.layout().is_flat()));
            sharded.compact();
            assert!(
                sharded.shards().iter().all(|s| !s.layout().is_flat()),
                "compact must keep the base Packed"
            );
            let s1 = union.resource("s1");
            let hub = union.resource("hub");
            let base: Vec<&XkgStore> = sharded.shards().iter().collect();
            for pattern in [
                SlotPattern::any(),
                SlotPattern::new(s1, None, None),
                SlotPattern::new(None, None, hub),
                SlotPattern::with_p(union.resource("new").unwrap()),
            ] {
                assert_eq!(
                    matches(&base, &pattern),
                    matches(&[&union], &pattern),
                    "{pattern}"
                );
            }
        }
    }

    #[test]
    fn global_ids_resolve_across_shards() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 3);
        let mut seen = 0usize;
        for shard_idx in 0..sharded.shard_count() {
            for (local, t) in sharded.shard(shard_idx).iter().collect::<Vec<_>>() {
                let gid = sharded.global_id(shard_idx, local);
                assert_eq!(sharded.resolve(gid), (shard_idx, local));
                assert_eq!(sharded.triple(gid), t);
                assert_eq!(sharded.triple_of(gid), t);
                // Display and provenance agree with the monolith.
                let slot = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
                let mono_id = single.lookup(&slot)[0];
                assert_eq!(sharded.display_triple(gid), single.display_triple(mono_id));
                assert_eq!(
                    sharded.provenance(gid).weight(),
                    single.provenance(mono_id).weight()
                );
                seen += 1;
            }
        }
        assert_eq!(seen, single.len());
    }

    #[test]
    fn condition_oracle_agrees_with_monolith() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 5);
        let p = single.resource("p").unwrap();
        let q = single.resource("q").unwrap();
        for i in 0..30u32 {
            let s = single.resource(&format!("s{i}")).unwrap();
            let o = single.resource(&format!("o{i}")).unwrap();
            let hub = single.resource("hub").unwrap();
            assert!(sharded.ground_holds(s, p, o));
            assert!(sharded.ground_holds(s, q, hub));
            assert!(!sharded.ground_holds(s, q, o));
        }
    }

    #[test]
    fn pattern_totals_are_global() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 4);
        let p = single.resource("p").unwrap();
        let v0 = QTerm::Var(VarId(0));
        let v1 = QTerm::Var(VarId(1));
        // Predicate-only: O(1) precomputed aggregate.
        let key = trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(p), v1));
        let expected = single.posting_index().predicate_total_weight(p);
        assert!((sharded.pattern_total(&key).unwrap() - expected).abs() < 1e-9);
        // Object-bound: memoized cross-shard scan.
        let hub = single.resource("hub").unwrap();
        let q = single.resource("q").unwrap();
        let obj_key =
            trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(q), QTerm::Term(hub)));
        let direct: f64 = single
            .lookup(&SlotPattern::new(None, Some(q), Some(hub)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&obj_key).unwrap() - direct).abs() < 1e-9);
        // Memo hit returns the same value.
        assert_eq!(
            sharded.pattern_total(&obj_key),
            sharded.pattern_total(&obj_key)
        );
        // Object-anchored (o-only): summed from the shards' O(log n)
        // object-group prefix columns, no scan.
        let hub_only_key =
            trinit_query::canonical_pattern(&QPattern::new(v0, v1, QTerm::Term(hub)));
        let direct_o: f64 = single
            .lookup(&SlotPattern::new(None, None, Some(hub)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&hub_only_key).unwrap() - direct_o).abs() < 1e-9);
        // Repeated-variable (self-loop) shape: filtered scan.
        let rep_key = trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(p), v0));
        let loop_s = single.resource("loop").unwrap();
        let loop_weight: f64 = single
            .lookup(&SlotPattern::new(Some(loop_s), Some(p), Some(loop_s)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&rep_key).unwrap() - loop_weight).abs() < 1e-9);
        // Subject-bound: local is global.
        let s0 = single.resource("s0").unwrap();
        let sub_key =
            trinit_query::canonical_pattern(&QPattern::new(QTerm::Term(s0), QTerm::Term(p), v1));
        assert_eq!(sharded.pattern_total(&sub_key), None);
    }

    #[test]
    fn counts_aggregate_across_shards() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 3);
        let p = single.resource("p").unwrap();
        assert_eq!(
            sharded.count(&SlotPattern::with_p(p)),
            single.count(&SlotPattern::with_p(p))
        );
        let s3 = single.resource("s3").unwrap();
        assert_eq!(
            sharded.count(&SlotPattern::new(Some(s3), None, None)),
            single.count(&SlotPattern::new(Some(s3), None, None))
        );
        assert_eq!(sharded.count(&SlotPattern::any()), single.len());
    }
}

//! The segmented store — a frozen base plus one live ingestion delta —
//! is the one-shard [`ShardedStore`](crate::ShardedStore). These tests
//! pin its base/delta behaviour at one shard, and at more where the
//! behaviour is shard-independent.

mod tests {
    use crate::ShardedStore;
    use trinit_xkg::{GraphTag, PostingList, SlotPattern, Triple, TripleId, XkgBuilder, XkgStore};

    fn base_builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..12u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 4));
            if i % 3 == 0 {
                let s = b.dict_mut().resource(&format!("s{i}"));
                let p = b.dict_mut().token("close to");
                let o = b.dict_mut().resource(&format!("o{}", (i + 1) % 4));
                let src = b.intern_source(&format!("doc{i}"));
                b.add_extracted(s, p, o, 0.4 + (i % 5) as f32 * 0.1, src);
            }
        }
        b
    }

    fn ingest_batch(b: &mut XkgBuilder) {
        for i in 12..18u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 4));
        }
        let s = b.dict_mut().resource("s1");
        let p = b.dict_mut().token("linked to");
        let o = b.dict_mut().resource("fresh");
        let src = b.intern_source("delta-doc");
        b.add_extracted(s, p, o, 0.9, src);
    }

    /// The union store every segmented query must agree with: base and
    /// batch rebuilt from scratch as one monolithic store.
    fn rebuilt_union() -> XkgStore {
        let mut b = base_builder();
        ingest_batch(&mut b);
        b.build()
    }

    fn segmented(shards: usize) -> ShardedStore {
        let mut seg = ShardedStore::build(base_builder(), shards);
        seg.ingest(ingest_batch);
        seg
    }

    /// Multiset of (triple, weight) a pattern matches in a store,
    /// via the reference scan path.
    fn scan_set(store: &XkgStore, pattern: &SlotPattern) -> Vec<(Triple, u64)> {
        let list = PostingList::build_by_scan(store, pattern);
        let mut out: Vec<(Triple, u64)> = list
            .entries()
            .iter()
            .map(|e| (store.triple(e.triple), e.weight.to_bits()))
            .collect();
        out.sort();
        out
    }

    fn all_shapes(store: &XkgStore) -> Vec<SlotPattern> {
        let s = store.resource("s1").unwrap();
        let p = store.resource("p").unwrap();
        let o = store.resource("o1").unwrap();
        vec![
            SlotPattern::new(None, None, None),
            SlotPattern::new(Some(s), None, None),
            SlotPattern::new(None, Some(p), None),
            SlotPattern::new(None, None, Some(o)),
            SlotPattern::new(Some(s), Some(p), None),
            SlotPattern::new(Some(s), None, Some(o)),
            SlotPattern::new(None, Some(p), Some(o)),
            SlotPattern::new(Some(s), Some(p), Some(o)),
        ]
    }

    #[test]
    fn segment_union_matches_rebuilt_store_for_all_shapes() {
        let seg = segmented(1);
        assert_eq!(seg.delta_slices().count(), 1);
        let union = rebuilt_union();
        for pattern in all_shapes(&union) {
            let mut got: Vec<(Triple, u64)> = scan_set(seg.base(), &pattern);
            for (view, _) in seg.delta_slices() {
                got.extend(scan_set(view, &pattern));
            }
            got.sort();
            assert_eq!(got, scan_set(&union, &pattern), "shape {pattern}");
        }
    }

    #[test]
    fn compact_preserves_the_union() {
        let mut seg = segmented(1);
        let union = rebuilt_union();
        seg.compact();
        assert!(!seg.has_delta());
        assert_eq!(seg.delta_len(), 0);
        assert_eq!(seg.len(), union.len());
        for pattern in all_shapes(&union) {
            assert_eq!(
                scan_set(seg.base(), &pattern),
                scan_set(&union, &pattern),
                "shape {pattern}"
            );
        }
    }

    #[test]
    fn reobserved_base_triple_queues_pending_absorb() {
        let mut seg = ShardedStore::build(base_builder(), 1);
        let before = seg.base().len();
        let appended = seg.ingest(|b| {
            // `s1 p o1` already exists in the base.
            b.add_kg_resources("s1", "p", "o1");
        });
        assert_eq!(appended, 0);
        assert_eq!(
            seg.delta_len(),
            0,
            "re-observation must not enter the delta"
        );
        assert!(!seg.has_delta());
        assert_eq!(seg.pending_absorbs(), 1);
        seg.compact();
        assert_eq!(seg.base().len(), before, "absorb adds no triple");
        let s = seg.base().resource("s1").unwrap();
        let p = seg.base().resource("p").unwrap();
        let o = seg.base().resource("o1").unwrap();
        let ids = seg
            .base()
            .lookup(&SlotPattern::new(Some(s), Some(p), Some(o)));
        assert_eq!(seg.base().provenance(ids[0]).support, 2);
        assert_eq!(seg.pending_absorbs(), 0);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        for shards in [1usize, 3] {
            let mut seg = ShardedStore::build(base_builder(), shards);
            assert_eq!(seg.generation(), 0);
            seg.ingest(ingest_batch);
            assert_eq!(seg.generation(), 1);
            seg.compact();
            assert_eq!(seg.generation(), 2);
        }
    }

    #[test]
    fn delta_vocab_extends_base_vocab() {
        for shards in [1usize, 3] {
            let mut seg = segmented(shards);
            assert!(seg.base().resource("fresh").is_none());
            let fresh = seg.vocab().resource("fresh").unwrap();
            // Shared terms keep their base ids in the delta dictionary.
            assert_eq!(seg.vocab().resource("s1"), seg.base().resource("s1"));
            let hits: usize = seg
                .delta_slices()
                .map(|(view, _)| {
                    view.lookup(&SlotPattern::new(None, None, Some(fresh)))
                        .len()
                })
                .sum();
            assert_eq!(hits, 1, "{shards} shards");
            // Compaction folds the delta's terms into the base dictionary.
            seg.compact();
            assert_eq!(seg.base().resource("fresh"), Some(fresh));
        }
    }

    #[test]
    fn global_ids_resolve_across_segments() {
        let seg = segmented(1);
        let base_len = seg.base().len() as u32;
        let t = seg.triple(TripleId(0));
        assert_eq!(t, seg.base().triple(TripleId(0)));
        let (view, offset) = seg.delta_slices().next().unwrap();
        assert_eq!(offset, base_len);
        let dt = seg.triple(TripleId(base_len));
        assert_eq!(dt, view.triple(TripleId(0)));
        assert_eq!(
            seg.display_triple(TripleId(base_len)),
            view.display_triple(TripleId(0))
        );
        assert_eq!(seg.len(), seg.base().len() + view.len());
    }

    #[test]
    fn len_of_counts_both_segments() {
        let union = rebuilt_union();
        for shards in [1usize, 3] {
            let seg = segmented(shards);
            assert_eq!(seg.len_of(GraphTag::Kg), union.len_of(GraphTag::Kg));
            assert_eq!(seg.len_of(GraphTag::Xkg), union.len_of(GraphTag::Xkg));
        }
    }
}

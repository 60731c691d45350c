//! Cross-slice execution over a segmented store — the one-shard
//! [`ShardedStore`](crate::ShardedStore) with a live delta, whose base
//! and delta view are two slices of the partitioned pipeline. These
//! tests pin the totals, lookup and oracle the merge reads there.

mod tests {
    use crate::ShardedStore;
    use trinit_query::exec::TripleLookup;
    use trinit_query::GlobalTotals;
    use trinit_relax::ConditionOracle;
    use trinit_xkg::{SlotPattern, TripleId, XkgBuilder, XkgStore};

    fn base_builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..10u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 3));
        }
        b
    }

    fn ingest_batch(b: &mut XkgBuilder) {
        b.add_kg_resources("s1", "q", "o0");
        b.add_kg_resources("s11", "p", "o1");
    }

    /// A one-shard store with the batch in its live delta, and the
    /// union store rebuilt from scratch.
    fn base_and_delta() -> (ShardedStore, XkgStore) {
        let mut seg = ShardedStore::build(base_builder(), 1);
        seg.ingest(ingest_batch);
        let mut union = base_builder();
        ingest_batch(&mut union);
        (seg, union.build())
    }

    #[test]
    fn totals_match_the_union_store_for_every_shape() {
        let (seg, union) = base_and_delta();
        assert_eq!(seg.delta_slices().count(), 1);
        let s = union.resource("s1").unwrap();
        let p = union.resource("p").unwrap();
        let o = union.resource("o0").unwrap();
        for slot in [
            SlotPattern::new(None, None, None),
            SlotPattern::new(Some(s), None, None),
            SlotPattern::new(None, Some(p), None),
            SlotPattern::new(None, None, Some(o)),
            SlotPattern::new(Some(s), Some(p), None),
            SlotPattern::new(Some(s), None, Some(o)),
            SlotPattern::new(None, Some(p), Some(o)),
            SlotPattern::new(Some(s), Some(p), Some(o)),
        ] {
            let total = seg
                .pattern_total(&(slot, 0))
                .expect("multi-slice totals are always explicit");
            let want: f64 = union
                .lookup(&slot)
                .iter()
                .map(|&id| union.provenance(id).weight())
                .sum();
            assert!((total - want).abs() < 1e-9, "shape {slot}");
        }
    }

    #[test]
    fn single_slice_defers_to_local_totals() {
        let mut seg = ShardedStore::build(base_builder(), 1);
        assert!(seg.single_slice().is_some());
        let s = seg.resource("s1").unwrap();
        let p = seg.resource("p").unwrap();
        let o = seg.resource("o0").unwrap();
        // One slice: local is global for every shape.
        for mask in 0u8..8 {
            let slot = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            assert_eq!(seg.pattern_total(&(slot, 0)), None, "shape {slot}");
        }
        // A live delta is a second slice: every total is explicit.
        seg.ingest(ingest_batch);
        assert!(seg.single_slice().is_none());
        let subject = SlotPattern::new(Some(s), Some(p), None);
        assert!(seg.pattern_total(&(subject, 0)).is_some());
    }

    #[test]
    fn lookup_and_oracle_span_the_slices() {
        let (seg, _) = base_and_delta();
        let base = seg.base();
        let (delta, offset) = seg.delta_slices().next().unwrap();
        assert_eq!(offset, base.len() as u32);
        assert_eq!(seg.triple_of(TripleId(0)), base.triple(TripleId(0)));
        assert_eq!(seg.triple_of(TripleId(offset)), delta.triple(TripleId(0)));
        let s = delta.resource("s11").unwrap();
        let p = delta.resource("p").unwrap();
        let o = delta.resource("o1").unwrap();
        assert!(seg.ground_holds(s, p, o), "delta-only fact must hold");
        let bs = base.resource("s0").unwrap();
        let bo = base.resource("o0").unwrap();
        assert!(seg.ground_holds(bs, p, bo), "base fact must hold");
        assert!(!seg.ground_holds(s, p, bo));
    }
}

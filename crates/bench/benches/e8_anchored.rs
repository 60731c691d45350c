//! E8 bench: anchored (subject/object-bound) pattern serving.
//!
//! The controlled before/after behind `BENCH_e8.json`: the same
//! anchored-heavy lookups served by the precomputed anchored posting
//! strata (`PostingList::build` — borrowed slices for s-/o-bound
//! shapes, one-allocation group filters for sp/op) versus the pre-index
//! materialize-and-sort path (`PostingList::build_by_scan`, the seed
//! behaviour kept as the reference implementation). Both sides run in
//! one binary over one store build, so the comparison is apples to
//! apples on any machine.
//!
//! A second group pushes an anchored-heavy top-k query workload through
//! the monolithic engine and a 4-shard `ShardedExecutor` — the
//! engine-level surface where sharding used to pay the
//! materialize-per-shard-per-query cost recorded in `BENCH_e7.json`'s
//! work ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trinit_query::exec::topk::{self, TopkConfig};
use trinit_query::QueryBuilder;
use trinit_relax::{QTerm, RuleSet};
use trinit_shard::{ShardedExecutor, ShardedStore};
use trinit_xkg::{PostingList, SlotPattern, XkgBuilder, XkgStore};

const SUBJECTS: u32 = 3000;
const PREDICATES: u32 = 12;
const HUBS: u32 = 40;

/// An anchored-heavy world: every subject carries one fact per
/// predicate, objects concentrate on a small hub set (so object groups
/// are large), and weights vary so sorting is not a no-op.
fn builder() -> XkgBuilder {
    let mut b = XkgBuilder::new();
    let src = b.intern_source("doc");
    for s in 0..SUBJECTS {
        for p in 0..PREDICATES {
            let subj = b.dict_mut().resource(&format!("s{s}"));
            let pred = b.dict_mut().resource(&format!("p{p}"));
            let obj = b.dict_mut().resource(&format!("hub{}", (s * 7 + p) % HUBS));
            let conf = 0.3 + 0.6 * (((s + p * 31) % 97) as f32 / 97.0);
            b.add_extracted(subj, pred, obj, conf, src);
        }
    }
    b
}

/// The anchored lookup mix: s-only, o-only, sp, and op shapes over a
/// rotating set of anchors.
fn anchored_patterns(store: &XkgStore) -> Vec<SlotPattern> {
    let mut out = Vec::new();
    for i in 0..60u32 {
        let s = store.resource(&format!("s{}", (i * 97) % SUBJECTS)).unwrap();
        let p = store.resource(&format!("p{}", i % PREDICATES)).unwrap();
        let o = store.resource(&format!("hub{}", i % HUBS)).unwrap();
        out.push(SlotPattern::new(Some(s), None, None));
        out.push(SlotPattern::new(None, None, Some(o)));
        out.push(SlotPattern::with_sp(s, p));
        out.push(SlotPattern::with_po(p, o));
    }
    out
}

fn bench_anchored_lists(c: &mut Criterion) {
    let store = builder().build();
    let patterns = anchored_patterns(&store);

    let mut group = c.benchmark_group("e8_anchored");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("list", "indexed"), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for pat in &patterns {
                let list = PostingList::build(&store, pat);
                acc += list.len() + list.peek_prob().is_some() as usize;
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::new("list", "scan"), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for pat in &patterns {
                let list = PostingList::build_by_scan(&store, pat);
                acc += list.len() + list.peek_prob().is_some() as usize;
            }
            acc
        })
    });
    group.finish();
}

fn bench_anchored_topk(c: &mut Criterion) {
    let store = builder().build();
    let rules = RuleSet::new();
    let cfg = TopkConfig::default();
    // Anchored-heavy query set: entity-bound relationship lookups (sp),
    // plus pure subject and object anchors.
    let queries: Vec<_> = (0..30u32)
        .map(|i| {
            let mut qb = QueryBuilder::new(&store);
            match i % 3 {
                0 => qb
                    .pattern_r_r_v(
                        &format!("s{}", (i * 131) % SUBJECTS),
                        &format!("p{}", i % PREDICATES),
                        "y",
                    )
                    .limit(10)
                    .build(),
                1 => {
                    let s = QTerm::Term(qb.resource(&format!("s{}", (i * 131) % SUBJECTS)));
                    let pv = QTerm::Var(qb.var("p"));
                    let y = QTerm::Var(qb.var("y"));
                    qb.pattern(s, pv, y).limit(10).build()
                }
                _ => {
                    let x = QTerm::Var(qb.var("x"));
                    let pv = QTerm::Var(qb.var("p"));
                    let o = QTerm::Term(qb.resource(&format!("hub{}", i % HUBS)));
                    qb.pattern(x, pv, o).limit(10).build()
                }
            }
        })
        .collect();

    let mut group = c.benchmark_group("e8_anchored");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("topk", "monolithic"), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| topk::run(&store, q, &rules, &cfg).0.len())
                .sum::<usize>()
        })
    });

    let sharded = ShardedStore::build(builder(), 4);
    let exec = ShardedExecutor::new(&sharded);
    group.bench_function(BenchmarkId::new("topk", "sharded4"), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| exec.run(q, &rules, &cfg).answers.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_anchored_lists, bench_anchored_topk);
criterion_main!(benches);

//! E9 bench: the staged-pipeline payoffs — sharded batch throughput
//! through the batch pool, and ε-approximate top-k pull reduction.
//!
//! **Batch throughput** pushes the E5 query set (k sweep) through a
//! sharded system per shard count, via the
//! [`QueryPool`](trinit_shard::QueryPool) path
//! (`run_batch_with_workers`, one worker per shard). `E9_METRICS` lines
//! report the engine counters (pulls, postings scanned) for the
//! work-level comparison.
//!
//! **ε mode** runs the same query set monolithically at ε ∈ {0, 0.01,
//! 0.05} with k = 50 (above most answer counts, the regime where the
//! exact engine must drain tails that can no longer matter) and
//! reports total pulls per ε as `E9_PULLS` lines plus a timed sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trinit_core::Engine;
use trinit_eval::{
    build_full_system, build_sharded_system, build_world, generate_benchmark, BenchmarkConfig,
    EvalConfig,
};
use trinit_query::exec::topk::{self, TopkConfig};
use trinit_query::Query;

fn bench_batch_pool(c: &mut Criterion) {
    let cfg = EvalConfig {
        seed: 42,
        scale: 0.08,
        per_category: 3,
    };
    let (world, kg) = build_world(&cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: 2,
            per_category: cfg.per_category,
        },
    );

    let mut counts = vec![2usize, 4, 8];
    if std::env::var("E9_ORDER").as_deref() == Ok("rev") {
        counts.reverse();
    }

    let mut group = c.benchmark_group("e9_pipeline");
    group.sample_size(10);
    for &shards in &counts {
        let system = build_sharded_system(&world, &cfg, shards);
        let batch: Vec<Query> = [1usize, 5, 10, 50]
            .into_iter()
            .flat_map(|k| {
                queries.iter().map(move |q| (q, k)).map(|(q, k)| {
                    let mut parsed = system.parse(&q.text).expect("benchmark queries parse");
                    parsed.k = k;
                    parsed
                })
            })
            .collect();
        // Work-level counters, printed once for BENCH_e9.json.
        let outcomes =
            system.run_batch_with_workers(batch.clone(), Engine::IncrementalTopK, shards);
        let outcomes: Vec<_> = outcomes
            .iter()
            .map(|o| o.as_ref().expect("no worker panicked"))
            .collect();
        let pulls: usize = outcomes.iter().map(|o| o.metrics.pulls).sum();
        let scanned: usize = outcomes.iter().map(|o| o.metrics.postings_scanned).sum();
        println!(
            "E9_METRICS {{\"shards\": {shards}, \"mode\": \"pool\", \"pulls\": {pulls}, \
             \"postings_scanned\": {scanned}}}"
        );
        group.bench_function(BenchmarkId::new("batch_pool", shards), |b| {
            b.iter(|| {
                let outcomes = system.run_batch_with_workers(
                    batch.clone(),
                    Engine::IncrementalTopK,
                    shards,
                );
                outcomes
                    .iter()
                    .map(|o| o.as_ref().expect("no worker panicked").answers.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_epsilon_pulls(c: &mut Criterion) {
    let cfg = EvalConfig {
        seed: 42,
        scale: 0.08,
        per_category: 3,
    };
    let (world, kg) = build_world(&cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: 2,
            per_category: cfg.per_category,
        },
    );
    let system = build_full_system(&world, &cfg);
    let store = system.store();
    let rules = system.rules();
    let parsed: Vec<Query> = queries
        .iter()
        .filter_map(|q| system.parse(&q.text).ok())
        .map(|mut q| {
            q.k = 50;
            q
        })
        .collect();

    let mut group = c.benchmark_group("e9_pipeline");
    group.sample_size(10);
    for eps in [0.0f64, 0.01, 0.05] {
        let topk_cfg = TopkConfig {
            epsilon: eps,
            ..TopkConfig::default()
        };
        let (pulls, cutoffs): (usize, usize) = parsed
            .iter()
            .map(|q| {
                let (_, m) = topk::run(store, q, rules, &topk_cfg);
                (m.pulls, m.approx_cutoffs)
            })
            .fold((0, 0), |(p, c), (dp, dc)| (p + dp, c + dc));
        println!(
            "E9_PULLS {{\"epsilon\": {eps}, \"pulls\": {pulls}, \"approx_cutoffs\": {cutoffs}}}"
        );
        group.bench_function(BenchmarkId::new("topk_eps", eps), |b| {
            b.iter(|| {
                parsed
                    .iter()
                    .map(|q| topk::run(store, q, rules, &topk_cfg).0.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_pool, bench_epsilon_pulls);
criterion_main!(benches);

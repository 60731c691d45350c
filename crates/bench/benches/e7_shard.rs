//! E7 bench: the sharding scaling curve — E5-style top-k batch
//! throughput over the benchmark query set, swept across shard counts.
//!
//! Each shard count builds the same world into a system whose store is
//! hash-partitioned into that many shards; the workload pushes the full
//! E5 query set (at the E5 k sweep) through
//! [`Trinit::run_batch_with_workers`], which executes queries
//! concurrently across a worker pool pinned to the shard count. Shard
//! count 1 is the monolithic reference: its pool
//! has one worker and its engine is the unsharded top-k path, so the
//! curve reads directly as "what does adding shards buy".
//!
//! The sweep order is reversible (`E7_ORDER=rev`) so repeated runs can
//! alternate direction and cancel thermal/frequency drift when
//! recording `BENCH_e7.json`. Note that the curve only rises on a
//! multi-core runner — on one core the pool serializes and the bench
//! measures pure sharding overhead instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trinit_core::Engine;
use trinit_eval::{
    build_sharded_system, build_world, generate_benchmark, BenchmarkConfig, EvalConfig,
};

fn bench_shard_scaling(c: &mut Criterion) {
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

    let mut counts = vec![1usize, 2, 4, 8];
    if std::env::var("E7_ORDER").as_deref() == Ok("rev") {
        counts.reverse();
    }

    let mut group = c.benchmark_group("e7_shard_batch");
    group.sample_size(10);
    for &shards in &counts {
        let system = build_sharded_system(&world, &cfg, shards);
        // The E5 k sweep over the whole benchmark set, as one batch.
        let batch: Vec<_> = [1usize, 5, 10, 50]
            .into_iter()
            .flat_map(|k| {
                queries.iter().map(move |q| (q, k)).map(|(q, k)| {
                    let mut parsed = system.parse(&q.text).expect("benchmark queries parse");
                    parsed.k = k;
                    parsed
                })
            })
            .collect();
        // Pool pinned to the shard count: the 1-shard point is the
        // monolithic engine on one worker, so the curve reads as "what
        // does each added shard (and its worker) buy".
        group.bench_function(BenchmarkId::new("batch_topk", shards), |b| {
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

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);

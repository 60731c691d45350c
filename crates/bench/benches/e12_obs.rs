//! E12 bench: observability overhead — instrumented vs `ObsConfig::off`.
//!
//! The tracing layer promises "within noise" on the serve paths, and
//! this bench is the proof: the E5 query set runs through the governed
//! monolithic engine (the E5 serve path) and through the sharded batch
//! pool (the E9 serve path), each twice —
//! once with the default instrumentation (per-query span ring, stage
//! windows, registry observation) and once with [`ObsConfig::off`]
//! (every record site reduces to one branch, the clock is never read).
//! Span batching is what makes this hold: rank-join pulls and merge
//! elections are windowed 64 events per clock read, so the instrumented
//! run adds two `Instant::now` calls per window, not per pull.
//!
//! `E12_SPANS` lines report how many spans the instrumented runs
//! actually record (the off runs record zero, pinning the A/B as
//! real). `E12_ORDER=rev` reverses the on/off order so two runs cancel
//! warm-up bias in BENCH_e12.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trinit_core::Engine;
use trinit_eval::{
    build_full_system, build_sharded_system, build_world, generate_benchmark, BenchmarkConfig,
    EvalConfig,
};
use trinit_query::exec::topk::{self, TopkConfig};
use trinit_query::{ObsConfig, Query};

fn modes() -> Vec<(&'static str, ObsConfig)> {
    let mut modes = vec![
        ("on", ObsConfig::default()),
        ("off", ObsConfig::off()),
    ];
    if std::env::var("E12_ORDER").as_deref() == Ok("rev") {
        modes.reverse();
    }
    modes
}

fn bench_obs_overhead(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("e12_obs");
    group.sample_size(10);

    // E5 serve path: governed monolithic top-k, k = 10.
    let system = build_full_system(&world, &cfg);
    let store = system.store();
    let rules = system.rules();
    let parsed: Vec<Query> = queries
        .iter()
        .filter_map(|q| system.parse(&q.text).ok())
        .map(|mut q| {
            q.k = 10;
            q
        })
        .collect();

    // Interleaved A/B: rounds of (on-sweep, off-sweep) with the order
    // flipped every round, so warm-up and clock-frequency drift hit
    // both modes symmetrically. The per-mode medians are the
    // overhead-within-noise evidence; the criterion groups below give
    // the conventional per-mode timings.
    {
        let on_cfg = TopkConfig::default();
        let off_cfg = TopkConfig {
            obs: ObsConfig::off(),
            ..TopkConfig::default()
        };
        let sweep = |cfg: &TopkConfig| -> u64 {
            let t0 = std::time::Instant::now();
            let total: usize = parsed
                .iter()
                .map(|q| topk::run_governed(store, q, rules, cfg, None).answers.len())
                .sum();
            std::hint::black_box(total);
            t0.elapsed().as_nanos() as u64
        };
        // Warm both paths before sampling.
        sweep(&on_cfg);
        sweep(&off_cfg);
        let rounds = 51usize;
        let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            if round % 2 == 0 {
                on_ns.push(sweep(&on_cfg));
                off_ns.push(sweep(&off_cfg));
            } else {
                off_ns.push(sweep(&off_cfg));
                on_ns.push(sweep(&on_cfg));
            }
        }
        let median = |v: &mut Vec<u64>| -> u64 {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let (on_med, off_med) = (median(&mut on_ns), median(&mut off_ns));
        println!(
            "E12_AB {{\"path\": \"mono\", \"rounds\": {rounds}, \"queries\": {}, \
             \"on_median_ns\": {on_med}, \"off_median_ns\": {off_med}, \
             \"overhead_pct\": {:.2}}}",
            parsed.len(),
            (on_med as f64 / off_med as f64 - 1.0) * 100.0
        );
    }

    for (mode, obs) in modes() {
        let topk_cfg = TopkConfig {
            obs,
            ..TopkConfig::default()
        };
        let (mut spans, mut dropped) = (0u64, 0u64);
        for q in &parsed {
            let run = topk::run_governed(store, q, rules, &topk_cfg, None);
            spans += run.trace.recorded();
            dropped += run.trace.dropped;
        }
        println!(
            "E12_SPANS {{\"path\": \"mono\", \"mode\": \"{mode}\", \"queries\": {}, \
             \"spans\": {spans}, \"dropped\": {dropped}}}",
            parsed.len()
        );
        group.bench_function(BenchmarkId::new("mono", mode), |b| {
            b.iter(|| {
                parsed
                    .iter()
                    .map(|q| {
                        topk::run_governed(store, q, rules, &topk_cfg, None)
                            .answers
                            .len()
                    })
                    .sum::<usize>()
            })
        });
    }

    // E9 serve path: the sharded batch pool (includes registry
    // observation).
    let shards = 4;
    let mut sharded = build_sharded_system(&world, &cfg, shards);
    let batch: Vec<Query> = queries
        .iter()
        .filter_map(|q| sharded.parse(&q.text).ok())
        .map(|mut q| {
            q.k = 10;
            q
        })
        .collect();
    // Same interleaved A/B over the batch pool.
    {
        let mut sweep = |on: bool| -> u64 {
            sharded.set_obs(if on { ObsConfig::default() } else { ObsConfig::off() });
            let t0 = std::time::Instant::now();
            let total: usize = sharded
                .run_batch_with_workers(batch.clone(), Engine::IncrementalTopK, shards)
                .into_iter()
                .map(|o| o.expect("no worker panicked").answers.len())
                .sum();
            std::hint::black_box(total);
            t0.elapsed().as_nanos() as u64
        };
        sweep(true);
        sweep(false);
        let rounds = 51usize;
        let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            if round % 2 == 0 {
                on_ns.push(sweep(true));
                off_ns.push(sweep(false));
            } else {
                off_ns.push(sweep(false));
                on_ns.push(sweep(true));
            }
        }
        let median = |v: &mut Vec<u64>| -> u64 {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let (on_med, off_med) = (median(&mut on_ns), median(&mut off_ns));
        println!(
            "E12_AB {{\"path\": \"sharded\", \"rounds\": {rounds}, \"queries\": {}, \
             \"on_median_ns\": {on_med}, \"off_median_ns\": {off_med}, \
             \"overhead_pct\": {:.2}}}",
            batch.len(),
            (on_med as f64 / off_med as f64 - 1.0) * 100.0
        );
    }

    for (mode, obs) in modes() {
        sharded.set_obs(obs);
        let outcomes =
            sharded.run_batch_with_workers(batch.clone(), Engine::IncrementalTopK, shards);
        let (mut spans, mut dropped) = (0u64, 0u64);
        for o in &outcomes {
            let o = o.as_ref().expect("no worker panicked");
            spans += o.trace().recorded();
            dropped += o.trace().dropped;
        }
        println!(
            "E12_SPANS {{\"path\": \"sharded\", \"mode\": \"{mode}\", \"queries\": {}, \
             \"spans\": {spans}, \"dropped\": {dropped}}}",
            batch.len()
        );
        group.bench_function(BenchmarkId::new("sharded_pool", mode), |b| {
            b.iter(|| {
                sharded
                    .run_batch_with_workers(batch.clone(), Engine::IncrementalTopK, shards)
                    .into_iter()
                    .map(|o| o.expect("no worker panicked").answers.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

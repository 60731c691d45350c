//! E11 bench: live delta ingestion — re-query vs rebuild-from-scratch.
//!
//! A deployed system keeps answering while extraction streams new
//! facts in. The baseline way to refresh answers after a batch lands
//! is to rebuild the whole store and re-run the query set; the
//! store instead appends the batch into its delta segment
//! (`Trinit::ingest`) and either re-runs queries over base + delta or
//! asks the semi-naive question directly
//! (`Trinit::answers_introduced_by` — only answers whose derivation
//! uses fresh evidence).
//!
//! The bench builds a synthetic 12k-triple extraction store, streams
//! 150-fact batches, and times three refresh strategies over the same
//! query set:
//!
//! - `rebuild` — from-scratch build of base ∪ batch, then the
//!   full query set (the no-ingestion baseline);
//! - `ingest_full` — `ingest` the batch, re-run the full query set
//!   over base + delta;
//! - `introduced` — `ingest` the batch, run only the delta-restricted
//!   variants (`answers_introduced_by`).
//!
//! Medians over 5 batch cycles are printed as an `E11_INGEST` JSON
//! line for BENCH_e11.json. The acceptance criterion is
//! `rebuild_us > ingest_full_us > introduced_us` — delta re-query must
//! beat rebuilding, and the semi-naive question must beat both.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use trinit_core::{Engine, Trinit};
use trinit_relax::RuleSet;
use trinit_xkg::XkgBuilder;

const N_BASE: usize = 12_000;
const N_BATCH: usize = 150;
const ENTITIES: u64 = 1_500;
const RELATIONS: u64 = 20;
const CYCLES: usize = 5;

/// Deterministic splitmix-style generator: benches must not depend on
/// ambient randomness, and the delta batches must differ per cycle.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Appends `n` synthetic extraction triples. Entity/relation names are
/// interned through the builder's dictionary, so the same names resolve
/// to the same ids whether they land in the base or in a delta batch.
fn fill(b: &mut XkgBuilder, seed: u64, n: usize) {
    let mut rng = Rng(seed);
    let src = b.intern_source("stream:extractions");
    for _ in 0..n {
        let s = b.dict_mut().resource(&format!("e{}", rng.next() % ENTITIES));
        let p = b.dict_mut().resource(&format!("rel{}", rng.next() % RELATIONS));
        let o = b.dict_mut().resource(&format!("e{}", rng.next() % ENTITIES));
        let conf = 0.30 + (rng.next() % 700) as f32 / 1000.0;
        b.add_extracted(s, p, o, conf, src);
    }
}

fn base_system() -> Trinit {
    let mut b = XkgBuilder::new();
    fill(&mut b, 7, N_BASE);
    Trinit::from_parts(b.build(), RuleSet::new())
}

fn query_texts() -> Vec<String> {
    let mut texts: Vec<String> = (0..6).map(|j| format!("?x rel{j} ?y LIMIT 20")).collect();
    texts.extend((0..4).map(|i| format!("e{} rel{} ?y LIMIT 10", i * 37, i)));
    texts
}

fn run_set(sys: &Trinit, texts: &[String]) -> usize {
    texts
        .iter()
        .map(|t| {
            let q = sys.parse(t).expect("bench query parses");
            sys.run(q, Engine::IncrementalTopK).answers.len()
        })
        .sum()
}

fn run_introduced(sys: &Trinit, texts: &[String]) -> usize {
    texts
        .iter()
        .map(|t| {
            let q = sys.parse(t).expect("bench query parses");
            sys.answers_introduced_by(q).answers.len()
        })
        .sum()
}

fn median_us(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn bench_ingest(c: &mut Criterion) {
    let texts = query_texts();

    // The measured cycles behind BENCH_e11.json: each cycle streams a
    // distinct batch, and every strategy refreshes the same query set.
    let (mut rebuild_us, mut ingest_full_us, mut introduced_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut full_answers, mut introduced_answers) = (0usize, 0usize);
    for cycle in 0..CYCLES {
        let batch_seed = 1_000 + cycle as u64;

        let t0 = Instant::now();
        let mut b = XkgBuilder::new();
        fill(&mut b, 7, N_BASE);
        fill(&mut b, batch_seed, N_BATCH);
        let rebuilt = Trinit::from_parts(b.build(), RuleSet::new());
        full_answers = run_set(&rebuilt, &texts);
        rebuild_us.push(t0.elapsed().as_micros());

        let mut live = base_system();
        let t0 = Instant::now();
        live.ingest(|b| fill(b, batch_seed, N_BATCH));
        let n = run_set(&live, &texts);
        ingest_full_us.push(t0.elapsed().as_micros());
        assert_eq!(n, full_answers, "segmented serve must match rebuild");

        let mut live = base_system();
        let t0 = Instant::now();
        live.ingest(|b| fill(b, batch_seed, N_BATCH));
        introduced_answers = run_introduced(&live, &texts);
        introduced_us.push(t0.elapsed().as_micros());
    }
    let (rebuild, ingest_full, introduced) = (
        median_us(rebuild_us),
        median_us(ingest_full_us),
        median_us(introduced_us),
    );
    println!(
        "E11_INGEST {{\"base_triples\": {N_BASE}, \"batch_triples\": {N_BATCH}, \
         \"queries\": {}, \"cycles\": {CYCLES}, \"rebuild_us\": {rebuild}, \
         \"ingest_full_requery_us\": {ingest_full}, \"introduced_only_us\": {introduced}, \
         \"full_answers\": {full_answers}, \"introduced_answers\": {introduced_answers}, \
         \"speedup_full\": {:.2}, \"speedup_introduced\": {:.2}}}",
        texts.len(),
        rebuild as f64 / ingest_full as f64,
        rebuild as f64 / introduced as f64,
    );

    let mut group = c.benchmark_group("e11_ingest");
    group.sample_size(10);

    group.bench_function("rebuild_and_requery", |b| {
        b.iter(|| {
            let mut xb = XkgBuilder::new();
            fill(&mut xb, 7, N_BASE);
            fill(&mut xb, 1_000, N_BATCH);
            let sys = Trinit::from_parts(xb.build(), RuleSet::new());
            run_set(&sys, &texts)
        })
    });

    // The steady-state serving costs over a live delta (the ingest
    // itself is timed in the cycle loop above; criterion pins the
    // repeatable query-side work).
    let mut live = base_system();
    live.ingest(|b| fill(b, 1_000, N_BATCH));
    group.bench_function("segmented_full_requery", |b| b.iter(|| run_set(&live, &texts)));
    group.bench_function("introduced_only", |b| b.iter(|| run_introduced(&live, &texts)));
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);

//! Golden work counters for the incremental top-k engine.
//!
//! The E5 query set (world seed 42, scale 0.08, 3 queries per category,
//! benchmark seed 2) at k ∈ {10, 50}, on a Flat monolith, a Packed
//! monolith and a 2-shard Flat store. For every query the deterministic
//! work counters — pulls, postings scanned, join candidates, posting
//! lists built — and a digest of the answers (keys and score bits, in
//! rank order) must equal the values recorded in `golden_e5.txt`.
//!
//! The counters are the engine's cost model: a change that only makes
//! each pull cheaper must leave every line of the table as it is. A
//! change that alters the work on purpose updates the table in the same
//! commit and says why; on mismatch the test prints the full table it
//! computed.

use trinit_core::{Engine, Trinit, TrinitBuilder};
use trinit_eval::{build_world, generate_benchmark, BenchmarkConfig, EvalConfig};
use trinit_query::Answer;
use trinit_xkg::SegmentLayout;

const GOLDEN: &str = include_str!("golden_e5.txt");

/// FNV-1a over the answers' keys and score bits, in rank order.
fn digest(answers: &[Answer]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for a in answers {
        for &(v, t) in &a.key {
            eat(&v.0.to_le_bytes());
            eat(&t.map_or(u32::MAX, |t| t.raw()).to_le_bytes());
        }
        eat(&a.score.to_bits().to_le_bytes());
    }
    h
}

fn system(
    cfg: &EvalConfig,
    world: &trinit_worldgen::World,
    layout: SegmentLayout,
    shards: usize,
) -> Trinit {
    let mut builder = TrinitBuilder::from_world(world, &cfg.kg_config(), &cfg.corpus_config());
    builder.options_mut().layout(layout).shards(shards);
    builder.build()
}

/// One table line per (backend, k, query): the counters and the digest.
fn computed_table() -> String {
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
    let mut table = String::new();
    for (name, layout, shards) in [
        ("flat", SegmentLayout::Flat, 1),
        ("packed", SegmentLayout::Packed, 1),
        ("shards2", SegmentLayout::Flat, 2),
    ] {
        let system = system(&cfg, &world, layout, shards);
        for k in [10usize, 50] {
            for (qi, q) in queries.iter().enumerate() {
                let Ok(mut query) = system.parse(&q.text) else {
                    table.push_str(&format!("{name} k={k} q={qi} unparsed\n"));
                    continue;
                };
                query.k = k;
                let out = system.run(query, Engine::IncrementalTopK);
                let m = out.metrics;
                table.push_str(&format!(
                    "{name} k={k} q={qi} pulls={} scanned={} candidates={} lists={} answers={} digest={:016x}\n",
                    m.pulls,
                    m.postings_scanned,
                    m.join_candidates,
                    m.posting_lists_built,
                    out.answers.len(),
                    digest(&out.answers),
                ));
            }
        }
    }
    table
}

#[test]
fn e5_work_counters_and_answers_match_golden() {
    let computed = computed_table();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got: Vec<&str> = computed.lines().collect();
    let diffs: Vec<String> = golden
        .iter()
        .zip(&got)
        .filter(|(g, c)| g != c)
        .map(|(g, c)| format!("  want {g}\n  got  {c}"))
        .collect();
    assert!(
        diffs.is_empty() && golden.len() == got.len(),
        "{} of {} golden lines differ ({} expected, {} computed):\n{}\n\
         full computed table:\n{computed}",
        diffs.len(),
        golden.len(),
        golden.len(),
        got.len(),
        diffs.join("\n"),
    );
}

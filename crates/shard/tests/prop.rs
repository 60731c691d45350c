//! Property tests for partitioned execution.
//!
//! The headline property — the acceptance bar of the sharding subsystem:
//! **sharded execution returns answers score-equal to the single-store
//! engine** on arbitrary stores, multi-pattern (join) queries, and
//! relaxation rule sets, at 1, 2, 4, and 7 shards. Both sides run the
//! *same* top-k configuration, so the comparison is exact (no
//! rewriting-budget mismatch to tolerate); only membership of a
//! trailing tied-score group is tie-break detail.

use proptest::prelude::*;

use trinit_query::exec::topk::{self, TopkConfig};
use trinit_query::{Completeness, ExecBudget, Query};
use trinit_relax::{QPattern, QTerm, Rule, RuleProvenance, RuleSet, VarId};
use trinit_shard::{QueryPool, ShardedExecutor, ShardedStore};
use trinit_xkg::{PostingList, Provenance, SlotPattern, SourceId, TermId, TermKind, Triple, XkgBuilder};

fn tid(i: u32) -> TermId {
    TermId::new(TermKind::Resource, i)
}

/// A random store over a small universe: up to `max_triples` triples
/// with random confidences and supports.
fn store_strategy(
    universe: u32,
    max_triples: usize,
) -> impl Strategy<Value = Vec<(u32, u32, u32, f32, u8)>> {
    proptest::collection::vec(
        (0..universe, 0..universe, 0..universe, 0.05f32..1.0, 0u8..4),
        1..max_triples,
    )
}

fn builder_from(rows: &[(u32, u32, u32, f32, u8)]) -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for &(s, p, o, conf, support) in rows {
        let mut prov = Provenance::extraction(conf, SourceId(0));
        prov.support = u32::from(support) + 1;
        b.add(Triple::new(tid(s), tid(p), tid(o)), prov);
    }
    b
}

fn query_from(patterns: Vec<QPattern>, k: usize) -> Query {
    let n_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m as usize + 1);
    Query {
        patterns,
        projection: Vec::new(),
        k,
        var_names: (0..n_vars).map(|i| format!("v{i}")).collect(),
        unknown_terms: Vec::new(),
    }
}

fn qterm(vars: u16, universe: u32) -> impl Strategy<Value = QTerm> {
    prop_oneof![
        (0..vars).prop_map(|v| QTerm::Var(VarId(v))),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
    ]
}

fn pattern_strategy(vars: u16, universe: u32) -> impl Strategy<Value = QPattern> {
    (
        qterm(vars, universe),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
        qterm(vars, universe),
    )
        .prop_map(|(s, p, o)| QPattern::new(s, p, o))
}

fn rules_strategy(universe: u32) -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (0..universe, 0..universe, 0.15f64..1.0, proptest::bool::ANY).prop_map(
            |(p1, p2, w, inv)| {
                if inv {
                    Rule::inversion("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined)
                } else {
                    Rule::predicate_rewrite("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined)
                }
            },
        ),
        0..4,
    )
}

use trinit_shard::testkit::assert_answers_score_equivalent as assert_answers_equivalent;

/// Zero-mass match sets under sharding: a repeated-variable (masked)
/// pattern whose filtered matches all weigh 0 gets a global total of 0,
/// so the tightened engine's 0 head bound skips the stream outright.
/// That skip is only sound because masked zero-mass lists serve empty —
/// tightened, untightened, and the monolithic engine must agree.
#[test]
fn sharded_zero_mass_repeated_variable_agrees_with_monolith() {
    let build = || {
        let mut b = XkgBuilder::new();
        // Positive-weight background facts plus zero-weight self-loops
        // spread across subjects (hence shards).
        for i in 0..8u32 {
            b.add(
                Triple::new(tid(100 + i), tid(0), tid(200 + i)),
                Provenance::extraction(0.5, SourceId(0)),
            );
            b.add(
                Triple::new(tid(300 + i), tid(1), tid(300 + i)),
                Provenance::extraction(0.0, SourceId(0)),
            );
        }
        b
    };
    let single = build().build();
    let v = QTerm::Var(VarId(0));
    // `?x p1 ?x` filters to the zero-weight self-loops only.
    let query = query_from(vec![QPattern::new(v, QTerm::Term(tid(1)), v)], 10);
    let cfg_tight = TopkConfig::default();
    let cfg_loose = TopkConfig {
        tighten_threshold: false,
        ..TopkConfig::default()
    };
    let (mono, _) = topk::run(&single, &query, &RuleSet::new(), &cfg_tight);
    assert!(mono.is_empty(), "zero-mass sets emit nothing");
    for shards in [2usize, 4] {
        let sharded = ShardedStore::build(build(), shards);
        let exec = ShardedExecutor::new(&sharded);
        for cfg in [&cfg_tight, &cfg_loose] {
            let run = exec.run(&query, &RuleSet::new(), cfg);
            assert_answers_equivalent(&run.answers, &mono);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sharded ≡ single-store on multi-pattern queries with relaxation,
    /// across shard counts.
    #[test]
    fn sharded_execution_equals_single_store(
        rows in store_strategy(6, 40),
        patterns in proptest::collection::vec(pattern_strategy(3, 6), 1..4),
        rules in rules_strategy(6),
        k in 1usize..12,
    ) {
        let single = builder_from(&rows).build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (mono, _) = topk::run(&single, &query, &set, &cfg);
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let run = exec.run(&query, &set, &cfg);
            assert_answers_equivalent(&run.answers, &mono);
            // Tied shard heads emit in the monolith's order, so even a
            // k-cut inside a tie group keeps the same answers.
            let got: Vec<_> = run.answers.iter().map(|a| &a.key).collect();
            let want: Vec<_> = mono.iter().map(|a| &a.key).collect();
            prop_assert_eq!(got, want, "answer keys differ at {} shards", shards);
        }
    }

    /// Anchored-index-served posting lists are entry-for-entry equal to
    /// the materialize-and-sort reference on **every shard slice** —
    /// all 8 pattern shapes, monolithic and at 1/2/4/7 shards. (The
    /// monolithic variant lives in `crates/xkg/tests/prop.rs`; this one
    /// pins that per-shard stores built by the partitioner behave
    /// identically on their slices.)
    #[test]
    fn anchored_lists_equal_scan_reference_on_every_shard(
        rows in store_strategy(6, 40),
        s in 0u32..6,
        p in 0u32..6,
        o in 0u32..6,
    ) {
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            for shard in sharded.shards() {
                for mask in 0u8..8 {
                    let pattern = SlotPattern::new(
                        (mask & 1 != 0).then_some(tid(s)),
                        (mask & 2 != 0).then_some(tid(p)),
                        (mask & 4 != 0).then_some(tid(o)),
                    );
                    let indexed = PostingList::build(shard, &pattern);
                    let reference = PostingList::build_by_scan(shard, &pattern);
                    prop_assert_eq!(indexed.len(), reference.len(), "shape {:#05b}", mask);
                    for (a, b) in indexed.entries().iter().zip(reference.entries()) {
                        prop_assert_eq!(a.triple, b.triple, "order, shape {:#05b}", mask);
                        prop_assert_eq!(a.weight, b.weight);
                        prop_assert!((a.prob - b.prob).abs() <= 1e-12);
                    }
                    for upto in 0..=indexed.len() {
                        prop_assert!(
                            (indexed.prefix_weight(upto) - reference.prefix_weight(upto)).abs()
                                < 1e-9
                        );
                    }
                }
            }
        }
    }

    /// Cross-shard tie order is pinned to the deterministic
    /// (score desc, key asc) order `into_top_k` promises: with no k-cut,
    /// answers with bit-equal scores from *different shards* interleave
    /// in exactly the monolith's key order (never shard-major emission
    /// order); with a cut inside a tied group, the sharded merge emits
    /// tied heads in the monolith's order, so the same members of the
    /// boundary tie survive and the returned tied run is still
    /// key-ascending. Weights are small integers (conf 1.0) so every
    /// normalization total and probability is computed on identical
    /// operands mono and sharded, making scores bit-equal and the
    /// assertions exact.
    #[test]
    fn cross_shard_ties_keep_deterministic_key_order(
        supports in proptest::collection::vec(1u8..4, 8..24),
        k in 1usize..10,
    ) {
        let build = |supports: &[u8]| {
            let mut b = XkgBuilder::new();
            for (i, &sup) in supports.iter().enumerate() {
                // Many subjects → different shards; one shared object so
                // an op-bound pattern spans every shard. Repeating
                // support values manufactures exact score ties.
                let mut prov = Provenance::kg();
                prov.support = u32::from(sup);
                b.add(
                    Triple::new(tid(100 + i as u32), tid(0), tid(50)),
                    prov,
                );
            }
            b
        };
        let single = build(&supports).build();
        let pattern = QPattern::new(
            QTerm::Var(VarId(0)),
            QTerm::Term(tid(0)),
            QTerm::Term(tid(50)),
        );
        let cfg = TopkConfig::default();

        // No cut (k ≥ distinct answers): the full sequences must be
        // identical — cross-shard ties interleave by key, not by shard.
        let full_query = query_from(vec![pattern], 1000);
        let (mono_full, _) = topk::run(&single, &full_query, &RuleSet::new(), &cfg);
        // Cut inside ties: the prefix above the boundary score is exact.
        let cut_query = query_from(vec![pattern], k);
        let (mono_cut, _) = topk::run(&single, &cut_query, &RuleSet::new(), &cfg);

        for shards in [2usize, 4, 7] {
            let sharded = ShardedStore::build(build(&supports), shards);
            let exec = ShardedExecutor::new(&sharded);
            let full = exec.run(&full_query, &RuleSet::new(), &cfg);
            prop_assert_eq!(full.answers.len(), mono_full.len());
            for (a, b) in full.answers.iter().zip(&mono_full) {
                prop_assert_eq!(
                    &a.key, &b.key,
                    "uncut tie order diverged at {} shards", shards
                );
                prop_assert_eq!(a.score, b.score, "scores must be bit-equal");
            }

            let cut = exec.run(&cut_query, &RuleSet::new(), &cfg);
            prop_assert_eq!(cut.answers.len(), mono_cut.len());
            for (a, b) in cut.answers.iter().zip(&mono_cut) {
                prop_assert_eq!(a.score, b.score, "scores must be bit-equal");
                prop_assert_eq!(&a.key, &b.key, "cut inside a tie group kept other answers");
            }
            // Within the returned ranking, every tied run is in
            // ascending key order — the promise `into_top_k` makes.
            for w in cut.answers.windows(2) {
                if w[0].score == w[1].score {
                    prop_assert!(w[0].key < w[1].key, "tied run not key-sorted");
                }
            }
        }
    }

    /// The tightened threshold stays answer-invisible under sharding,
    /// exactly as it is on the monolith.
    #[test]
    fn sharded_tightening_preserves_answers(
        rows in store_strategy(5, 30),
        patterns in proptest::collection::vec(pattern_strategy(3, 5), 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let query = query_from(patterns, k);
        let sharded = ShardedStore::build(builder_from(&rows), 3);
        let exec = ShardedExecutor::new(&sharded);
        let tight = exec.run(
            &query,
            &set,
            &TopkConfig { tighten_threshold: true, ..TopkConfig::default() },
        );
        let loose = exec.run(
            &query,
            &set,
            &TopkConfig { tighten_threshold: false, ..TopkConfig::default() },
        );
        assert_answers_equivalent(&tight.answers, &loose.answers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ε-approximate guarantee under sharding, at 1/2/4/7 shards:
    /// rank-wise the sharded approximate ranking is within ε of the
    /// *monolithic exact* ranking in probability space, and ε = 0
    /// stays answer-identical (bit-equal scores) and
    /// pull-count-identical to the sharded exact engine.
    #[test]
    fn sharded_epsilon_within_eps_of_exact_monolith(
        rows in store_strategy(5, 32),
        patterns in proptest::collection::vec(pattern_strategy(3, 5), 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
        eps_pick in proptest::bool::ANY,
    ) {
        let eps = if eps_pick { 0.05 } else { 0.01 };
        let single = builder_from(&rows).build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (mono, _) = topk::run(&single, &query, &set, &cfg);
        let approx_cfg = TopkConfig { epsilon: eps, ..cfg.clone() };
        let eps0_cfg = TopkConfig { epsilon: 0.0, ..cfg.clone() };
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let exact_run = exec.run(&query, &set, &cfg);
            let approx_run = exec.run(&query, &set, &approx_cfg);
            for (r, e) in mono.iter().enumerate() {
                let pe = e.score.exp();
                let pa = approx_run.answers.get(r).map_or(0.0, |a| a.score.exp());
                prop_assert!(
                    pa >= pe - eps - 1e-9,
                    "{} shards, rank {}: approx {} not within ε={} of exact {}",
                    shards, r, pa, eps, pe
                );
            }
            prop_assert!(
                approx_run.metrics.pulls <= exact_run.metrics.pulls,
                "{} shards: ε pulled more ({} > {})",
                shards, approx_run.metrics.pulls, exact_run.metrics.pulls
            );
            // ε = 0: bit-identical to the sharded exact engine.
            let eps0_run = exec.run(&query, &set, &eps0_cfg);
            prop_assert_eq!(eps0_run.answers.len(), exact_run.answers.len());
            for (a, b) in eps0_run.answers.iter().zip(&exact_run.answers) {
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(a.score, b.score, "ε=0 changed a sharded score");
            }
            prop_assert_eq!(
                eps0_run.metrics.pulls, exact_run.metrics.pulls,
                "ε=0 changed sharded pull counts"
            );
            prop_assert_eq!(eps0_run.metrics.approx_cutoffs, 0);
        }
    }

    /// The batch pool is answer-invisible: for arbitrary stores, rule
    /// sets, and query batches, pooled execution returns exactly what
    /// per-query execution returns, at 1, 2, and 4 workers.
    #[test]
    fn pooled_batches_equal_per_query_execution(
        rows in store_strategy(5, 32),
        patterns_a in pattern_strategy(3, 5),
        patterns_b in pattern_strategy(3, 5),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let queries = vec![
            query_from(vec![patterns_a], k),
            query_from(vec![patterns_b], k + 1),
            query_from(vec![patterns_a, patterns_b], k),
        ];
        for shards in [2usize, 3] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            for workers in [1usize, 2, 4] {
                let runs = QueryPool::new(workers)
                    .try_execute(queries.clone(), |q| exec.run(&q, &set, &cfg));
                prop_assert_eq!(runs.len(), queries.len());
                for (run, q) in runs.iter().zip(&queries) {
                    let run = run.as_ref().expect("no worker panicked");
                    let want = exec.run(q, &set, &cfg);
                    assert_answers_equivalent(&run.answers, &want.answers);
                }
            }
        }
    }

    /// Budget governance is free when nothing binds: ε = 0 under an
    /// effectively infinite budget is **bit-identical** to the
    /// ungoverned exact path — same answers, same scores, same pull
    /// counts — monolithic and at 1/2/4/7 shards,
    /// and every run is labeled [`Completeness::Exact`].
    #[test]
    fn governed_unlimited_budget_is_bit_identical_to_exact(
        rows in store_strategy(5, 32),
        patterns in proptest::collection::vec(pattern_strategy(3, 5), 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        // Limits present (the governed code path is exercised) but
        // unreachable: one hour and half the address space of pulls.
        let governed_cfg = TopkConfig {
            epsilon: 0.0,
            budget: ExecBudget {
                deadline: Some(std::time::Duration::from_secs(3600)),
                max_pulls: Some(usize::MAX / 2),
                ..ExecBudget::default()
            },
            ..cfg.clone()
        };
        let query = query_from(patterns, k);

        let single = builder_from(&rows).build();
        let (mono, m_mono) = topk::run(&single, &query, &set, &cfg);
        let governed = topk::run_governed(&single, &query, &set, &governed_cfg, None);
        prop_assert_eq!(governed.answers.len(), mono.len());
        for (a, b) in governed.answers.iter().zip(&mono) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(a.score, b.score, "governed run changed a monolithic score");
        }
        prop_assert_eq!(
            governed.metrics.pulls, m_mono.pulls,
            "governed run changed monolithic pull counts"
        );
        prop_assert_eq!(governed.completeness, Completeness::Exact);
        prop_assert_eq!(governed.metrics.degradation_steps, 0);

        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let exact_run = exec.run(&query, &set, &cfg);
            let gov_run = exec.run(&query, &set, &governed_cfg);
            prop_assert_eq!(gov_run.answers.len(), exact_run.answers.len());
            for (a, b) in gov_run.answers.iter().zip(&exact_run.answers) {
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(
                    a.score, b.score,
                    "budget changed a sharded score at {} shards", shards
                );
            }
            prop_assert_eq!(
                gov_run.metrics.pulls, exact_run.metrics.pulls,
                "budget changed sharded pull counts at {} shards", shards
            );
            prop_assert_eq!(gov_run.completeness, Completeness::Exact);
        }
    }
}

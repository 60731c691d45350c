//! Fault-injection robustness suite (feature `faults`).
//!
//! Drives the deterministic harness in `trinit_query::faults` against
//! the batch pool: any single query's panic must be isolated to its own
//! slot, deterministic seeds must replay, and budgeted runs must hold
//! their deadline under injected latency.
//!
//! The plan is process-global and every query reads it, so every test
//! here holds a [`FaultScope`] while it runs queries — clean runs
//! install `FaultPlan::default()`. The scopes serialize the tests.

#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use trinit_query::exec::topk::TopkConfig;
use trinit_query::faults::{FaultPlan, FaultScope};
use trinit_query::{Completeness, CutoffReason, ExecBudget, ExecError, Query, QueryBuilder};
use trinit_relax::{Rule, RuleProvenance, RuleSet};
use trinit_shard::{QueryPool, ShardedExecutor, ShardedRun, ShardedStore};
use trinit_xkg::XkgBuilder;

fn builder() -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for i in 0..24u32 {
        b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
        b.add_kg_resources(&format!("y{i}"), "q", &format!("z{}", i % 5));
    }
    let src = b.intern_source("doc");
    for i in 0..10u32 {
        let s = b.dict_mut().resource(&format!("x{i}"));
        let p = b.dict_mut().token("close to");
        let o = b.dict_mut().resource(&format!("y{}", (i + 5) % 24));
        b.add_extracted(s, p, o, 0.6, src);
    }
    b
}

fn rules(store: &trinit_xkg::XkgStore) -> RuleSet {
    let p = store.resource("p").unwrap();
    let close = store.token("close to").unwrap();
    let mut rules = RuleSet::new();
    rules.add(Rule::predicate_rewrite(
        "p ~ close to",
        p,
        close,
        0.7,
        RuleProvenance::UserDefined,
    ));
    rules
}

/// Open (variable-subject) queries, every one spanning every shard.
fn open_queries(single: &trinit_xkg::XkgStore, n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            QueryBuilder::new(single)
                .pattern_v_r_v("a", "p", "b")
                .limit(3 + i)
                .build()
        })
        .collect()
}

/// Runs `queries` as one batch through a pool of `workers`.
fn run_batch(
    exec: &ShardedExecutor<'_>,
    queries: &[Query],
    rules: &RuleSet,
    cfg: &TopkConfig,
    workers: usize,
) -> Vec<Result<ShardedRun, ExecError>> {
    QueryPool::new(workers).try_execute(queries.to_vec(), |q| exec.run(&q, rules, cfg))
}

#[test]
fn batch_survives_any_single_query_panic() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 3);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 4);
    let expected: Vec<_> = {
        let _clean = FaultScope::install(FaultPlan::default());
        queries
            .iter()
            .map(|q| exec.run(q, &rules, &cfg).answers)
            .collect()
    };

    // Exhaustive: panic every query of the batch in turn.
    for victim in 0..queries.len() {
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![victim],
            ..FaultPlan::default()
        });
        let runs = run_batch(&exec, &queries, &rules, &cfg, 3);
        assert_eq!(runs.len(), queries.len());
        for (qi, run) in runs.iter().enumerate() {
            if qi == victim {
                let err = run.as_ref().expect_err("victim query must error");
                let ExecError::WorkerPanicked { context, payload } = err;
                assert_eq!(context, &format!("batch query {victim}"));
                assert!(payload.contains("injected fault"), "payload was: {payload}");
            } else {
                let run = run.as_ref().expect("bystander query must complete");
                trinit_shard::testkit::assert_answers_score_equivalent(&run.answers, &expected[qi]);
            }
        }
    }
}

#[test]
fn probabilistic_injection_replays_from_its_seed() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 3);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 12);
    let outcome_shape = |seed: u64| -> Vec<bool> {
        let _scope = FaultScope::install(FaultPlan {
            panic_seed: seed,
            panic_prob: 0.4,
            ..FaultPlan::default()
        });
        run_batch(&exec, &queries, &rules, &cfg, 2)
            .iter()
            .map(Result::is_ok)
            .collect()
    };
    let first = outcome_shape(7);
    assert!(
        first.iter().any(|ok| !ok),
        "prob 0.4 over 12 queries should poison something"
    );
    assert!(
        first.iter().any(|ok| *ok),
        "prob 0.4 should spare something"
    );
    assert_eq!(first, outcome_shape(7), "same seed must replay identically");
}

#[test]
fn deadline_holds_under_injected_pull_latency() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let deadline = Duration::from_millis(25);
    let cfg = TopkConfig {
        budget: ExecBudget {
            deadline: Some(deadline),
            ..ExecBudget::default()
        },
        ..TopkConfig::default()
    };
    let q = QueryBuilder::new(&single)
        .pattern_v_r_v("a", "p", "b")
        .limit(50)
        .build();
    let _scope = FaultScope::install(FaultPlan {
        pull_delay: Some(Duration::from_millis(3)),
        alloc_pressure: 1 << 16,
        ..FaultPlan::default()
    });
    let started = Instant::now();
    let run = exec.run(&q, &rules, &cfg);
    let elapsed = started.elapsed();
    // The cutoff is checked per pull, so the run overshoots by at most
    // one injected pull plus scheduling noise — far below the exact
    // run's demand (dozens of 3 ms pulls).
    assert!(
        elapsed < deadline + Duration::from_millis(250),
        "run must respect its deadline: took {elapsed:?}"
    );
    assert!(
        matches!(
            run.completeness,
            Completeness::Truncated { reason: CutoffReason::Deadline, .. }
        ),
        "latency must trip the deadline: {:?}",
        run.completeness
    );
    assert!(run.metrics.deadline_cutoffs >= 1, "{:?}", run.metrics);
}

/// Injected per-pull latency must surface in the stage histograms: the
/// faulted batch's merge-span p99 sits above the clean batch's by at
/// least the injected delay (order-insensitive — each batch records
/// into its own registry).
#[test]
fn injected_pull_latency_shifts_stage_histogram_p99() {
    use trinit_obs::{MetricsRegistry, Stage};
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 3);

    let record_batch = |pull_delay: Option<Duration>| -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        let _scope = FaultScope::install(FaultPlan {
            pull_delay,
            ..FaultPlan::default()
        });
        for run in run_batch(&exec, &queries, &rules, &cfg, 2) {
            registry.record_trace(&run.expect("no panics planned").trace);
        }
        registry
    };

    // Every pull runs inside the merge span, one per query.
    let clean = record_batch(None);
    let slow = record_batch(Some(Duration::from_millis(2)));
    assert_eq!(clean.stage(Stage::Merge).count(), 3);
    let clean_p99 = clean.stage(Stage::Merge).quantile(0.99);
    let slow_p99 = slow.stage(Stage::Merge).quantile(0.99);
    assert!(
        slow_p99 >= clean_p99 + 1_000_000,
        "2 ms per pull must lift the merge-span p99 by at least 1 ms: \
         clean {clean_p99} ns vs faulted {slow_p99} ns"
    );
}

/// A budget-truncated run still carries a full trace, ending in the
/// cutoff event that explains *why* it stopped.
#[test]
fn truncated_runs_trace_their_cutoff() {
    use trinit_obs::Stage;
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig {
        budget: ExecBudget {
            deadline: Some(Duration::from_millis(10)),
            ..ExecBudget::default()
        },
        ..TopkConfig::default()
    };
    let q = QueryBuilder::new(&single)
        .pattern_v_r_v("a", "p", "b")
        .limit(50)
        .build();
    let _scope = FaultScope::install(FaultPlan {
        pull_delay: Some(Duration::from_millis(3)),
        ..FaultPlan::default()
    });
    let run = exec.run(&q, &rules, &cfg);
    assert!(
        matches!(run.completeness, Completeness::Truncated { .. }),
        "latency must trip the deadline: {:?}",
        run.completeness
    );
    assert!(!run.trace.is_empty(), "truncated runs still trace");
    assert!(
        run.trace.stage_count(Stage::Cutoff) >= 1,
        "the trace records the cutoff: {:?}",
        run.trace
    );
    assert_eq!(run.trace.stage_count(Stage::Query), 1);
}

#[test]
fn unfaulted_runs_are_unaffected_by_a_cleared_plan() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 2);
    {
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![0],
            ..FaultPlan::default()
        });
        let runs = run_batch(&exec, &queries, &rules, &cfg, 2);
        assert!(runs[0].is_err());
        assert!(runs[1].is_ok());
    }
    // The faulted scope dropped: under a clean plan the same batch
    // completes.
    let _clean = FaultScope::install(FaultPlan::default());
    let runs = run_batch(&exec, &queries, &rules, &cfg, 2);
    assert!(runs.iter().all(Result::is_ok), "cleared plan must not leak");
}

//! Facade-level fault-injection acceptance test (feature `faults`).
//!
//! The contract a serving tier builds on: a batch submitted through
//! [`Trinit::run_batch`] survives any single worker panic — the
//! poisoned query's slot carries a typed [`ExecError::WorkerPanicked`],
//! every other query completes with its normal answers, and the process
//! never aborts.

#![cfg(feature = "faults")]

use trinit_core::faults::{FaultPlan, FaultScope};
use trinit_core::worldgen::{CorpusConfig, KgConfig, World, WorldConfig};
use trinit_core::{Counter, Engine, ExecError, Trinit, TrinitBuilder};
use trinit_query::Query;

fn tiny_system(shards: usize) -> Trinit {
    let world = World::generate(WorldConfig::tiny(11));
    let mut builder =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(7));
    builder.options_mut().shards(shards);
    builder.build()
}

const TEXTS: [&str; 3] = [
    "?x type person LIMIT 4",
    "?x type university LIMIT 3",
    "?x type city LIMIT 5",
];

fn parse_all(sys: &Trinit) -> Vec<Query> {
    TEXTS.iter().map(|t| sys.parse(t).unwrap()).collect()
}

#[test]
fn run_batch_isolates_a_single_worker_panic() {
    let sys = tiny_system(4);
    let sequential: Vec<_> = {
        let _clean = FaultScope::install(FaultPlan::default());
        TEXTS
            .iter()
            .map(|t| sys.query(t).unwrap().answers)
            .collect()
    };

    let victim = 1;
    let _scope = FaultScope::install(FaultPlan {
        query_panics: vec![victim],
        ..FaultPlan::default()
    });
    let batch = sys.run_batch(parse_all(&sys), Engine::IncrementalTopK);
    assert_eq!(batch.len(), TEXTS.len());
    for (qi, outcome) in batch.iter().enumerate() {
        if qi == victim {
            let err = outcome.as_ref().expect_err("victim query must error");
            let ExecError::WorkerPanicked { context, payload } = err;
            assert_eq!(context, &format!("batch query {victim}"));
            assert!(payload.contains("injected fault"), "payload was: {payload}");
        } else {
            let outcome = outcome.as_ref().expect("bystander query must complete");
            assert_eq!(outcome.answers.len(), sequential[qi].len());
            for (x, y) in outcome.answers.iter().zip(&sequential[qi]) {
                assert!((x.score - y.score).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn fixed_pool_batches_also_isolate_panics() {
    // The one batch pool serves both backends: a monolithic system and
    // a sharded one isolate the same planned panic the same way.
    for shards in [1usize, 2] {
        let sys = tiny_system(shards);
        assert_eq!(sys.sharded_store().is_some(), shards > 1);
        let victim = 2;
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![victim],
            ..FaultPlan::default()
        });
        let batch = sys.run_batch(parse_all(&sys), Engine::IncrementalTopK);
        let err = batch[victim].as_ref().expect_err("victim query must error");
        let ExecError::WorkerPanicked { context, .. } = err;
        assert_eq!(context, &format!("batch query {victim}"), "shards={shards}");
        for (qi, outcome) in batch.iter().enumerate() {
            if qi != victim {
                let outcome = outcome.as_ref().expect("bystander query must complete");
                assert!(!outcome.answers.is_empty(), "query {qi} lost its answers");
            }
        }
        let registry = sys.registry();
        assert_eq!(registry.get(Counter::QueryFailures), 1, "shards={shards}");
        assert_eq!(
            registry.get(Counter::Queries),
            TEXTS.len() as u64 - 1,
            "every bystander is counted, shards={shards}"
        );
    }
}

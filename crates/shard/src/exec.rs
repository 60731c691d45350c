//! The sharded executor (the cross-shard merge) and the batch query
//! pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use trinit_obs::{QueryTrace, Stage, TraceRecorder};
use trinit_query::exec::sharded::run_partitioned;
use trinit_query::exec::topk::TopkConfig;
use trinit_query::{
    describe_panic, Answer, BudgetTracker, Completeness, ExecError, ExecMetrics, Query,
    SharedPostingCache,
};
use trinit_relax::{ConditionOracle, RuleSet};

use crate::store::ShardedStore;

#[cfg(test)]
mod segmented;

/// The outcome of one sharded execution.
#[derive(Debug)]
pub struct ShardedRun {
    /// Top-k answers, best first; derivation triple ids are global
    /// (resolve them with [`ShardedStore::resolve`]).
    pub answers: Vec<Answer>,
    /// Aggregate work counters of the merge: the sum of `per_shard`.
    pub metrics: ExecMetrics,
    /// Each slice's share of the merge's posting work: the base shards
    /// in shard order, then any live delta slices.
    pub per_shard: Vec<ExecMetrics>,
    /// The exactness guarantee of `answers` under the query's
    /// [`trinit_query::ExecBudget`]: `Exact` unless an ε/θ criterion
    /// retired work or a hard budget cutoff fired.
    pub completeness: Completeness,
    /// Per-stage execution trace: the query span, the merge span, and
    /// the pipeline's variant spans and windowed pull/election spans.
    /// Empty when [`ObsConfig`](trinit_obs::ObsConfig) is off.
    pub trace: QueryTrace,
}

/// Executes queries over a [`ShardedStore`]: merges the shards' posting
/// streams under the engine's tightened global threshold. The merge is
/// complete and exact on its own, so it is the whole execution.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor<'a> {
    store: &'a ShardedStore,
    /// One store-level posting cache per shard, if caching is enabled.
    caches: Option<&'a [SharedPostingCache]>,
}

impl<'a> ShardedExecutor<'a> {
    /// An executor without store-level posting caches.
    pub fn new(store: &'a ShardedStore) -> ShardedExecutor<'a> {
        ShardedExecutor {
            store,
            caches: None,
        }
    }

    /// Attaches one store-level posting cache per shard (cached lists
    /// are shard-specific, so the set's length must equal the shard
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `caches.len()` differs from the shard count.
    pub fn with_caches(mut self, caches: &'a [SharedPostingCache]) -> ShardedExecutor<'a> {
        assert_eq!(
            caches.len(),
            self.store.shard_count(),
            "one posting cache per shard"
        );
        self.caches = Some(caches);
        self
    }

    /// Answers `query` with the cross-shard merge under a fresh budget
    /// tracker, recording the query and merge spans.
    pub fn run(&self, query: &Query, rules: &RuleSet, cfg: &TopkConfig) -> ShardedRun {
        let tracker = BudgetTracker::new(cfg);
        let mut recorder = cfg.obs.recorder();
        let query_start = recorder.start();
        let mut run = self.merge(query, rules, cfg, &tracker, None, &mut recorder);
        recorder.record(Stage::Query, run.answers.len() as u32, query_start);
        run.trace = recorder.finish();
        run
    }

    /// Cross-shard merge with query pattern `position`'s merge source
    /// confined to the delta slices — the semi-naive delta-query seam:
    /// every answer uses at least one freshly ingested triple for that
    /// pattern, while the other patterns still read the full base ∪
    /// delta union (and scores normalize over the union, so they equal
    /// a full run's). Spans go to the caller's `recorder`, which the
    /// caller finishes; the returned trace is empty.
    ///
    /// # Panics
    ///
    /// Panics if the store has no live delta
    /// ([`ShardedStore::has_delta`]).
    pub fn run_delta_restricted(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        position: usize,
        tracker: &BudgetTracker,
        recorder: &mut TraceRecorder,
    ) -> ShardedRun {
        assert!(
            self.store.has_delta(),
            "delta-restricted run requires a live delta"
        );
        self.merge(query, rules, cfg, tracker, Some(position), recorder)
    }

    /// The merge core: base shards plus any live delta views as extra
    /// slices, optionally restricting one pattern to the delta
    /// sub-range.
    fn merge(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        tracker: &BudgetTracker,
        restrict_pattern: Option<usize>,
        recorder: &mut TraceRecorder,
    ) -> ShardedRun {
        let mut shard_refs: Vec<&trinit_xkg::XkgStore> = self.store.shards().iter().collect();
        let mut offsets: Vec<u32> = self.store.offsets().to_vec();
        let n_base = shard_refs.len();
        for (view, offset) in self.store.delta_slices() {
            shard_refs.push(view);
            offsets.push(offset);
        }
        let restrict = restrict_pattern.map(|j| (j, n_base..shard_refs.len()));
        let merge_start = recorder.start();
        let run = run_partitioned(
            &shard_refs,
            &offsets,
            self.store,
            self.store,
            Some(self.store as &dyn ConditionOracle),
            query,
            rules,
            cfg,
            self.caches,
            tracker,
            restrict,
            recorder,
        );
        recorder.record(Stage::Merge, shard_refs.len() as u32, merge_start);
        ShardedRun {
            answers: run.answers,
            metrics: run.metrics,
            per_shard: run.per_shard,
            completeness: run.completeness,
            // The caller that owns the query's recorder finishes it.
            trace: QueryTrace::default(),
        }
    }
}

/// A fixed-size worker pool executing independent queries concurrently
/// over a shared engine — the one batch path of both backends. Workers
/// claim queries off an atomic cursor; results land in input order.
#[derive(Debug)]
pub struct QueryPool {
    workers: usize,
}

impl QueryPool {
    /// A pool of `workers` concurrent workers (at least one).
    pub fn new(workers: usize) -> QueryPool {
        QueryPool {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `run` once per input concurrently, returning outputs in
    /// input order. `run` must be safe to call from multiple threads —
    /// the query engines are read-only over `Sync` stores, so closures
    /// capturing a store or executor qualify.
    ///
    /// Each call is wrapped in [`catch_unwind`], so one query's panic
    /// becomes a typed [`ExecError::WorkerPanicked`] in its own output
    /// slot while every other query completes normally. The worker
    /// thread that caught the panic keeps claiming further inputs.
    pub fn try_execute<I, O, F>(&self, inputs: Vec<I>, run: F) -> Vec<Result<O, ExecError>>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let guarded = |i: usize, input: I| {
            catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "faults")]
                trinit_query::faults::on_batch_query(i);
                run(input)
            }))
            .map_err(|payload| ExecError::WorkerPanicked {
                context: format!("batch query {i}"),
                payload: describe_panic(payload.as_ref()),
            })
        };
        let n = inputs.len();
        let threads = self.workers.min(n);
        if threads <= 1 {
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| guarded(i, input))
                .collect();
        }
        let slots: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let out: Vec<Mutex<Option<Result<O, ExecError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Poison recovery is sound here: the slots hold
                    // whole-value `Option` writes, so a panicking
                    // holder cannot leave them logically torn.
                    let input = slots[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    // lint:allow(no-panic-hot-path): the atomic cursor hands out each index exactly once, so a claimed slot is always populated
                    let input = input.expect("input claimed once");
                    let result = guarded(i, input);
                    *out[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });
        out.into_iter()
            .map(|slot| {
                let produced = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                // lint:allow(no-panic-hot-path): unreachable — `guarded` catches every query panic, so each worker writes every slot it claimed
                produced.expect("every input produced an output")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_query::exec::topk;
    use trinit_query::QueryBuilder;
    use trinit_relax::{Rule, RuleProvenance};
    use trinit_xkg::XkgBuilder;

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..20u32 {
            b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
            b.add_kg_resources(&format!("y{i}"), "q", &format!("z{}", i % 4));
        }
        let src = b.intern_source("doc");
        for i in 0..8u32 {
            let s = b.dict_mut().resource(&format!("x{i}"));
            let p = b.dict_mut().token("close to");
            let o = b.dict_mut().resource(&format!("y{}", (i + 3) % 20));
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

    use crate::testkit::assert_answers_score_equivalent as assert_same_answers;

    #[test]
    fn sharded_merge_matches_the_monolith() {
        let single = builder().build();
        let rules = rules(&single);
        let cfg = TopkConfig::default();
        let queries = [
            QueryBuilder::new(&single)
                .pattern_v_r_v("a", "p", "b")
                .pattern_v_r_v("b", "q", "c")
                .limit(12)
                .build(),
            QueryBuilder::new(&single)
                .pattern_r_r_v("x3", "p", "b")
                .limit(4)
                .build(),
        ];
        for q in &queries {
            let (mono, mono_metrics) = topk::run(&single, q, &rules, &cfg);
            for shards in [1usize, 3] {
                let sharded = ShardedStore::build(builder(), shards);
                let run = ShardedExecutor::new(&sharded).run(q, &rules, &cfg);
                assert_same_answers(&run.answers, &mono);
                assert_eq!(run.per_shard.len(), shards);
                if shards == 1 {
                    // One shard is the monolith: the merge alone does
                    // exactly the monolithic engine's work.
                    assert_eq!(run.metrics.pulls, mono_metrics.pulls, "{q:?}");
                    assert_eq!(
                        run.metrics.postings_scanned, mono_metrics.postings_scanned,
                        "{q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_derivations_resolve_globally() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 4);
        let q = QueryBuilder::new(&single)
            .pattern_r_r_v("x1", "p", "b")
            .limit(5)
            .build();
        let run = ShardedExecutor::new(&sharded).run(&q, &rules, &TopkConfig::default());
        assert!(!run.answers.is_empty());
        for answer in &run.answers {
            for (pattern, id) in &answer.derivation.triples {
                // Global ids resolve to real triples matching the
                // evaluated pattern's constants.
                let t = sharded.triple(*id);
                if let trinit_relax::QTerm::Term(s) = pattern.s {
                    assert_eq!(t.s, s);
                }
            }
        }
    }

    #[test]
    fn shard_caches_serve_repeat_queries_without_changing_answers() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let caches: Vec<SharedPostingCache> =
            (0..3).map(|_| SharedPostingCache::new(64)).collect();
        let exec = ShardedExecutor::new(&sharded).with_caches(&caches);
        let q = QueryBuilder::new(&single)
            .pattern_r_r_v("x2", "p", "b")
            .limit(5)
            .build();
        let cfg = TopkConfig::default();
        let cold = exec.run(&q, &rules, &cfg);
        let warm = exec.run(&q, &rules, &cfg);
        assert_same_answers(&cold.answers, &warm.answers);
        assert!(
            warm.metrics.shared_cache_hits > 0,
            "repeat query must hit the shard caches: {:?}",
            warm.metrics
        );
    }

    #[test]
    fn metrics_aggregate_per_shard_work() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(8)
            .build();
        let run = ShardedExecutor::new(&sharded).run(&q, &rules, &TopkConfig::default());
        let scanned: usize = run.per_shard.iter().map(|m| m.postings_scanned).sum();
        assert_eq!(
            scanned, run.metrics.postings_scanned,
            "aggregate postings must equal the per-shard sum"
        );
        assert!(run.metrics.pulls > 0);
    }

    #[test]
    fn sharded_runs_carry_a_per_stage_trace() {
        use trinit_obs::{ObsConfig, Stage};
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let exec = ShardedExecutor::new(&sharded);
        let cfg = TopkConfig::default();
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(6)
            .build();
        let run = exec.run(&q, &rules, &cfg);
        let trace = &run.trace;
        assert_eq!(trace.stage_count(Stage::Query), 1);
        assert_eq!(trace.stage_count(Stage::Merge), 1);
        assert_eq!(trace.stage_count(Stage::SeedTask), 0, "no seed phase");
        // The query span encloses the whole run, so it dominates every
        // other stage's total.
        assert!(trace.stage_total_ns(Stage::Query) >= trace.stage_total_ns(Stage::Merge));
        let off = TopkConfig {
            obs: ObsConfig::off(),
            ..TopkConfig::default()
        };
        let silent = exec.run(&q, &rules, &off);
        assert!(silent.trace.is_empty(), "disabled obs must record nothing");
        assert_same_answers(&silent.answers, &run.answers);
    }

    #[test]
    fn query_pool_preserves_input_order() {
        let pool = QueryPool::new(4);
        assert_eq!(pool.workers(), 4);
        let inputs: Vec<usize> = (0..57).collect();
        let out = pool.try_execute(inputs, |i| i * 3);
        let out: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, (0..57).map(|i| i * 3).collect::<Vec<_>>());
        assert!(pool.try_execute(Vec::new(), |i: usize| i).is_empty());
    }

    #[test]
    fn query_pool_isolates_a_panicking_query() {
        for workers in [1usize, 3] {
            let out = QueryPool::new(workers).try_execute((0..6).collect(), |i: usize| {
                assert_ne!(i, 4, "query four fails");
                i
            });
            for (i, result) in out.iter().enumerate() {
                match result {
                    Ok(v) => assert_eq!(*v, i),
                    Err(ExecError::WorkerPanicked { context, payload }) => {
                        assert_eq!(i, 4, "only the panicking query fails");
                        assert_eq!(context, "batch query 4");
                        assert!(payload.contains("query four fails"), "{payload}");
                    }
                }
            }
            assert!(out[4].is_err(), "workers={workers}");
        }
    }

    #[test]
    fn query_pool_batches_equal_per_query_runs() {
        let single = builder().build();
        let rules = rules(&single);
        let cfg = TopkConfig::default();
        let queries: Vec<_> = (0..6)
            .map(|i| {
                QueryBuilder::new(&single)
                    .pattern_r_r_v(&format!("x{i}"), "p", "b")
                    .limit(4)
                    .build()
            })
            .chain(std::iter::once(
                QueryBuilder::new(&single)
                    .pattern_v_r_v("a", "p", "b")
                    .pattern_v_r_v("b", "q", "c")
                    .limit(9)
                    .build(),
            ))
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| topk::run(&single, q, &rules, &cfg).0)
            .collect();
        for shards in [2usize, 3] {
            let sharded = ShardedStore::build(builder(), shards);
            let exec = ShardedExecutor::new(&sharded);
            for workers in [1usize, 2, 4] {
                let got = QueryPool::new(workers)
                    .try_execute(queries.clone(), |q| exec.run(&q, &rules, &cfg).answers);
                assert_eq!(got.len(), queries.len());
                for (g, e) in got.iter().zip(&expected) {
                    assert_same_answers(g.as_ref().expect("no query panicked"), e);
                }
            }
        }
    }
}

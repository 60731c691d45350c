//! The workloads: set-up, the measured phases, the answer checks, and
//! the metrics they report.
//!
//! Load comes from this one process. Every client is closed-loop: it
//! sends its next query only when the last one has returned. Batches
//! run through `Trinit::run_batch`, which uses at most `nproc` workers.

use std::hint::black_box;
use std::num::NonZeroUsize;

use trinit_core::{Engine, QueryOutcome, Session, Trinit};
use trinit_eval::{grade_ranking, ndcg_at};
use trinit_obs::{now_ns, Gauge, ObsConfig, Stage};
use trinit_query::exec::drive::run_governed;
use trinit_query::{plan_order, Completeness, ExecMetrics, Query};
use trinit_relax::{apply_rule, QPattern, RuleSet};
use trinit_xkg::{PostingList, SegmentLayout, SlotPattern, XkgBuilder, XkgStore};

use crate::calib::Calibrator;
use crate::check::{compare, fnv1a, Observed, Ranking};
use crate::inputs::{fill, session_stream, Batches, Extraction, Inputs};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Shares of `--seconds` for single-query reads, batches and writes on
/// the read workloads; `ingest` spends all of it on write cycles.
const READ_SHARE: f64 = 0.45;
const BATCH_SHARE: f64 = 0.15;
const WRITE_SHARE: f64 = 0.4;
/// Reads and batches alternate in this many rounds.
const ROUNDS: usize = 3;
/// Reads continue past their time until the p99 has 10 samples beyond it.
const MIN_READS: usize = 1000;
const MIN_BATCHES: usize = 5;
/// Queries a sharded batch carries.
const SHARDED_BATCH: usize = 16;
/// Queries each write cycle runs one at a time on `ingest`, and asks
/// `answers_introduced_by` about.
const CYCLE_QUERIES: usize = 20;
/// Least write cycles the read workloads end with; each compacts, so
/// the compaction median has 15 samples beyond it.
const PROBE_CYCLES: u64 = 30;
/// `ingest` runs epochs of this many cycles, each on a replica rebuilt
/// fresh, so the store grows the same way however fast the program is;
/// it compacts every `COMPACT_EVERY`th cycle. Every replica runs at
/// least one epoch.
const EPOCH_CYCLES: u64 = 25;
const COMPACT_EVERY: u64 = 5;
/// Interleaved sweeps per side when comparing `ObsConfig::off` with the
/// default.
const OBS_ROUNDS: usize = 9;
/// Repetitions of each per-layer probe over its inputs.
const PROBE_REPS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Explore,
    ScalePacked,
    Sharded,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Explore,
        Workload::ScalePacked,
        Workload::Sharded,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::ScalePacked => "scale_packed",
            Workload::Sharded => "sharded",
            Workload::Ingest => "ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, scale: Option<f64>) -> Spec {
        let (scale_default, shards, layout, k, replicas) = match self {
            Workload::Explore | Workload::Ingest => (1.0, 1, SegmentLayout::Flat, 10, 5),
            Workload::ScalePacked => (4.0, 1, SegmentLayout::Packed, 50, 3),
            Workload::Sharded => (1.0, 2, SegmentLayout::Flat, 10, 5),
        };
        Spec {
            scale: scale.unwrap_or(scale_default),
            shards,
            layout,
            k,
            replicas,
        }
    }
}

/// How a workload's system is built and queried.
struct Spec {
    scale: f64,
    shards: usize,
    layout: SegmentLayout,
    k: usize,
    /// Deployments per run, each over its own world: averaging over
    /// several worlds keeps one run's figures from hanging on which
    /// queries one world happens to make expensive. Each is set up once,
    /// which gives the set-up median its samples.
    replicas: usize,
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// World scale in place of the workload's own (self-tests only).
    pub scale: Option<f64>,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// The timed end-to-end metrics as measured, before calibration.
    pub raw_timings: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The number of samples behind each percentile and median.
    pub samples: Vec<(&'static str, usize)>,
    /// Digest of the reference answers to the queries before any write.
    pub digest: String,
    /// The calibration factors applied: median, least and greatest.
    pub calibration: [f64; 3],
}

/// Layers whose self time the traced run reports: the workspace crates
/// the benchmark calls into, its own code (`bench`) and set-up.
const SELF_TIMES: [(&str, &str); 7] = [
    ("setup", "setup.self_ms"),
    ("bench", "bench.self_ms"),
    ("core", "core.self_ms"),
    ("query", "query.self_ms"),
    ("relax", "relax.self_ms"),
    ("xkg", "xkg.self_ms"),
    ("shard", "shard.self_ms"),
];

/// Runs one workload; with `opts.trace`, inside a root span whose self
/// times per layer join the per-layer metrics.
pub fn run(opts: &Options) -> Result<(Report, Tracer), String> {
    let mut tr = Tracer::new(opts.trace);
    let mut report = tr.span("bench.run", |tr| measure(opts, tr))?;
    let self_ns = tr.self_times();
    for (layer, name) in SELF_TIMES {
        let value = ms(self_ns.get(layer).copied().unwrap_or(0));
        report.per_layer.push(Metric {
            name,
            unit: "ms",
            value,
        });
    }
    let sum = ms(self_ns.values().sum());
    report.per_layer.push(Metric {
        name: "trace.root_ms",
        unit: "ms",
        value: ms(tr.root_ns()),
    });
    report.per_layer.push(Metric {
        name: "trace.self_sum_ms",
        unit: "ms",
        value: sum,
    });
    Ok((report, tr))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The process's peak resident set, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".to_string())
}

fn freeze_ns(sys: &Trinit) -> (u64, u64) {
    match (sys.segmented_store(), sys.sharded_store()) {
        (Some(seg), _) => (seg.last_ingest_ns(), seg.last_compact_ns()),
        (None, Some(sharded)) => (sharded.last_ingest_ns(), sharded.last_compact_ns()),
        (None, None) => (0, 0),
    }
}

fn parse(sys: &Trinit, text: &str, k: usize, tr: &mut Tracer) -> Result<Query, String> {
    let mut q = tr
        .span("query.parse", |_| sys.parse(text))
        .map_err(|e| format!("parse {text:?}: {e:?}"))?;
    q.k = k;
    Ok(q)
}

/// Who sends a query: the system directly, or one user's session.
#[derive(Clone, Copy)]
enum Client<'a> {
    System(&'a Trinit),
    Session(&'a Session<'a>),
}

/// Per-query work as the program reports it, summed.
#[derive(Default)]
struct Work {
    runs: u64,
    metrics: ExecMetrics,
    variant_ns: u64,
    join_ns: u64,
    seed_ns: u64,
    merge_ns: u64,
    elections: u64,
    /// `Trinit::run` time outside the engine's own query span.
    overhead_ns: u64,
}

impl Work {
    fn add(&mut self, o: &QueryOutcome, run_ns: u64) {
        let t = &o.trace;
        self.runs += 1;
        self.metrics.merge(&o.metrics);
        self.variant_ns += t.stage_total_ns(Stage::Variant);
        self.join_ns += t.stage_total_ns(Stage::JoinRound);
        self.seed_ns += t.stage_total_ns(Stage::SeedTask);
        self.merge_ns += t.stage_total_ns(Stage::Merge);
        self.elections += t
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Election)
            .map(|s| u64::from(s.detail))
            .sum::<u64>();
        self.overhead_ns += run_ns.saturating_sub(t.stage_total_ns(Stage::Query));
    }

    fn per_run(&self, total: f64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            total / self.runs as f64
        }
    }
}

/// One timed quantity's samples in milliseconds, as measured and
/// calibrated (see `calib`).
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    cal: Vec<f64>,
}

impl Samples {
    fn push(&mut self, ns: u64, factor: f64) {
        self.raw.push(ns as f64 / 1e6);
        self.cal.push(ns as f64 * factor / 1e6);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    fn get(&self, calibrated: bool) -> &[f64] {
        if calibrated {
            &self.cal
        } else {
            &self.raw
        }
    }
}

/// Everything a run measures and counts. The per-layer figures are raw.
struct Acc {
    cal: Calibrator,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Set-up times in milliseconds, as measured.
    setup_ms: Vec<f64>,
    query: Samples,
    work: Work,
    batch_queries: u64,
    batch: Samples,
    pool_busy_ns: u64,
    pool_ns: u64,
    ingest: Samples,
    introduced: Samples,
    compact: Samples,
    ingest_freeze_ms: Vec<f64>,
    compact_freeze_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            cal: Calibrator::new(nproc()),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_ms: Vec::new(),
            query: Samples::default(),
            work: Work::default(),
            batch_queries: 0,
            batch: Samples::default(),
            pool_busy_ns: 0,
            pool_ns: 0,
            ingest: Samples::default(),
            introduced: Samples::default(),
            compact: Samples::default(),
            ingest_freeze_ms: Vec::new(),
            compact_freeze_ms: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Counts one answered query; anything but an exact answer under the
    /// unlimited budget is a failure.
    fn judge(&mut self, o: &QueryOutcome, what: &str) -> bool {
        if matches!(o.completeness, Completeness::Exact) {
            self.attempted += 1;
            true
        } else {
            self.fail(format!("{what}: completeness {:?}", o.completeness));
            false
        }
    }

    /// Parses and runs one query; `timed` adds it to the query latency
    /// samples and the per-query work.
    fn query(
        &mut self,
        client: Client<'_>,
        text: &str,
        k: usize,
        tr: &mut Tracer,
        timed: bool,
    ) -> Option<QueryOutcome> {
        let sys = match client {
            Client::System(sys) => sys,
            Client::Session(session) => session.system(),
        };
        // A sharded query runs its seed phase on every worker.
        let wide = sys.shard_count() > 1;
        if wide {
            self.cal.tick_wide();
        } else {
            self.cal.tick();
        }
        let start = now_ns();
        let q = match parse(sys, text, k, tr) {
            Ok(q) => q,
            Err(e) => {
                self.fail(e);
                return None;
            }
        };
        let (o, run_ns) = tr.span("core.run", |_| {
            let run_start = now_ns();
            let o = match client {
                Client::System(sys) => sys.run(q, Engine::IncrementalTopK),
                Client::Session(session) => session.run(q, Engine::IncrementalTopK),
            };
            (o, now_ns() - run_start)
        });
        let total_ns = now_ns() - start;
        tr.attach(&o.trace, wide);
        if timed {
            let factor = if wide {
                self.cal.factor_wide()
            } else {
                self.cal.factor()
            };
            self.query.push(total_ns, factor);
            self.work.add(&o, run_ns);
        }
        self.judge(&o, text).then_some(o)
    }

    /// Sends the queries `idx` as one `run_batch`.
    fn batch(
        &mut self,
        sys: &Trinit,
        idx: &[usize],
        texts: &[&str],
        k: usize,
        tr: &mut Tracer,
        mut seen: Option<&mut Observed>,
    ) {
        let workers = if sys.shard_count() > 1 {
            sys.shard_count()
        } else {
            nproc()
        };
        self.cal.tick_wide();
        let start = now_ns();
        let mut sent = Vec::with_capacity(idx.len());
        let mut queries = Vec::with_capacity(idx.len());
        let mut errors = Vec::new();
        let results = tr.span("core.batch", |tr| {
            for &i in idx {
                match parse(sys, texts[i], k, tr) {
                    Ok(q) => {
                        sent.push(i);
                        queries.push(q);
                    }
                    Err(e) => errors.push(e),
                }
            }
            sys.run_batch(queries, Engine::IncrementalTopK)
        });
        let wall = now_ns() - start;
        for e in errors {
            self.fail(e);
        }
        self.batch_queries += results.len() as u64;
        self.batch.push(wall, self.cal.factor_wide());
        self.pool_ns += workers as u64 * wall;
        for (i, result) in sent.into_iter().zip(results) {
            match result {
                Ok(o) => {
                    self.pool_busy_ns += o.trace.stage_total_ns(Stage::Query);
                    if self.judge(&o, texts[i]) {
                        if let Some(seen) = seen.as_deref_mut() {
                            seen.record(i, k, &o.answers);
                        }
                    }
                }
                Err(e) => self.fail(format!("{}: {e:?}", texts[i])),
            }
        }
    }

    /// One write cycle: ingest a batch; with `requery`, re-run `idx` one
    /// at a time; ask which answers the batch introduced; with `requery`,
    /// send the whole set as one batch; optionally compact.
    #[allow(clippy::too_many_arguments)]
    fn cycle(
        &mut self,
        sys: &mut Trinit,
        batch: &[Extraction],
        idx: &[usize],
        texts: &[&str],
        k: usize,
        requery: bool,
        compact: bool,
        tr: &mut Tracer,
    ) {
        self.cal.tick();
        let start = now_ns();
        tr.span("core.ingest", |tr| {
            sys.ingest(|b| fill(b, batch));
            tr.ended_now("xkg.ingest_freeze", freeze_ns(sys).0);
        });
        self.ingest.push(now_ns() - start, self.cal.factor());
        self.ingest_freeze_ms.push(ms(freeze_ns(sys).0));
        self.attempted += 1;
        let sys_ref: &Trinit = sys;
        if requery {
            for &i in idx {
                self.query(Client::System(sys_ref), texts[i], k, tr, true);
            }
        }
        for &i in idx {
            self.cal.tick();
            let start = now_ns();
            let q = match parse(sys_ref, texts[i], k, tr) {
                Ok(q) => q,
                Err(e) => {
                    self.fail(e);
                    continue;
                }
            };
            let o = tr.span("core.introduced", |_| sys_ref.answers_introduced_by(q));
            self.introduced.push(now_ns() - start, self.cal.factor());
            tr.attach(&o.trace, sys_ref.shard_count() > 1);
            self.judge(&o, texts[i]);
        }
        if requery {
            let all: Vec<usize> = (0..texts.len()).collect();
            self.batch(sys_ref, &all, texts, k, tr, None);
        }
        if compact {
            self.cal.tick();
            let start = now_ns();
            tr.span("core.compact", |tr| {
                sys.compact();
                tr.ended_now("xkg.compact_freeze", freeze_ns(sys).1);
            });
            self.compact.push(now_ns() - start, self.cal.factor());
            self.compact_freeze_ms.push(ms(freeze_ns(sys).1));
            self.attempted += 1;
        }
    }
}

/// The queries a write cycle runs: the next `CYCLE_QUERIES` of the set.
fn cycle_queries(cycle: u64, n: usize) -> Vec<usize> {
    (0..CYCLE_QUERIES)
        .map(|j| (cycle as usize * CYCLE_QUERIES + j) % n)
        .collect()
}

/// Per-layer numbers measured by calling one layer's functions directly
/// on a monolithic store, outside any query.
#[derive(Default)]
struct Probes {
    lookup_ns: f64,
    posting_build_ns: f64,
    posting_entries: f64,
    alternatives: f64,
    apply_ns: f64,
    parse_us: f64,
    plan_ns: f64,
    engine_ms: f64,
}

/// Rewritings of `patterns` by the single-pattern rules of their
/// predicates, applied up to two rules deep.
fn alternatives(patterns: &[QPattern], rules: &RuleSet) -> Vec<Vec<QPattern>> {
    let mut out = Vec::new();
    let mut frontier = vec![patterns.to_vec()];
    for _depth in 0..2 {
        let mut next = Vec::new();
        for q in &frontier {
            for p in q {
                let Some(pred) = p.p.term() else { continue };
                for &id in rules.rules_for_predicate(pred) {
                    next.extend(
                        apply_rule(q, rules.get(id), id)
                            .into_iter()
                            .map(|rw| rw.patterns),
                    );
                }
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn probes(
    sys: &Trinit,
    store: &XkgStore,
    texts: &[&str],
    k: usize,
    tr: &mut Tracer,
) -> Result<Probes, String> {
    let rules = sys.rules();
    let mut queries = Vec::with_capacity(texts.len());
    for text in texts {
        queries.push(parse(sys, text, k, &mut Tracer::new(false))?);
    }
    let n = queries.len().max(1) as f64;
    let timed = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let start = now_ns();
        tr.span(name, |_| f());
        (now_ns() - start) as f64
    };

    let mut alts = Vec::new();
    let apply = timed(tr, "relax.apply", &mut || {
        alts = queries
            .iter()
            .map(|q| alternatives(&q.patterns, rules))
            .collect::<Vec<_>>();
    });
    let mut slots: Vec<SlotPattern> = queries
        .iter()
        .map(|q| &q.patterns)
        .chain(alts.iter().flatten())
        .flat_map(|ps| ps.iter().map(QPattern::slot_pattern))
        .collect();
    slots.sort_by_key(|s| (s.s, s.p, s.o));
    slots.dedup();
    let calls = (slots.len() * PROBE_REPS).max(1) as f64;

    let lookup = timed(tr, "xkg.lookup", &mut || {
        for _ in 0..PROBE_REPS {
            for s in &slots {
                black_box(store.lookup(black_box(s)).len());
                black_box(store.count(black_box(s)));
            }
        }
    });
    let mut entries = 0usize;
    let build = timed(tr, "xkg.posting_build", &mut || {
        for _ in 0..PROBE_REPS {
            for s in &slots {
                entries += black_box(PostingList::build(store, black_box(s))).len();
            }
        }
    });
    let parse_ns = timed(tr, "query.parse", &mut || {
        for _ in 0..PROBE_REPS {
            for text in texts {
                let _ = black_box(sys.parse(black_box(text)));
            }
        }
    });
    let plan = timed(tr, "query.plan", &mut || {
        for _ in 0..PROBE_REPS {
            for q in &queries {
                black_box(plan_order(store, black_box(&q.patterns)));
            }
        }
    });
    let cfg = sys.topk_config();
    let mut engine_ns = 0.0;
    for q in &queries {
        let start = now_ns();
        let run = tr.span("query.engine", |_| run_governed(store, q, rules, cfg, None));
        engine_ns += (now_ns() - start) as f64;
        tr.attach(&run.trace, false);
    }
    Ok(Probes {
        lookup_ns: lookup / calls,
        posting_build_ns: build / calls,
        posting_entries: entries as f64 / calls,
        alternatives: alts.iter().map(Vec::len).sum::<usize>() as f64 / n,
        apply_ns: apply / n,
        parse_us: parse_ns / (n * PROBE_REPS as f64) / 1e3,
        plan_ns: plan / (n * PROBE_REPS as f64),
        engine_ms: engine_ns / n / 1e6,
    })
}

/// Instrumentation overhead: sweeps of the query set with the default
/// `ObsConfig` against sweeps with `ObsConfig::off`, interleaved, in
/// percent of the median off sweep.
fn obs_overhead_pct(sys: &mut Trinit, texts: &[&str], k: usize) -> Result<f64, String> {
    let mut sides: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for round in 0..OBS_ROUNDS {
        for side in [round % 2, 1 - round % 2] {
            sys.set_obs(if side == 0 {
                ObsConfig::default()
            } else {
                ObsConfig::off()
            });
            let start = now_ns();
            for text in texts {
                let q = parse(sys, text, k, &mut Tracer::new(false))?;
                black_box(sys.run(q, Engine::IncrementalTopK));
            }
            sides[side].push((now_ns() - start) as f64);
        }
    }
    sys.set_obs(ObsConfig::default());
    let on = median(&sides[0]).unwrap_or(0.0);
    let off = median(&sides[1]).unwrap_or(1.0);
    Ok((on / off - 1.0) * 100.0)
}

/// A from-scratch build of the reference's base plus `batches`, with the
/// reference's rules: what a live system must answer like after it has
/// ingested and compacted those batches.
fn rebuild(reference: &Trinit, batches: &[Vec<Extraction>]) -> Trinit {
    let base = reference
        .segmented_store()
        .expect("the reference is monolithic")
        .base();
    let mut builder = XkgBuilder::with_context(base.dict().clone(), base.sources());
    for (id, triple) in base.iter() {
        builder.add(triple, base.provenance(id).clone());
    }
    for batch in batches {
        fill(&mut builder, batch);
    }
    let rules = reference.rules().iter().map(|(_, r)| r.clone()).collect();
    Trinit::from_parts(builder.build(), rules)
}

/// The ranking `sys` returns for each query.
fn rankings(
    sys: &Trinit,
    texts: &[&str],
    k: usize,
    acc: &mut Acc,
    pulls: &mut usize,
) -> Vec<Ranking> {
    let mut out = Vec::with_capacity(texts.len());
    let mut tr = Tracer::new(false);
    for text in texts {
        match parse(sys, text, k, &mut tr) {
            Ok(q) => {
                let o = sys.run(q, Engine::IncrementalTopK);
                *pulls += o.metrics.pulls;
                acc.judge(&o, text);
                out.push(Ranking::of(&o.answers));
            }
            Err(e) => {
                acc.fail(e);
                out.push(Ranking::default());
            }
        }
    }
    out
}

/// The answer digests recorded for the default seed.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");
pub const DEFAULT_SEED: u64 = 42;

fn recorded_digest(workload: Workload) -> Option<&'static str> {
    RECORDED_DIGESTS
        .lines()
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(name, _)| *name == workload.name())
        .map(|(_, digest)| digest.trim())
}

/// The timed end-to-end metrics, calibrated or as measured.
fn timings(acc: &Acc, calibrated: bool) -> Result<Vec<Metric>, String> {
    let pct = |samples: &Samples, q: f64, name: &'static str| {
        let unit = "ms";
        percentile(samples.get(calibrated), q)
            .map(|value| Metric { name, unit, value })
            .ok_or_else(|| format!("{name}: {} samples are too few", samples.len()))
    };
    let per_second = |n: u64, ms: &[f64]| n as f64 / (ms.iter().sum::<f64>() / 1e3);
    let run_factor = match median(acc.cal.factors()) {
        Some(f) if calibrated => f,
        _ => 1.0,
    };
    Ok(vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&acc.setup_ms).ok_or("no set-up ran")? * run_factor / 1e3,
        },
        pct(&acc.query, 50.0, "query_p50_ms")?,
        pct(&acc.query, 99.0, "query_p99_ms")?,
        Metric {
            name: "query_qps",
            unit: "1/s",
            value: per_second(acc.query.len() as u64, acc.query.get(calibrated)),
        },
        Metric {
            name: "batch_qps",
            unit: "1/s",
            value: per_second(acc.batch_queries, acc.batch.get(calibrated)),
        },
        pct(&acc.ingest, 50.0, "ingest_p50_ms")?,
        pct(&acc.introduced, 50.0, "introduced_p50_ms")?,
        pct(&acc.compact, 50.0, "compact_p50_ms")?,
    ])
}

/// One deployment the workload drives: a world of its own, derived from
/// the run's seed, and the system built over it.
struct Replica {
    inputs: Inputs,
    sys: Trinit,
    batches: Batches,
    /// Answers served before any write, to check against the reference.
    seen: Observed,
    /// Batches ingested since `sys` was built.
    applied: u64,
}

fn texts(inputs: &Inputs) -> Vec<&str> {
    inputs.queries.iter().map(|q| q.text.as_str()).collect()
}

/// The world seed of replica `r`; replica 0 uses the run's seed itself.
fn replica_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn measure(opts: &Options, tr: &mut Tracer) -> Result<Report, String> {
    let w = opts.workload;
    let spec = w.spec(opts.scale);
    let budget_ns = (opts.seconds * 1e9) as u64;
    let k = spec.k;
    let mut acc = Acc::new();

    // Set-up, once per replica: the world, the query set and the system.
    let mut reps = Vec::with_capacity(spec.replicas);
    for r in 0..spec.replicas {
        let start = now_ns();
        let (inputs, sys) = tr.span("setup.build", |_| {
            let inputs = Inputs::generate(replica_seed(opts.seed, r), spec.scale);
            let sys = inputs.system(spec.shards, spec.layout);
            (inputs, sys)
        });
        // One set-up is too long and too parallel for the kernel run
        // before it to stand for it; it is calibrated with the whole
        // run's median factor once the run is over.
        acc.setup_ms.push(ms(now_ns() - start));
        if inputs.queries.is_empty() {
            return Err(format!("replica {r} has no queries"));
        }
        let batches = Batches::new(replica_seed(opts.seed, r), &inputs, &sys);
        reps.push(Replica {
            inputs,
            sys,
            batches,
            seen: Observed::default(),
            applied: 0,
        });
    }
    let registry = |g| {
        reps.iter()
            .map(|rep| rep.sys.registry().gauge(g) as f64)
            .sum::<f64>()
    };
    let index_bytes = registry(Gauge::IndexBytes);
    let triples = registry(Gauge::StoreTriples).max(1.0);

    // Warm-up: every query once. Its answers give the quality figure and
    // are checked with the rest.
    let (mut ndcg, mut pulls) = (Vec::new(), 0usize);
    tr.span("bench.warmup", |tr| {
        for rep in &mut reps {
            for (i, q) in rep.inputs.queries.iter().enumerate() {
                if let Some(o) = acc.query(Client::System(&rep.sys), &q.text, k, tr, false) {
                    pulls += o.metrics.pulls;
                    let grades = grade_ranking(rep.sys.store(), &o.answers, &q.ideal);
                    let ideal: Vec<u8> = q.ideal.values().copied().collect();
                    ndcg.push(ndcg_at(&grades, &ideal, 5));
                    rep.seen.record(i, k, &o.answers);
                }
            }
        }
    });

    // Reads, one client at a time, moving from replica to replica, then
    // batches; in rounds, so that each samples the whole run.
    let (mut session_no, mut read_round, mut sent) = (0u64, 0usize, 0usize);
    let read_rounds = if w == Workload::Ingest { 0 } else { ROUNDS };
    for round in 1..=read_rounds {
        let share = |s: f64| (budget_ns as f64 * s / ROUNDS as f64) as u64;
        let min_reads = MIN_READS * round / ROUNDS;
        let read_end = now_ns() + share(READ_SHARE);
        tr.span("bench.reads", |tr| {
            while now_ns() < read_end || acc.query.len() < min_reads {
                if w == Workload::Explore {
                    let rep = &mut reps[session_no as usize % spec.replicas];
                    let texts = texts(&rep.inputs);
                    let session = Session::new(&rep.sys);
                    for i in session_stream(opts.seed, session_no, texts.len()) {
                        let client = Client::Session(&session);
                        if let Some(o) = acc.query(client, texts[i], k, tr, true) {
                            rep.seen.record(i, k, &o.answers);
                        }
                    }
                    let stats = session.cache_stats();
                    acc.cache_hits += stats.hits as u64;
                    acc.cache_misses += stats.misses as u64;
                    acc.cache_evictions += stats.evictions as u64;
                    session_no += 1;
                } else {
                    let rep = &mut reps[read_round % spec.replicas];
                    for (i, text) in texts(&rep.inputs).iter().enumerate() {
                        let client = Client::System(&rep.sys);
                        if let Some(o) = acc.query(client, text, k, tr, true) {
                            rep.seen.record(i, k, &o.answers);
                        }
                    }
                    read_round += 1;
                }
            }
        });
        let min_batches = MIN_BATCHES.max(spec.replicas) * round / ROUNDS;
        let batch_end = now_ns() + share(BATCH_SHARE);
        tr.span("bench.batches", |tr| {
            while now_ns() < batch_end || sent < min_batches {
                let rep = &mut reps[sent % spec.replicas];
                let texts = texts(&rep.inputs);
                let n = texts.len();
                let size = if spec.shards > 1 { SHARDED_BATCH } else { n };
                let first = (sent / spec.replicas) * size;
                let idx: Vec<usize> = (first..first + size).map(|i| i % n).collect();
                acc.batch(&rep.sys, &idx, &texts, k, tr, Some(&mut rep.seen));
                sent += 1;
            }
        });
    }

    // Per-layer probes, on the first replica before any write.
    let mut probed = Probes::default();
    let mut obs_pct = 0.0;
    if tr.is_on() {
        let rep = &mut reps[0];
        let texts = texts(&rep.inputs);
        if let Some(seg) = rep.sys.segmented_store() {
            probed = probes(&rep.sys, seg.base(), &texts, k, tr)?;
        }
        if w == Workload::Explore {
            obs_pct = tr.span("core.obs_sweeps", |_| {
                obs_overhead_pct(&mut rep.sys, &texts, k)
            })?;
        }
    }

    // Writes. `ingest` runs its epochs; the read workloads end with a
    // short write probe so that every workload reports the write path.
    tr.span("bench.writes", |tr| {
        if w == Workload::Ingest {
            let end = now_ns() + budget_ns;
            let mut epoch = 0;
            while epoch < spec.replicas || now_ns() < end {
                let rep = &mut reps[epoch % spec.replicas];
                if rep.applied > 0 {
                    rep.sys = tr.span("setup.rebuild", |_| {
                        rep.inputs.system(spec.shards, spec.layout)
                    });
                    rep.applied = 0;
                }
                let texts = texts(&rep.inputs);
                for c in 0..EPOCH_CYCLES {
                    let batch = rep.batches.batch(c);
                    let compact = c % COMPACT_EVERY == COMPACT_EVERY - 1;
                    let idx = cycle_queries(c, texts.len());
                    acc.cycle(&mut rep.sys, &batch, &idx, &texts, k, true, compact, tr);
                    rep.applied += 1;
                }
                epoch += 1;
            }
        } else {
            let end = now_ns() + (budget_ns as f64 * WRITE_SHARE) as u64;
            let mut c = 0;
            while c < PROBE_CYCLES || now_ns() < end {
                let rep = &mut reps[c as usize % spec.replicas];
                let texts = texts(&rep.inputs);
                let batch = rep.batches.batch(rep.applied);
                let idx = cycle_queries(rep.applied, texts.len());
                acc.cycle(&mut rep.sys, &batch, &idx, &texts, k, false, true, tr);
                rep.applied += 1;
                c += 1;
            }
        }
    });

    // Every replica's answers after its writes, then the peak memory of
    // the run before any reference engine is built.
    let mut finals = Vec::with_capacity(reps.len());
    for rep in &mut reps {
        if rep.sys.has_delta() {
            rep.sys.compact();
        }
        finals.push(rankings(&rep.sys, &texts(&rep.inputs), k, &mut acc, &mut 0));
    }
    let rss_mb = peak_rss_mb()?;

    // Checks against the monolithic Flat engine on the same worlds.
    let mut ref_pulls = 0;
    let mut digest_text = String::new();
    tr.span("bench.check", |_| {
        for (rep, got_final) in reps.into_iter().zip(&finals) {
            let Replica {
                inputs,
                sys,
                batches,
                seen,
                applied,
            } = rep;
            drop(sys);
            let texts = texts(&inputs);
            let reference = inputs.system(1, SegmentLayout::Flat);
            let want = rankings(&reference, &texts, k, &mut acc, &mut ref_pulls);
            let (checked, bad, first) = seen.check(&|i, _| want[i].clone());
            acc.attempted += checked;
            acc.failed += bad;
            acc.failures.extend(first);
            let store = reference.store();
            for r in &want {
                digest_text.push_str(&r.digest_text(&|t| store.display_term(t)));
                digest_text.push('\n');
            }
            let applied: Vec<Vec<Extraction>> = (0..applied).map(|c| batches.batch(c)).collect();
            let rebuilt = rebuild(&reference, &applied);
            drop(reference);
            let want_final = rankings(&rebuilt, &texts, k, &mut acc, &mut 0);
            for (i, (got, want)) in got_final.iter().zip(&want_final).enumerate() {
                acc.attempted += 1;
                if let Err(e) = compare(got, want) {
                    acc.fail(format!("after writes, query {i}: {e}"));
                }
            }
        }
    });
    let digest = format!("{:016x}", fnv1a(digest_text.as_bytes()));
    if opts.seed == DEFAULT_SEED && opts.scale.is_none() {
        acc.attempted += 1;
        match recorded_digest(w) {
            Some(recorded) if recorded == digest => {}
            Some(recorded) => acc.fail(format!("answer digest {digest}, recorded {recorded}")),
            None => acc.fail(format!("no digest recorded for {}", w.name())),
        }
    }

    let mut end_to_end = timings(&acc, true)?;
    end_to_end.extend([
        Metric {
            name: "index_bytes_per_triple",
            unit: "B",
            value: index_bytes / triples,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: rss_mb,
        },
        Metric {
            name: "ndcg5",
            unit: "ratio",
            value: ndcg.iter().sum::<f64>() / ndcg.len().max(1) as f64,
        },
    ]);
    let raw_timings = timings(&acc, false)?;

    let work = &acc.work;
    let m = &work.metrics;
    let cache_lookups = (acc.cache_hits + acc.cache_misses).max(1) as f64;
    let per_layer = vec![
        Metric {
            name: "xkg.lookup_ns",
            unit: "ns",
            value: probed.lookup_ns,
        },
        Metric {
            name: "xkg.posting_build_ns",
            unit: "ns",
            value: probed.posting_build_ns,
        },
        Metric {
            name: "xkg.posting_entries",
            unit: "count",
            value: probed.posting_entries,
        },
        Metric {
            name: "xkg.ingest_freeze_ms",
            unit: "ms",
            value: median(&acc.ingest_freeze_ms).unwrap_or(0.0),
        },
        Metric {
            name: "xkg.compact_freeze_ms",
            unit: "ms",
            value: median(&acc.compact_freeze_ms).unwrap_or(0.0),
        },
        Metric {
            name: "xkg.index_bytes",
            unit: "B",
            value: index_bytes,
        },
        Metric {
            name: "relax.alternatives",
            unit: "count",
            value: probed.alternatives,
        },
        Metric {
            name: "relax.apply_ns",
            unit: "ns",
            value: probed.apply_ns,
        },
        Metric {
            name: "query.parse_us",
            unit: "us",
            value: probed.parse_us,
        },
        Metric {
            name: "query.plan_ns",
            unit: "ns",
            value: probed.plan_ns,
        },
        Metric {
            name: "query.engine_ms",
            unit: "ms",
            value: probed.engine_ms,
        },
        Metric {
            name: "query.pulls",
            unit: "count",
            value: work.per_run(m.pulls as f64),
        },
        Metric {
            name: "query.postings_scanned",
            unit: "count",
            value: work.per_run(m.postings_scanned as f64),
        },
        Metric {
            name: "query.join_candidates",
            unit: "count",
            value: work.per_run(m.join_candidates as f64),
        },
        Metric {
            name: "query.lists_built",
            unit: "count",
            value: work.per_run(m.posting_lists_built as f64),
        },
        Metric {
            name: "query.relaxations_opened",
            unit: "count",
            value: work.per_run(m.relaxations_opened as f64),
        },
        Metric {
            name: "query.early_cutoffs",
            unit: "count",
            value: work.per_run(m.early_cutoffs as f64),
        },
        Metric {
            name: "query.variant_ms",
            unit: "ms",
            value: work.per_run(ms(work.variant_ns)),
        },
        Metric {
            name: "query.join_ms",
            unit: "ms",
            value: work.per_run(ms(work.join_ns)),
        },
        Metric {
            name: "query.cache_hit_rate",
            unit: "ratio",
            value: acc.cache_hits as f64 / cache_lookups,
        },
        Metric {
            name: "query.cache_evictions",
            unit: "count",
            value: acc.cache_evictions as f64,
        },
        Metric {
            name: "shard.seed_ms",
            unit: "ms",
            value: work.per_run(ms(work.seed_ns)),
        },
        Metric {
            name: "shard.merge_ms",
            unit: "ms",
            value: work.per_run(ms(work.merge_ns)),
        },
        Metric {
            name: "shard.elections",
            unit: "count",
            value: work.per_run(work.elections as f64),
        },
        Metric {
            name: "shard.pull_ratio",
            unit: "ratio",
            value: if spec.shards > 1 {
                pulls as f64 / ref_pulls.max(1) as f64
            } else {
                0.0
            },
        },
        Metric {
            name: "shard.pool_busy",
            unit: "ratio",
            value: acc.pool_busy_ns as f64 / acc.pool_ns.max(1) as f64,
        },
        Metric {
            name: "core.overhead_us",
            unit: "us",
            value: work.per_run(work.overhead_ns as f64 / 1e3),
        },
        Metric {
            name: "obs.overhead_pct",
            unit: "%",
            value: obs_pct,
        },
    ];
    let samples = vec![
        ("setup_s", acc.setup_ms.len()),
        ("query_ms", acc.query.len()),
        ("batch_queries", acc.batch_queries as usize),
        ("ingest_ms", acc.ingest.len()),
        ("introduced_ms", acc.introduced.len()),
        ("compact_ms", acc.compact.len()),
        ("ndcg5_queries", ndcg.len()),
        ("replicas", spec.replicas),
        ("calibrations", acc.cal.factors().len()),
    ];
    Ok(Report {
        attempted: acc.attempted,
        failed: acc.failed,
        failures: acc.failures,
        end_to_end,
        per_layer,
        raw_timings,
        samples,
        digest,
        calibration: {
            let f = acc.cal.factors();
            let fold = |init, pick: fn(f64, f64) -> f64| f.iter().copied().fold(init, pick);
            [
                median(f).unwrap_or(1.0),
                fold(f64::INFINITY, f64::min),
                fold(0.0, f64::max),
            ]
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a monolithic workload no two spans overlap, so the self times
    /// of a traced run add up to its root span; 0.1% leaves room for the
    /// clipping of program spans that end a few nanoseconds late.
    #[test]
    fn traced_run_self_times_add_up_to_the_root() {
        let opts = Options {
            workload: Workload::Explore,
            seed: 7,
            seconds: 0.3,
            trace: true,
            scale: Some(0.08),
        };
        let (report, tr) = run(&opts).expect("the workload runs");
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let sum: u64 = tr.self_times().values().sum();
        let root = tr.root_ns();
        assert!(
            sum.abs_diff(root) as f64 <= root as f64 * 1e-3,
            "self times {sum} ns, root {root} ns"
        );
        let metric = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert!(metric("query.pulls") > Some(0.0));
        assert_eq!(
            metric("shard.seed_ms"),
            Some(0.0),
            "no shard code runs on explore"
        );
    }
}

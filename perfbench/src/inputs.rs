//! Everything a run feeds the program, derived from the seed alone: the
//! synthetic world, the 70-query benchmark set, the per-user query
//! streams and the extraction batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trinit_core::{Trinit, TrinitBuilder};
use trinit_eval::{build_world, generate_benchmark, BenchQuery, BenchmarkConfig, EvalConfig};
use trinit_worldgen::{World, Zipf};
use trinit_xkg::{SegmentLayout, TermId, XkgBuilder};

/// Queries per benchmark category (5 categories, 70 queries).
const PER_CATEGORY: usize = 14;
/// Triples per ingested extraction batch.
const BATCH_TRIPLES: usize = 200;
/// Queries in one interactive session.
const SESSION_QUERIES: usize = 20;

/// The world and query set of one seed at one scale.
pub struct Inputs {
    pub cfg: EvalConfig,
    pub world: World,
    pub queries: Vec<BenchQuery>,
}

impl Inputs {
    /// The benchmark's inputs, built the way the quality evaluation
    /// builds them (`trinit_eval::run_evaluation`).
    pub fn generate(seed: u64, scale: f64) -> Inputs {
        let cfg = EvalConfig {
            seed,
            scale,
            per_category: PER_CATEGORY,
        };
        let (world, kg) = build_world(&cfg);
        let bench = BenchmarkConfig {
            seed: seed.wrapping_add(3),
            per_category: PER_CATEGORY,
        };
        let queries = generate_benchmark(&world, &kg, &bench);
        Inputs {
            cfg,
            world,
            queries,
        }
    }

    /// The full system over this world: Open IE over the corpus, rule
    /// mining, and the store frozen into `shards` partitions.
    pub fn system(&self, shards: usize, layout: SegmentLayout) -> Trinit {
        let mut builder = TrinitBuilder::from_world(
            &self.world,
            &self.cfg.kg_config(),
            &self.cfg.corpus_config(),
        );
        builder.options_mut().shards(shards).layout(layout);
        builder.build()
    }
}

/// One extracted triple: subject, predicate, object, confidence.
pub type Extraction = (TermId, TermId, TermId, f32);

/// Appends a batch to an ingest builder, as an Open IE stream would.
pub fn fill(builder: &mut XkgBuilder, batch: &[Extraction]) {
    let source = builder.intern_source("perfbench:stream");
    for &(s, p, o, confidence) in batch {
        builder.add_extracted(s, p, o, confidence, source);
    }
}

/// Seeded extraction batches over the entities and predicates a system
/// already has. Predicates are those the query set asks about, so the
/// new evidence reaches the queries' answers.
pub struct Batches {
    seed: u64,
    entities: Vec<TermId>,
    predicates: Vec<TermId>,
}

impl Batches {
    pub fn new(seed: u64, inputs: &Inputs, system: &Trinit) -> Batches {
        let store = system.store();
        let entities = inputs
            .world
            .entities
            .iter()
            .filter_map(|e| store.resource(&e.resource))
            .collect();
        let mut predicates: Vec<TermId> = inputs
            .queries
            .iter()
            .filter_map(|q| system.parse(&q.text).ok())
            .flat_map(|q| {
                let unknown: Vec<TermId> = q.unknown_terms.iter().map(|(t, _)| *t).collect();
                q.patterns
                    .iter()
                    .filter_map(|p| p.p.term())
                    .filter(|t| !unknown.contains(t))
                    .collect::<Vec<_>>()
            })
            .collect();
        predicates.sort_unstable();
        predicates.dedup();
        Batches {
            seed,
            entities,
            predicates,
        }
    }

    /// Batch `n`: the same seed and `n` always give the same batch.
    pub fn batch(&self, n: u64) -> Vec<Extraction> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1e57_ba7c_0000_0000 ^ n);
        (0..BATCH_TRIPLES)
            .map(|_| {
                let s = self.entities[rng.gen_range(0..self.entities.len())];
                let p = self.predicates[rng.gen_range(0..self.predicates.len())];
                let o = self.entities[rng.gen_range(0..self.entities.len())];
                (s, p, o, rng.gen_range(0.3f32..1.0))
            })
            .collect()
    }
}

/// The query indices one user issues in session `n`: each user ranks
/// the set in their own order and draws Zipf(s = 1) from that ranking,
/// so a few queries recur within a session while the set as a whole is
/// covered across sessions.
pub fn session_stream(seed: u64, n: u64, set_size: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_1000_0000_0000 ^ n);
    let mut ranking: Vec<usize> = (0..set_size).collect();
    for i in (1..set_size).rev() {
        ranking.swap(i, rng.gen_range(0..i + 1));
    }
    let zipf = Zipf::new(set_size, 1.0);
    (0..SESSION_QUERIES)
        .map(|_| ranking[zipf.sample(&mut rng)])
        .collect()
}

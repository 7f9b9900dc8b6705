//! The three read workloads: `mobility_topk`, `hot_clique` and
//! `paged_mobility`.

use crate::common::{
    median, mobility_dataset, resident_mb, spread_queries, Latencies, Metrics, Settings, Tally,
    Tracer, HASH_FUNCTIONS, K, SETUP_REPEATS,
};
use crate::layers::{rebuild_probes, Layers};
use crate::oracle::Oracle;
use crate::reads::{run_reads, ReadOutcome};
use minsig::testkit::{HierarchySpec, PruningAdversarialConfig, Workload};
use minsig::{
    IndexConfig, PlannerConfig, QueryPlan, QueryStats, ShardedMinSigIndex, ShardedSnapshot,
    TopKResult,
};
use mobility::SynDataset;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use trace_model::{EntityId, PaperAdm};
use trace_storage::{PagedTraceStore, PoolConfig, ReplacerPolicy, PAGE_SIZE};

/// Shards of the two mobility workloads.
const MOBILITY_SHARDS: usize = 4;
/// Distinct query positions per round of `mobility_topk`.
const MOBILITY_QUERIES: usize = 128;
/// Distinct query positions per round of `paged_mobility`.
const PAGED_QUERIES: usize = 32;
/// Trace data per byte of buffer pool on `paged_mobility`.
const PAGED_DATA_PER_POOL: usize = 10;
/// Shards of `hot_clique`: the hot clique lives in one of them.
const HOT_SHARDS: usize = 8;
/// Hot entities of `hot_clique`, each queried once per round.
const HOT_ENTITIES: u64 = 64;

/// Rounds per latency window of `hot_clique` (one round of the other read
/// workloads is a window of its own).
const HOT_WINDOW_ROUNDS: usize = 16;
/// Tail percentiles of the read workloads (see the README for the sample
/// counts they rest on).
const MOBILITY_TAIL: f64 = 0.95;
const HOT_TAIL: f64 = 0.99;
const PAGED_TAIL: f64 = 0.9;

/// Builds the index at least `SETUP_REPEATS` times, and again until two
/// seconds have been spent (so that a fast build is timed often enough to
/// give a steady median); returns the last build and the median build time
/// in seconds.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_REPEATS || (times.iter().sum::<f64>() < 2.0 && times.len() < 50) {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("at least one build"), median(&times))
}

/// The end-to-end metrics of a read workload.
fn read_metrics(
    setup_s: f64,
    resident_mb: f64,
    latencies: &Latencies,
    tail: f64,
    window: usize,
) -> Metrics {
    let mut out = Metrics::default();
    out.push("setup_s", setup_s, "s");
    out.push("resident_mb", resident_mb, "MB");
    latencies.report(tail, window, &mut out);
    out
}

fn mobility_index(ds: &SynDataset) -> ShardedMinSigIndex {
    ShardedMinSigIndex::build(
        ds.sp_index(),
        &ds.traces,
        IndexConfig::with_hash_functions(HASH_FUNCTIONS),
        MOBILITY_SHARDS,
    )
    .expect("the mobility index builds")
}

/// The plan (through `explain`) and the flat in-memory scan for every query
/// position, then the batch path over the whole list (through `batch`), each
/// call in its own span.
fn query_probes(
    snapshot: &ShardedSnapshot,
    queries: &[EntityId],
    measure: &PaperAdm,
    explain: impl Fn(EntityId) -> minsig::Result<QueryPlan>,
    batch: impl FnOnce() -> minsig::Result<Vec<(Vec<TopKResult>, QueryStats)>>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    for (i, &q) in queries.iter().enumerate() {
        let op = i as u64;
        black_box(tracer.span("explain", op, None, || explain(q)))
            .expect("explain plans an indexed query");
        black_box(tracer.span("brute_force", op, None, || snapshot.brute_force(q, K, measure)))
            .expect("the flat scan answers an indexed query");
    }
    black_box(tracer.span("top_k_batch", 0, None, batch))
        .expect("the batch path answers indexed queries");
    layers.set("shard.batch_query_us", tracer.median_us("top_k_batch") / queries.len() as f64);
}

/// The per-layer metrics of an in-memory read workload.
fn in_memory_layers(
    snapshot: &ShardedSnapshot,
    queries: &[EntityId],
    measure: &PaperAdm,
    outcome: &ReadOutcome,
    tracer: &mut Tracer,
) -> Metrics {
    let mut layers = Layers::default();
    let population = snapshot.num_entities();
    layers.query_counters(&outcome.traced_stats, population);
    query_probes(
        snapshot,
        queries,
        measure,
        |q| snapshot.explain(q, K, measure, PlannerConfig::default()),
        || snapshot.top_k_batch(queries, K, measure),
        tracer,
        &mut layers,
    );
    layers.query_spans(tracer, population, outcome.latencies.samples());
    rebuild_probes(snapshot, tracer, &mut layers);
    layers.into_metrics()
}

/// `mobility_topk`: planned sharded top-k over the IM-model mobility
/// population, for query entities spread over it by trace length
/// ([`spread_queries`]) rather than drawn uniformly.
pub fn mobility_topk(s: &Settings, tally: &mut Tally, tracer: &mut Tracer) -> Metrics {
    let ds = mobility_dataset(s);
    let measure = PaperAdm::default_for(ds.sp_index().height() as usize);
    let queries = spread_queries(&ds.traces, MOBILITY_QUERIES);
    let oracle = Oracle::new(ds.sp_index(), &ds.traces, measure.clone());

    let (index, setup_s) = timed_setup(|| mobility_index(&ds));
    let snapshot = index.snapshot();
    let outcome = run_reads(
        s,
        &queries,
        |q, answer| oracle.check(q, K, answer),
        |q| snapshot.top_k(q, K, &measure),
        tracer,
        tally,
    );
    if s.trace {
        in_memory_layers(&snapshot, &queries, &measure, &outcome, tracer)
    } else {
        read_metrics(
            setup_s,
            resident_mb(&snapshot),
            &outcome.latencies,
            MOBILITY_TAIL,
            queries.len(),
        )
    }
}

/// `hot_clique`: planned top-k for the hot entities of the pruning
/// adversarial population (a planted clique in one shard over a weak
/// background), the regime where planning and pruning pay.
pub fn hot_clique(s: &Settings, tally: &mut Tally, tracer: &mut Tracer) -> Metrics {
    let (cold, hot_count) = if s.smoke { (936, 16) } else { (5_000 - HOT_ENTITIES, HOT_ENTITIES) };
    let (workload, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
        num_shards: HOT_SHARDS,
        hot_entities: hot_count,
        cold_entities: cold,
        itinerary_steps: 8,
        hierarchy: HierarchySpec::default(),
        seed: s.seed,
    });
    let measure = workload.measure();
    let oracle = Oracle::new(&workload.sp, &workload.traces, measure.clone());
    let clique: BTreeSet<EntityId> = hot.iter().copied().collect();

    let (index, setup_s) = timed_setup(|| {
        ShardedMinSigIndex::build(
            &workload.sp,
            &workload.traces,
            IndexConfig::with_hash_functions(HASH_FUNCTIONS),
            HOT_SHARDS,
        )
        .expect("the hot-clique index builds")
    });
    let snapshot = index.snapshot();
    let check = |q: EntityId, answer: &[TopKResult]| {
        oracle.check(q, K, answer).or_else(|| {
            let outside: Vec<_> = answer.iter().filter(|r| !clique.contains(&r.entity)).collect();
            (!outside.is_empty())
                .then(|| format!("hot query {q}: answer leaves the clique: {outside:?}"))
        })
    };
    let outcome = run_reads(s, &hot, check, |q| snapshot.top_k(q, K, &measure), tracer, tally);
    if s.trace {
        in_memory_layers(&snapshot, &hot, &measure, &outcome, tracer)
    } else {
        read_metrics(
            setup_s,
            resident_mb(&snapshot),
            &outcome.latencies,
            HOT_TAIL,
            HOT_WINDOW_ROUNDS * hot.len(),
        )
    }
}

/// The LRU-2 pool of `paged_mobility`: a tenth of the store's trace data.
fn paged_pool_config(store: &PagedTraceStore) -> PoolConfig {
    let capacity_bytes = (store.data_bytes() / PAGED_DATA_PER_POOL).max(PAGE_SIZE);
    PoolConfig { capacity_bytes, ..PoolConfig::default() }.with_replacer(ReplacerPolicy::LruK(2))
}

/// `paged_mobility`: planned top-k through the paged sharded snapshot, the
/// traces read through a buffer pool a tenth the size of the trace data.
pub fn paged_mobility(s: &Settings, tally: &mut Tally, tracer: &mut Tracer) -> Metrics {
    let ds = mobility_dataset(s);
    let measure = PaperAdm::default_for(ds.sp_index().height() as usize);
    let queries = spread_queries(&ds.traces, PAGED_QUERIES);
    let oracle = Oracle::new(ds.sp_index(), &ds.traces, measure.clone());

    let ((index, store), setup_s) = timed_setup(|| {
        let index = mobility_index(&ds);
        let store = PagedTraceStore::build(&ds.traces, 8);
        drop(black_box(store.pool(paged_pool_config(&store))));
        (index, store)
    });
    let config = paged_pool_config(&store);
    eprintln!(
        "trace data {} bytes in {} pages; LRU-2 pool of {} bytes",
        store.data_bytes(),
        store.stats().pages,
        config.capacity_bytes
    );
    let pool = store.pool(config);
    let snapshot = index.snapshot();
    let paged = snapshot.paged(&store, &pool);
    let outcome = run_reads(
        s,
        &queries,
        |q, answer| oracle.check(q, K, answer),
        |q| paged.top_k(q, K, &measure),
        tracer,
        tally,
    );
    if pool.pinned_frames() != 0 {
        tally.record(Some(format!("{} pool frames left pinned", pool.pinned_frames())));
    }
    if !s.trace {
        let resident = resident_mb(&snapshot) + config.capacity_bytes as f64 / 1e6;
        return read_metrics(setup_s, resident, &outcome.latencies, PAGED_TAIL, queries.len());
    }

    let mut layers = Layers::default();
    let population = snapshot.num_entities();
    layers.query_counters(&outcome.traced_stats, population);
    query_probes(
        &snapshot,
        &queries,
        &measure,
        |q| paged.explain(q, K, &measure, PlannerConfig::default()),
        || paged.top_k_batch(&queries, K, &measure),
        tracer,
        &mut layers,
    );
    layers.query_spans(tracer, population, outcome.latencies.samples());

    // Trace reads on a cold pool of the same size.
    let cold = store.pool(config);
    for (i, entity) in ds.traces.entities().enumerate() {
        black_box(tracer.span("read_trace", i as u64, None, || store.read_trace(&cold, entity)));
    }
    layers.set("store.read_trace_us", crate::common::mean(&tracer.durations("read_trace")));
    rebuild_probes(&snapshot, tracer, &mut layers);
    layers.into_metrics()
}

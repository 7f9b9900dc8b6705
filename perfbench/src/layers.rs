//! The per-layer metrics of the traced run.  Every traced run reports all of
//! them; a layer the workload never reaches reads 0.

use crate::common::{mean, median, Metrics, Tracer};
use minsig::{CandidateArena, NodeArena, QueryStats, ShardedSnapshot, Synopsis};
use std::collections::BTreeMap;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.explain_us", "us"),
    ("plan.planning_us", "us"),
    ("plan.shards_skipped", "count"),
    ("engine.exec_us", "us"),
    ("engine.nodes_visited", "count"),
    ("engine.subtrees_pruned", "count"),
    ("engine.steps", "count"),
    ("engine.bound_updates", "count"),
    ("engine.entities_checked", "count"),
    ("engine.checked_fraction", "ratio"),
    ("kernel.scan_us", "us"),
    ("kernel.ns_per_degree", "ns"),
    ("kernel.dispatch_tiny", "count"),
    ("kernel.dispatch_merge", "count"),
    ("kernel.dispatch_gallop", "count"),
    ("kernel.dispatch_simd", "count"),
    ("kernel.arena_build_us", "us"),
    ("kernel.node_arena_build_us", "us"),
    ("shard.batch_query_us", "us"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("pool.evictions", "count"),
    ("pool.hit_rate", "ratio"),
    ("pool.simulated_io_us", "us"),
    ("store.read_trace_us", "us"),
    ("ingest.flush_us", "us"),
    ("ingest.entities_touched", "count"),
    ("ingest.entities_inserted", "count"),
    ("ingest.shards_touched", "count"),
    ("ingest.snapshot_query_us", "us"),
    ("synopsis.compute_us", "us"),
    ("durable.log_us", "us"),
    ("durable.wal_bytes_per_record", "B"),
    ("durable.checkpoint_us", "us"),
    ("durable.recovery_s", "s"),
    ("durable.recovery_records_per_s", "1/s"),
    ("trace.overhead_us", "us"),
];

/// Per-layer values of one traced run, every one starting at 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets one metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// All per-layer metrics, in output order.
    pub fn into_metrics(self) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in PER_LAYER {
            out.push(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
        out
    }

    /// The planner, engine, kernel-dispatch and pool counters of the traced
    /// queries, per query, over a population of `population` entities.
    pub fn query_counters(&mut self, stats: &[QueryStats], population: usize) {
        if stats.is_empty() {
            return;
        }
        let per = |f: &dyn Fn(&QueryStats) -> f64| mean(&stats.iter().map(f).collect::<Vec<_>>());
        self.set("plan.planning_us", per(&|s| s.planning_us as f64));
        self.set("plan.shards_skipped", per(&|s| s.shards_skipped as f64));
        self.set("engine.nodes_visited", per(&|s| s.nodes_visited as f64));
        self.set("engine.subtrees_pruned", per(&|s| s.subtrees_pruned as f64));
        self.set("engine.steps", per(&|s| s.steps as f64));
        self.set("engine.bound_updates", per(&|s| s.bound_updates as f64));
        let checked = per(&|s| s.entities_checked as f64);
        self.set("engine.entities_checked", checked);
        self.set("engine.checked_fraction", checked / population as f64);
        self.set("kernel.dispatch_tiny", per(&|s| s.kernel_dispatch.tiny as f64));
        self.set("kernel.dispatch_merge", per(&|s| s.kernel_dispatch.merge as f64));
        self.set("kernel.dispatch_gallop", per(&|s| s.kernel_dispatch.gallop as f64));
        self.set("kernel.dispatch_simd", per(&|s| s.kernel_dispatch.simd as f64));
        let hits: u64 = stats.iter().map(|s| s.pool_hits).sum();
        let misses: u64 = stats.iter().map(|s| s.pool_misses).sum();
        self.set("pool.hits", per(&|s| s.pool_hits as f64));
        self.set("pool.misses", per(&|s| s.pool_misses as f64));
        self.set("pool.evictions", per(&|s| s.pool_evictions as f64));
        if hits + misses > 0 {
            self.set("pool.hit_rate", hits as f64 / (hits + misses) as f64);
        }
        self.set("pool.simulated_io_us", per(&|s| s.simulated_io_us as f64));
    }

    /// The span-derived query metrics: `explain`, the flat scan, execution
    /// self time and the tracing overhead against `untraced_us`, the query
    /// latencies of the untraced rounds of the same run.
    pub fn query_spans(&mut self, tracer: &Tracer, population: usize, untraced_us: &[f64]) {
        let top_k = tracer.median_us("top_k");
        let explain = tracer.median_us("explain");
        let scan = tracer.median_us("brute_force");
        self.set("plan.explain_us", explain);
        self.set("engine.exec_us", top_k - explain);
        self.set("kernel.scan_us", scan);
        self.set("kernel.ns_per_degree", scan * 1e3 / population as f64);
        if !untraced_us.is_empty() {
            self.set("trace.overhead_us", top_k - median(untraced_us));
        }
    }
}

/// Rebuilds every shard's candidate arena, node rows and synopsis from the
/// snapshot's current state, each call in its own span, and records the
/// per-shard medians.
pub fn rebuild_probes(snapshot: &ShardedSnapshot, tracer: &mut Tracer, layers: &mut Layers) {
    for i in 0..snapshot.num_shards() {
        let shard = snapshot.shard(i);
        let levels = shard.tree().levels();
        let signatures: BTreeMap<_, _> = shard
            .sequences()
            .keys()
            .map(|&e| (e, shard.signature(e).expect("indexed entities are signed").clone()))
            .collect();
        let width = shard.hasher().num_functions() as usize;
        let op = i as u64;
        let arena = tracer.span("CandidateArena::build", op, None, || {
            CandidateArena::build(levels, width, shard.sequences(), &signatures)
        });
        assert_eq!(arena.len(), shard.num_entities(), "rebuilt arena covers the shard");
        let nodes = tracer.span("NodeArena::build", op, None, || NodeArena::build(shard.tree()));
        std::hint::black_box(nodes);
        let synopsis = tracer.span("Synopsis::compute", op, None, || {
            Synopsis::compute(
                levels,
                shard.sequences().iter().map(|(e, s)| (*e, s)),
                shard.synopsis().sketch_size(),
                shard.synopsis().epoch(),
            )
        });
        std::hint::black_box(synopsis);
    }
    layers.set("kernel.arena_build_us", tracer.median_us("CandidateArena::build"));
    layers.set("kernel.node_arena_build_us", tracer.median_us("NodeArena::build"));
    layers.set("synopsis.compute_us", tracer.median_us("Synopsis::compute"));
}

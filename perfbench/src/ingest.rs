//! `ingest_stream`: durable writes beside reads.  Each round builds the
//! sharded index on all but the last simulated day, makes it durable, streams
//! the last day's records in time order as 64-record batches (fsync on),
//! checkpoints at a fixed cadence, queries published snapshots, and finally
//! drops the handle and recovers it from disk.  The first round is an
//! untimed warm-up whose answers are checked against the oracle; every later
//! round must repeat them bit for bit.

use crate::common::{
    mean, median, micros, mobility_dataset, resident_mb, run_rounds, spread_queries, Latencies,
    Metrics, Settings, Tally, Tracer, HASH_FUNCTIONS, K, OUT_DIR, SETUP_REPEATS,
};
use crate::layers::{rebuild_probes, Layers};
use crate::oracle::{sequence_of, Oracle, Reference};
use minsig::{
    DurableShardedMinSigIndex, IndexConfig, PlannerConfig, QueryStats, ShardedIngestReport,
    ShardedMinSigIndex,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use trace_model::{DigitalTrace, EntityId, PaperAdm, PresenceInstance, TraceSet};
use trace_storage::LogConfig;

const SHARDS: usize = 4;
/// Records per durable batch.
const BATCH: usize = 64;
/// A checkpoint follows every this many batches (but never the last one).
const CHECKPOINT_EVERY: usize = 32;
/// A query runs on the published snapshot after every this many batches.
const QUERY_EVERY: usize = 4;
/// Distinct query entities of the published snapshots.
const SNAPSHOT_QUERIES: usize = 64;
/// Queries answered by the recovered index at the end of a round.
const RECOVERY_QUERIES: usize = 8;
/// Tail percentile of the batch acknowledgement latency.
const TAIL: f64 = 0.9;

/// The fixed inputs of every round.
struct Inputs {
    sp: trace_model::SpIndex,
    measure: PaperAdm,
    /// Traces of every day but the last.
    base: TraceSet,
    /// The last day's records in time order.
    stream: Vec<PresenceInstance>,
    /// Query entities for the published snapshots (all in the base).
    queries: Vec<EntityId>,
    /// Query entities for the recovered index.
    recovery_queries: Vec<EntityId>,
    /// Oracle over the base traces and over the full dataset.
    base_oracle: Oracle,
    full_oracle: Oracle,
}

fn inputs(s: &Settings) -> Inputs {
    let ds = mobility_dataset(s);
    let last_day = (ds.config.days as u64 - 1) * 24 * 60;
    let mut base = TraceSet::new(ds.traces.ticks_per_unit());
    let mut stream = Vec::new();
    for (_, trace) in ds.traces.iter() {
        for pi in trace.instances() {
            if pi.period.start < last_day {
                base.record(*pi);
            } else {
                stream.push(*pi);
            }
        }
    }
    stream.sort_by_key(|pi| (pi.period.start, pi.entity, pi.unit, pi.period.end));
    let measure = PaperAdm::default_for(ds.sp_index().height() as usize);
    let queries = spread_queries(&base, SNAPSHOT_QUERIES);
    let recovery_queries = spread_queries(&ds.traces, RECOVERY_QUERIES);
    let base_oracle = Oracle::new(ds.sp_index(), &base, measure.clone());
    let full_oracle = Oracle::new(ds.sp_index(), &ds.traces, measure.clone());
    Inputs {
        sp: ds.sp_index().clone(),
        measure,
        base,
        stream,
        queries,
        recovery_queries,
        base_oracle,
        full_oracle,
    }
}

/// Per-layer observations of the traced rounds.
#[derive(Default)]
struct Observed {
    reports: Vec<ShardedIngestReport>,
    log_us: Vec<f64>,
    wal_bytes_per_record: Vec<f64>,
    recovery: Vec<(f64, usize)>,
    query_stats: Vec<QueryStats>,
}

/// The oracle of one round, kept in step with the stream: every touched
/// entity's sequence is rebuilt from its raw trace before the next check.
struct LiveOracle {
    oracle: Oracle,
    traces: BTreeMap<EntityId, DigitalTrace>,
    dirty: BTreeSet<EntityId>,
}

impl LiveOracle {
    fn new(inputs: &Inputs) -> Self {
        LiveOracle {
            oracle: inputs.base_oracle.clone(),
            traces: inputs.base.iter().map(|(e, t)| (e, t.clone())).collect(),
            dirty: BTreeSet::new(),
        }
    }

    fn apply(&mut self, batch: &[PresenceInstance]) {
        for pi in batch {
            self.traces.entry(pi.entity).or_default().push(*pi);
            self.dirty.insert(pi.entity);
        }
    }

    fn current(&mut self, sp: &trace_model::SpIndex, ticks_per_unit: u64) -> &Oracle {
        for entity in std::mem::take(&mut self.dirty) {
            self.oracle.set(entity, sequence_of(sp, ticks_per_unit, &self.traces[&entity]));
        }
        &self.oracle
    }
}

/// Checks one acknowledged batch: every record applied, and the epochs of
/// exactly the touched shards advanced by one.
fn check_ack(
    batch: usize,
    sent: usize,
    before: &[u64],
    report: &ShardedIngestReport,
) -> Option<String> {
    if report.records != sent {
        return Some(format!("batch {batch}: {} of {sent} records acknowledged", report.records));
    }
    let advanced = before.iter().zip(&report.epochs).filter(|(b, a)| **a == **b + 1).count();
    let unchanged = before.iter().zip(&report.epochs).filter(|(b, a)| a == b).count();
    if report.shards_touched == 0
        || advanced != report.shards_touched
        || advanced + unchanged != before.len()
    {
        return Some(format!(
            "batch {batch}: epochs {before:?} -> {:?} for {} touched shards",
            report.epochs, report.shards_touched
        ));
    }
    None
}

/// `ingest_stream`; see the module docs.
pub fn ingest_stream(s: &Settings, tally: &mut Tally, tracer: &mut Tracer) -> Metrics {
    let inputs = inputs(s);
    let ticks = inputs.base.ticks_per_unit();
    let batches: Vec<&[PresenceInstance]> = inputs.stream.chunks(BATCH).collect();
    let mut setup = Vec::new();
    let mut acks = Latencies::default();
    let mut resident = 0.0;
    let mut observed = Observed::default();
    let mut final_snapshot = None;
    let mut op = 0u64;
    let mut snapshot_reference = Reference::default();
    let mut recovery_reference = Reference::default();

    // Every round runs the whole stream.  Round 0 is the untimed warm-up; a
    // traced run traces every other timed round and leaves the rest
    // untraced for comparison.
    run_rounds(s.seconds, SETUP_REPEATS + 1, |round| {
        let warm_up = round == 0;
        let traced = s.trace && !warm_up && round % 2 == 0;
        let round_span = traced.then(|| tracer.begin("round", round as u64, None));
        let dir = Path::new(OUT_DIR).join(format!("ingest-{}-{round}", s.seed));
        let _ = std::fs::remove_dir_all(&dir);

        let start = Instant::now();
        let index = ShardedMinSigIndex::build(
            &inputs.sp,
            &inputs.base,
            IndexConfig::with_hash_functions(HASH_FUNCTIONS),
            SHARDS,
        )
        .expect("the base index builds");
        let mut durable = DurableShardedMinSigIndex::create(&dir, index, LogConfig::default())
            .expect("the durable index can be created");
        if !warm_up {
            setup.push(start.elapsed().as_secs_f64());
        }

        let mut live = LiveOracle::new(&inputs);
        let mut since_checkpoint = 0usize;
        for (b, batch) in batches.iter().enumerate() {
            let before = durable.index().epochs();
            let span = if traced { tracer.begin("ingest", op, round_span) } else { usize::MAX };
            let start = Instant::now();
            let result = durable.ingest(batch.iter().copied());
            let us = micros(start);
            if traced {
                tracer.end(span);
            } else if !warm_up {
                acks.push(us);
            }
            op += 1;
            live.apply(batch);
            tally.record(match result {
                Ok(report) => {
                    let failure = check_ack(b, batch.len(), &before, &report);
                    if failure.is_none() {
                        since_checkpoint += report.records;
                    }
                    if traced {
                        observed.log_us.push(us - report.flush_time_us as f64);
                        observed.reports.push(report);
                    }
                    failure
                }
                Err(e) => Some(format!("batch {b} failed: {e}")),
            });

            if (b + 1) % QUERY_EVERY == 0 {
                let snapshot = durable.index().snapshot();
                let q = inputs.queries[(b / QUERY_EVERY) % inputs.queries.len()];
                let query = || snapshot.top_k(q, K, &inputs.measure);
                let result =
                    if traced { tracer.span("top_k", op, round_span, query) } else { query() };
                if traced {
                    black_box(tracer.span("explain", op, round_span, || {
                        snapshot.explain(q, K, &inputs.measure, PlannerConfig::default())
                    }))
                    .expect("explain plans an indexed query");
                    black_box(tracer.span("brute_force", op, round_span, || {
                        snapshot.brute_force(q, K, &inputs.measure)
                    }))
                    .expect("the flat scan answers an indexed query");
                }
                op += 1;
                let answer = match result {
                    Ok((answer, stats)) => {
                        if traced {
                            observed.query_stats.push(stats);
                        }
                        Ok(answer)
                    }
                    Err(e) => Err(e.to_string()),
                };
                tally.record(snapshot_reference.check(b / QUERY_EVERY, q, answer, |a| {
                    live.current(&inputs.sp, ticks).check(q, K, a)
                }));
            }

            if (b + 1) % CHECKPOINT_EVERY == 0 && b + 1 < batches.len() {
                let wal_bytes: u64 =
                    (0..SHARDS).map(|i| durable.shard_log(i).disk_bytes()).sum::<u64>()
                        + durable.commit_log().disk_bytes();
                let span =
                    if traced { tracer.begin("checkpoint", op, round_span) } else { usize::MAX };
                let start = Instant::now();
                let result = durable.checkpoint();
                let us = micros(start);
                if traced {
                    tracer.end(span);
                    observed.wal_bytes_per_record.push(wal_bytes as f64 / since_checkpoint as f64);
                } else if !warm_up {
                    acks.add_busy(us);
                }
                op += 1;
                if result.is_ok() {
                    since_checkpoint = 0;
                }
                tally.record(
                    result.err().map(|e| format!("checkpoint after batch {b} failed: {e}")),
                );
            }
        }

        let snapshot = durable.index().snapshot();
        resident = resident_mb(&snapshot);
        drop(durable);

        let span = if traced { tracer.begin("open", op, round_span) } else { usize::MAX };
        let start = Instant::now();
        let reopened = DurableShardedMinSigIndex::open(&dir, LogConfig::default());
        let recovery_s = start.elapsed().as_secs_f64();
        if traced {
            tracer.end(span);
        }
        op += 1;
        match reopened {
            Ok((recovered, report)) => {
                tally.record(
                    (report.records_replayed != since_checkpoint || report.uncommitted_discarded != 0)
                        .then(|| {
                            format!(
                                "recovery replayed {} records ({} discarded) but {since_checkpoint} \
                                 were acknowledged since the last checkpoint",
                                report.records_replayed, report.uncommitted_discarded
                            )
                        }),
                );
                if traced {
                    observed.recovery.push((recovery_s, report.records_replayed));
                }
                for (i, &q) in inputs.recovery_queries.iter().enumerate() {
                    let answer = recovered
                        .index()
                        .top_k(q, K, &inputs.measure)
                        .map(|(answer, _)| answer)
                        .map_err(|e| e.to_string());
                    tally.record(
                        recovery_reference
                            .check(i, q, answer, |a| inputs.full_oracle.check(q, K, a)),
                    );
                    op += 1;
                }
            }
            Err(e) => tally.record(Some(format!("recovery failed: {e}"))),
        }
        if let Some(id) = round_span {
            tracer.end(id);
        }
        let _ = std::fs::remove_dir_all(&dir);
        final_snapshot = Some(snapshot);
    });

    if !s.trace {
        let mut out = Metrics::default();
        out.push("setup_s", median(&setup), "s");
        out.push("resident_mb", resident, "MB");
        acks.report(TAIL, batches.len(), &mut out);
        return out;
    }

    let snapshot = final_snapshot.expect("at least one round ran");
    let population = snapshot.num_entities();
    let mut layers = Layers::default();
    layers.query_counters(&observed.query_stats, population);
    let batch = tracer.span("top_k_batch", op, None, || {
        snapshot.top_k_batch(&inputs.queries, K, &inputs.measure)
    });
    black_box(batch).expect("the batch path answers indexed queries");
    layers
        .set("shard.batch_query_us", tracer.median_us("top_k_batch") / inputs.queries.len() as f64);
    layers.query_spans(tracer, population, &[]);
    layers.set("ingest.snapshot_query_us", tracer.median_us("top_k"));
    let per_batch = |f: &dyn Fn(&ShardedIngestReport) -> f64| {
        mean(&observed.reports.iter().map(f).collect::<Vec<_>>())
    };
    layers.set("ingest.flush_us", per_batch(&|r| r.flush_time_us as f64));
    layers.set("ingest.entities_touched", per_batch(&|r| r.entities_touched as f64));
    layers.set("ingest.entities_inserted", per_batch(&|r| r.entities_inserted as f64));
    layers.set("ingest.shards_touched", per_batch(&|r| r.shards_touched as f64));
    layers.set("durable.log_us", median(&observed.log_us));
    layers.set("durable.wal_bytes_per_record", mean(&observed.wal_bytes_per_record));
    layers.set("durable.checkpoint_us", tracer.median_us("checkpoint"));
    let recovery_s = median(&observed.recovery.iter().map(|r| r.0).collect::<Vec<_>>());
    let replayed = mean(&observed.recovery.iter().map(|r| r.1 as f64).collect::<Vec<_>>());
    layers.set("durable.recovery_s", recovery_s);
    layers.set("durable.recovery_records_per_s", replayed / recovery_s);
    layers.set("trace.overhead_us", tracer.median_us("ingest") - median(acks.samples()));
    rebuild_probes(&snapshot, tracer, &mut layers);
    layers.into_metrics()
}

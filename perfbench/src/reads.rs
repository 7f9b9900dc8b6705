//! The closed-loop query client shared by the three read workloads.

use crate::common::{micros, run_rounds, Latencies, Settings, Tally, Tracer};
use crate::oracle::Reference;
use minsig::{QueryStats, TopKResult};
use std::time::Instant;
use trace_model::EntityId;

/// What one query call returned.
pub type Answer = minsig::Result<(Vec<TopKResult>, QueryStats)>;

/// What the timed rounds of a read workload measured.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Latencies of the untraced rounds (every round of an untraced run).
    pub latencies: Latencies,
    /// Stats of the traced queries (traced runs only).
    pub traced_stats: Vec<QueryStats>,
}

/// Runs `queries` in order, one at a time, as whole rounds: first an
/// untimed warm-up round whose answers are checked with `check`, then timed
/// rounds until the run's seconds have passed.  A timed answer must equal
/// the checked warm-up answer of the same position bit for bit.  In a
/// traced run every other timed round records a `round` span with a `top_k`
/// span per query under it; the rounds between stay untraced, so the two
/// can be compared.
pub fn run_reads(
    settings: &Settings,
    queries: &[EntityId],
    check: impl Fn(EntityId, &[TopKResult]) -> Option<String>,
    mut query: impl FnMut(EntityId) -> Answer,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> ReadOutcome {
    let mut reference = Reference::default();
    for (i, &q) in queries.iter().enumerate() {
        let answer = query(q).map(|(answer, _)| answer).map_err(|e| e.to_string());
        tally.record(reference.check(i, q, answer, |a| check(q, a)));
    }

    let mut out = ReadOutcome::default();
    let mut op = 0u64;
    // A traced run needs at least one traced and one untraced round.
    let min_rounds = if settings.trace { 2 } else { 1 };
    run_rounds(settings.seconds, min_rounds, |round| {
        let traced = settings.trace && round % 2 == 1;
        let round_span = traced.then(|| tracer.begin("round", round as u64, None));
        for (i, &q) in queries.iter().enumerate() {
            let span = if traced { tracer.begin("top_k", op, round_span) } else { usize::MAX };
            let start = Instant::now();
            let answer = query(q);
            let us = micros(start);
            if traced {
                tracer.end(span);
            } else {
                out.latencies.push(us);
            }
            op += 1;
            let answer = answer
                .map(|(answer, stats)| {
                    if traced {
                        out.traced_stats.push(stats);
                    }
                    answer
                })
                .map_err(|e| e.to_string());
            tally.record(reference.check(i, q, answer, |a| check(q, a)));
        }
        if let Some(id) = round_span {
            tracer.end(id);
        }
    });
    out
}

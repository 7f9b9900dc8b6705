//! The answer oracle, computed apart from the index: sequences rebuilt from
//! the raw traces with `trace-model` and ranked by the `baseline` scan.

use minsig::TopKResult;
use std::collections::BTreeMap;
use trace_model::{
    AssociationMeasure, CellSetSequence, DigitalTrace, EntityId, PaperAdm, SpIndex, TraceSet,
};

/// Per-entity sequences built from raw traces, never from an index.
#[derive(Debug, Clone)]
pub struct Oracle {
    measure: PaperAdm,
    sequences: BTreeMap<EntityId, CellSetSequence>,
}

/// The sequence of one raw trace: its base ST-cells lifted to every level.
pub fn sequence_of(sp: &SpIndex, ticks_per_unit: u64, trace: &DigitalTrace) -> CellSetSequence {
    let base = trace.base_cells(sp, ticks_per_unit).expect("generated traces use base units");
    CellSetSequence::from_base_cells(sp, &base).expect("generated traces use base units")
}

impl Oracle {
    /// The oracle over every trace of `traces`.
    pub fn new(sp: &SpIndex, traces: &TraceSet, measure: PaperAdm) -> Oracle {
        let sequences = traces
            .iter()
            .map(|(entity, trace)| (entity, sequence_of(sp, traces.ticks_per_unit(), trace)))
            .collect();
        Oracle { measure, sequences }
    }

    /// Replaces (or adds) one entity's sequence.
    pub fn set(&mut self, entity: EntityId, sequence: CellSetSequence) {
        self.sequences.insert(entity, sequence);
    }

    /// Checks one answer of a top-`k` query for `query`: its degree vector
    /// must equal the scan's bit for bit, and every reported entity's degree
    /// must equal a fresh computation.  Returns why it failed, if it did.
    pub fn check(&self, query: EntityId, k: usize, answer: &[TopKResult]) -> Option<String> {
        let Some(query_seq) = self.sequences.get(&query) else {
            return Some(format!("query {query} is unknown to the oracle"));
        };
        let (expected, _) = baseline::scan_top_k(&self.sequences, query, k, &self.measure);
        let got: Vec<u64> = answer.iter().map(|r| r.degree.to_bits()).collect();
        let want: Vec<u64> = expected.iter().map(|(_, d)| d.to_bits()).collect();
        if got != want {
            return Some(format!(
                "query {query}: degrees {answer:?} differ from scan {expected:?}"
            ));
        }
        for r in answer {
            let degree = match self.sequences.get(&r.entity) {
                Some(seq) if r.entity != query => self.measure.degree(query_seq, seq),
                _ => {
                    return Some(format!("query {query}: reported entity {} is invalid", r.entity))
                }
            };
            if degree.to_bits() != r.degree.to_bits() {
                return Some(format!(
                    "query {query}: entity {} reported at {} but recomputed at {degree}",
                    r.entity, r.degree
                ));
            }
        }
        None
    }
}

/// The answers of the warm-up round, by query position, that every later
/// round must repeat.
#[derive(Debug, Default)]
pub struct Reference {
    answers: Vec<Option<Vec<TopKResult>>>,
}

impl Reference {
    /// Checks the answer for `q` at position `pos`.  The warm-up round
    /// visits each position first and checks with `check`, keeping the
    /// answer if it passes; a later round must return the kept answer bit
    /// for bit, or pass `check` where the warm-up answer did not.
    pub fn check(
        &mut self,
        pos: usize,
        q: EntityId,
        answer: Result<Vec<TopKResult>, String>,
        check: impl FnOnce(&[TopKResult]) -> Option<String>,
    ) -> Option<String> {
        let warm_up = pos == self.answers.len();
        let (failure, kept) = match (answer, self.answers.get(pos)) {
            (Err(e), _) => (Some(format!("query {q} failed: {e}")), None),
            (Ok(answer), Some(Some(expected))) => {
                let same = expected.len() == answer.len()
                    && expected.iter().zip(&answer).all(|(x, y)| {
                        x.entity == y.entity && x.degree.to_bits() == y.degree.to_bits()
                    });
                ((!same).then(|| format!("query {q}: answer changed between rounds")), None)
            }
            (Ok(answer), _) => {
                let failure = check(&answer);
                let kept = failure.is_none().then_some(answer);
                (failure, kept)
            }
        };
        if warm_up {
            self.answers.push(kept);
        }
        failure
    }
}

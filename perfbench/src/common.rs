//! Pieces every workload shares: the run settings, the round loop, latency
//! summaries, the span recorder and the result line.

use minsig::ShardedSnapshot;
use mobility::{SynConfig, SynDataset};
use std::fmt::Write as _;
use std::time::Instant;
use trace_model::{EntityId, TraceSet};

/// Result size of every query the benchmark issues.
pub const K: usize = 10;

/// Hash functions per signature level of every index the benchmark builds.
pub const HASH_FUNCTIONS: u32 = 32;

/// Fewest index builds (or `ingest_stream` rounds) whose median is
/// reported as `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Population of the mobility datasets (`mobility_topk`, `paged_mobility`,
/// `ingest_stream`): the generator's default size.  At 5 000 entities,
/// `mobility_topk` did not hold steady on the shared 2-vCPU reference host
/// (see the README).
pub const MOBILITY_ENTITIES: usize = 2_000;

/// Settings of one benchmark run, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Length of the measured phase in seconds; whole rounds run until it
    /// has passed.
    pub seconds: f64,
    /// When set, the run records spans and reports the per-layer metrics.
    pub trace: bool,
    /// Reduced input sizes, for the benchmark's own test.
    pub smoke: bool,
}

/// Directory, relative to the working directory, that a run writes to:
/// durable index files and span dumps.
pub const OUT_DIR: &str = ".perfbench";

/// The mobility dataset of this run: `SynConfig::default()` with
/// [`MOBILITY_ENTITIES`] entities (300 in a smoke run) and the run's seed.
pub fn mobility_dataset(s: &Settings) -> SynDataset {
    let num_entities = if s.smoke { 300 } else { MOBILITY_ENTITIES };
    SynDataset::generate(SynConfig { num_entities, seed: s.seed, ..SynConfig::default() })
        .expect("the mobility generator accepts its default configuration")
}

/// Resident bytes of every shard snapshot, in MB.
pub fn resident_mb(snapshot: &ShardedSnapshot) -> f64 {
    (0..snapshot.num_shards()).map(|i| snapshot.shard(i).resident_bytes()).sum::<usize>() as f64
        / 1e6
}

/// `n` query entities spread evenly over `traces` by trace length: the
/// entities, sorted by their number of presence records (ties by id), are
/// cut into `n` equal strata and the middle entity of each is taken.  Query
/// cost grows with trace length, so every seed's list spans the same
/// quantiles of cost, from the lightest entities to the heaviest.
pub fn spread_queries(traces: &TraceSet, n: usize) -> Vec<EntityId> {
    let mut by_size: Vec<(usize, EntityId)> =
        traces.iter().filter(|(_, t)| !t.is_empty()).map(|(e, t)| (t.len(), e)).collect();
    by_size.sort_unstable();
    let len = by_size.len();
    (0..n).map(|i| by_size[((2 * i + 1) * len / (2 * n)).min(len - 1)].1).collect()
}

/// Runs `round` until `seconds` have passed since the call, and at least
/// `min_rounds` times.  Every round runs the same operations, so the mix
/// measured does not depend on the program's speed.
pub fn run_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(rounds);
        rounds += 1;
    }
}

/// Elapsed time of `start` in microseconds.
pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latencies of one kind of operation, in microseconds, in the order they
/// were taken.
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<f64>,
    /// Per sample: its latency plus the busy time that followed it without
    /// being an operation of its own (checkpoints between durable batches).
    busy_us: Vec<f64>,
}

impl Latencies {
    /// Records one operation.
    pub fn push(&mut self, us: f64) {
        self.samples.push(us);
        self.busy_us.push(us);
    }

    /// Adds busy time that is no operation of its own to the last operation.
    pub fn add_busy(&mut self, us: f64) {
        *self.busy_us.last_mut().expect("busy time follows an operation") += us;
    }

    /// The recorded latencies.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The end-to-end latency metrics.  The samples are cut, in the order
    /// they were taken, into windows of `window` operations (whole rounds);
    /// `op_p50_us` is the median of all samples, while `op_tail_us` (the
    /// `tail` quantile) and `ops_per_s` (operations per second of busy time)
    /// are the medians of their per-window values, so that a burst of CPU
    /// steal on a shared host moves them only if it lasts half the run.
    pub fn report(&self, tail: f64, window: usize, out: &mut Metrics) {
        let full = self.samples.len() / window;
        let windows: Vec<(&[f64], &[f64])> = if full == 0 {
            vec![(&self.samples[..], &self.busy_us[..])]
        } else {
            (0..full)
                .map(|w| {
                    (&self.samples[w * window..][..window], &self.busy_us[w * window..][..window])
                })
                .collect()
        };
        let tails: Vec<f64> = windows.iter().map(|(s, _)| quantile(s, tail)).collect();
        let rates: Vec<f64> =
            windows.iter().map(|(s, b)| s.len() as f64 / (b.iter().sum::<f64>() / 1e6)).collect();
        let q = |p| quantile(&self.samples, p);
        eprintln!(
            "{} samples in {} windows (us): p50 {:.1}  p90 {:.1}  p95 {:.1}  p99 {:.1}  \
             windowed p{} {:.1} (min {:.1}, max {:.1})",
            self.samples.len(),
            windows.len(),
            q(0.5),
            q(0.9),
            q(0.95),
            q(0.99),
            tail * 100.0,
            median(&tails),
            tails.iter().copied().fold(f64::INFINITY, f64::min),
            tails.iter().copied().fold(0.0, f64::max),
        );
        out.push("op_p50_us", median(&self.samples), "us");
        out.push("op_tail_us", median(&tails), "us");
        out.push("ops_per_s", median(&rates), "1/s");
    }
}

/// Named metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.entries.iter().all(|(n, _, _)| n != name), "metric {name} reported twice");
        self.entries.push((name.to_string(), value, unit));
    }
}

/// Operations attempted and failed, and whether every check held.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Messages of the first few failed checks, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation that passed (`None`) or failed (`Some(why)`).
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }
}

/// Prints the result line: the last line of standard output.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    for problem in &tally.problems {
        eprintln!("check failed: {problem}");
    }
    let mut line = String::new();
    write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    )
    .expect("writing to a String cannot fail");
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    println!("{line}");
}

/// One recorded call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder of the traced run.  When disabled, `begin` and
/// `end` cost nothing but a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span for operation `op`; returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Median duration in microseconds of the spans called `name` (0 when
    /// there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, text)
    }
}

//! End-to-end and per-layer benchmark of the digital-traces workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One closed-loop client runs the workload's fixed, seeded list of
//! operations in whole rounds until `--seconds` have passed, checks every
//! answer against an oracle computed apart from the index, and prints one
//! JSON line: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones, or with `--trace 1` the per-layer ones derived from the
//! spans the run records (written to `.perfbench/spans-<workload>-<seed>.jsonl`).
//! See README.md beside this package.

mod common;
mod ingest;
mod layers;
mod oracle;
mod reads;
mod reads_workloads;

use common::{print_result, Metrics, Settings, Tally, Tracer, OUT_DIR};
use std::path::Path;

/// One workload: runs a whole benchmark run and returns its metrics.
type Workload = fn(&Settings, &mut Tally, &mut Tracer) -> Metrics;

/// The workloads, by name.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("mobility_topk", reads_workloads::mobility_topk),
    ("hot_clique", reads_workloads::hot_clique),
    ("paged_mobility", reads_workloads::paged_mobility),
    ("ingest_stream", ingest::ingest_stream),
];

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke]",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Settings {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    Settings {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        smoke,
    }
}

fn main() {
    let settings = parse_args();
    std::fs::create_dir_all(OUT_DIR).expect("the output directory can be created");
    let run = WORKLOADS.iter().find(|(n, _)| *n == settings.workload).expect("checked above").1;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(settings.trace);
    let metrics = run(&settings, &mut tally, &mut tracer);
    if settings.trace {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", settings.workload, settings.seed));
        tracer.write(&path).expect("the span file can be written");
        eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display());
    }
    print_result(&tally, &metrics);
}

//! Benchmark of record for the PPQ-Trajectory stack. One process runs one
//! workload; `run.sh` builds this binary and runs it once per workload.
//! See `README.md` for the workloads, the metrics and how they interact.

mod gen;
mod load;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;

pub const WORKLOADS: &[&str] = &["build", "mem_query", "disk_spill", "tcp_read", "live_mixed"];

/// What one invocation was asked to do, plus what it found.
pub struct Run {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: sizes ÷ 20, no claim to steadiness.
    pub quick: bool,
    /// The benchmark's scratch and trace directory (`benchmark/out`).
    pub out_dir: PathBuf,
    pub metrics: Metrics,
    /// Operations and checks attempted, and how many failed, were refused
    /// or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    pub fn scale(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Count `n` checks of which `bad` failed; say why on stderr.
    pub fn check(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("FAILED {what}: {bad} of {n}");
        }
    }

    /// A fact worth a line in the report that is not a metric.
    pub fn note(&self, key: &str, value: impl std::fmt::Display) {
        println!("note {key} = {value}");
    }
}

/// The process's high-water mark of resident memory (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: ppq-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 1u64, 10.0f64, false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage();
    }
    let mut run = Run {
        seed,
        seconds,
        trace,
        quick,
        // Relative to the checkout root, where `run.sh` starts this.
        out_dir: PathBuf::from("benchmark/out"),
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.note("workload", &workload);
    run.note("seed", seed);
    run.note("cores", cores);
    run.note(
        "rayon_num_threads",
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    let result = match workload.as_str() {
        "build" => workloads::build(&mut run),
        "mem_query" => workloads::mem_query(&mut run),
        "disk_spill" => workloads::disk_spill(&mut run),
        "tcp_read" => workloads::tcp_read(&mut run),
        "live_mixed" => workloads::live_mixed(&mut run),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("FAILED {workload}: {e}");
        std::process::exit(1);
    }
    // Report: every metric by name with its unit, then the result line.
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = run.metrics.get(name).unwrap_or(0.0);
        if !value.is_finite() || (!trace && value <= 0.0) {
            eprintln!("FAILED {workload}: metric {name} has no usable value ({value})");
            run.failed += 1;
        }
        println!("{name} {value} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("ops_attempted {} count", run.attempted);
    println!("ops_failed {} count", run.failed);
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.attempted.max(1),
        run.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

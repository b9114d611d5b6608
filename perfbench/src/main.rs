//! The repository benchmark: four closed-loop workloads against the
//! library's public API, each printing named end-to-end metrics (tracing
//! off) or, with `--trace 1`, named per-layer metrics from spans taken
//! around the calls into each layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-contended --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed correctness check exits
//! with code 1; bad arguments exit with code 2.

mod check;
mod harness;
mod inputs;
mod mem;
mod net;
mod report;
mod spans;
mod sys;

use report::Run;
use std::path::PathBuf;

/// Workload names. `BENCHMARK.json` lists every one but `tcp-pipelined`,
/// which runs by hand only: on a shared 2-vCPU host its runs spread past
/// the benchmark's bounds (see README.md).
const WORKLOADS: &[&str] = &[
    "mem-contended",
    "mem-audited",
    "tcp-pipelined",
    "cluster-batch",
];

/// Where the traced run writes its spans, relative to the working
/// directory: one file per workload, replaced by each traced run, so
/// repeated runs do not pile up files.
const TRACE_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = sys::Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let ticks0 = sys::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "mem-contended" => mem::run(false, seed, secs, trace),
        "mem-audited" => mem::run(true, seed, secs, trace),
        "tcp-pipelined" => net::run(false, seed, secs, trace),
        "cluster-batch" => net::run(true, seed, secs, trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    if let Some(t) = out.trace.take() {
        let path = PathBuf::from(TRACE_DIR).join(format!("{}.spans.tsv", args.workload));
        match t.write(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let ticks1 = sys::cpu_ticks();
    let run = Run {
        steal_share: (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64,
        workload: &args.workload,
        seed,
        seconds: secs,
        trace,
        host: &host,
    };
    report::print(&run, &out);
    if !out.correct() {
        std::process::exit(1);
    }
}

//! Metric names, units and the result printout. The names here are the
//! ones `BENCHMARK.json` declares; every later performance claim is made
//! against them.

use crate::check::Check;
use crate::spans::{Agg, Trace};
use crate::sys::Host;
use cnet_util::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("cpu_ns_per_op", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics printed by name but not in the final JSON line:
/// they are 0, or exist only on one workload, so no spread can be taken
/// of them across every workload.
pub const END_TO_END_REPORTED: &[(&str, &str)] = &[("error_rate", "share")];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A metric
/// whose layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiled.hop_ns", "ns"),
    ("counter.increment_ns", "ns"),
    ("counter.exit_ns", "ns"),
    ("recorder.record_ns", "ns"),
    ("recorder.dropped_share", "share"),
    ("recorder.pull_ns_per_event", "ns"),
    ("recorder.empty_pull_share", "share"),
    ("trace.observe_ns", "ns"),
    ("trace.take_frontier_ns", "ns"),
    ("trace.ingest_ns", "ns"),
    ("trace.merge_ns_per_event", "ns"),
    ("trace.buffered_max", "count"),
    ("audit_coverage", "share"),
    ("verdict_lag_s", "s"),
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.response_encode_ns", "ns"),
    ("wire.response_decode_ns", "ns"),
    ("wire.bytes_per_op", "bytes"),
    ("client.burst_rtt_us", "us"),
    ("client.ping_rtt_us", "us"),
    ("server.requests_per_wakeup", "count"),
    ("server.events_per_wakeup", "count"),
    ("server.cpu_ns_per_op", "ns"),
    ("server.switches_per_op", "count"),
    ("server.rejected", "count"),
    ("router.forward_rtt_us", "us"),
    ("router.ingress_batch_us", "us"),
    ("router.tail_ops_per_frame", "count"),
];

/// One measured value; `samples` is the count behind a percentile.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<u64>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Correctness outputs and diagnostics printed beside the metrics.
    pub notes: Vec<String>,
    /// Per-window figures behind the reported medians, for the record.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<crate::spans::Trace>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: None,
        });
    }

    pub fn sampled(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Some(samples),
        });
    }

    pub fn series(&mut self, name: &'static str, values: Vec<f64>) {
        self.series.push((name, values));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Counts every increment of a run that failed a check as failed.
    pub fn settle_failures(&mut self) {
        if !self.correct() {
            self.failed = self.attempted;
        }
    }
}

/// Linear-interpolated quantile of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the samples left after dropping the lowest and highest
/// `trim` share; 0 when empty.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(END_TO_END_REPORTED)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Run identity stamped on every result record.
pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: &'a Host,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// run; the socket workloads slow down sharply when it is high.
    pub steal_share: f64,
}

/// Prints the human-readable report, the full result record, and — last
/// — the one-line result the benchmark contract asks for.
pub fn print(run: &Run, out: &Outcome) {
    let h = run.host;
    println!(
        "host: nproc={} cpu=\"{}\" kernel={} profile={} git_rev={} steal={:.1}%",
        h.nproc,
        h.cpu_model,
        h.kernel,
        h.profile,
        h.git_rev,
        run.steal_share * 100.0
    );
    for m in &out.metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  (samples {n})"));
        println!(
            "  {:<28} {:>16.4} {}{samples}",
            m.name,
            m.value,
            unit_of(m.name)
        );
    }
    let names = if run.trace { PER_LAYER } else { END_TO_END };
    let absent: Vec<&str> = names
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| out.get(n).is_none())
        .collect();
    if !absent.is_empty() {
        println!(
            "  not measured on this workload (0 in the result line): {}",
            absent.join(", ")
        );
    }
    for line in &out.notes {
        println!("  {line}");
    }
    for c in &out.checks {
        println!(
            "check {}: {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let record = Value::Object(vec![
        ("workload".into(), Value::Str(run.workload.into())),
        ("seed".into(), Value::Int(run.seed as i64)),
        ("seconds".into(), Value::Float(run.seconds)),
        ("trace".into(), Value::Bool(run.trace)),
        (
            "host".into(),
            Value::Object(vec![
                ("nproc".into(), Value::Int(h.nproc as i64)),
                ("cpu_model".into(), Value::Str(h.cpu_model.clone())),
                ("kernel".into(), Value::Str(h.kernel.clone())),
                ("profile".into(), Value::Str(h.profile.into())),
                ("git_rev".into(), Value::Str(h.git_rev.clone())),
                ("steal_share".into(), Value::Float(run.steal_share)),
            ]),
        ),
        (
            "metrics".into(),
            Value::Object(
                out.metrics
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::Str(unit_of(m.name).into())),
                        ];
                        if let Some(n) = m.samples {
                            fields.push(("samples".into(), Value::Int(n as i64)));
                        }
                        (m.name.to_string(), Value::Object(fields))
                    })
                    .collect(),
            ),
        ),
        (
            "series".into(),
            Value::Object(
                out.series
                    .iter()
                    .map(|(name, v)| {
                        (
                            name.to_string(),
                            Value::Array(v.iter().map(|&x| Value::Float(x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("record {}", record.to_json_string());
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = out.get(name).unwrap_or(0.0);
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::Int(out.attempted as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_json_string());
}

/// Prints the per-span-name summary of a traced run (count, mean and
/// self time per unit).
pub fn trace_notes(out: &mut Outcome, trace: &Trace, sum: &BTreeMap<&'static str, Agg>) {
    out.note(format!(
        "spans: {} kept, {} beyond the per-thread cap; empty-span cost {:.1} ns (subtracted per span)",
        trace.kept(),
        trace.lost(),
        trace.overhead_ns
    ));
    for (name, a) in sum {
        out.note(format!(
            "span {name:<26} count {:>8}  units {:>10}  ns/unit {:>10.1}  self ns/unit {:>10.1}",
            a.count,
            a.units,
            a.per_unit_ns(trace.overhead_ns),
            a.self_per_unit_ns(trace.overhead_ns)
        ));
    }
}

/// Prints traced against untraced throughput.
pub fn overhead_note(out: &mut Outcome, untraced: f64, traced: f64) {
    out.note(format!(
        "tracing overhead: untraced ops_per_s {untraced:.1}, traced {traced:.1} ({:+.2}%)",
        (traced / untraced.max(1.0) - 1.0) * 100.0
    ));
}

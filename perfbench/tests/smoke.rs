//! A minimal-length run of every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` names, with its unit, and passes its
//! correctness checks.

use cnet_util::json::{self, Value};
use std::process::Command;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("name").to_string();
            (name, m["unit"].as_str().expect("unit").to_string())
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    (
        stdout.clone(),
        json::parse(last).expect("last line is JSON"),
    )
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let spec = declared();
    let workloads: Vec<String> = spec["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads, ["mem-contended", "mem-audited", "cluster-batch"]);
    // tcp-pipelined is not declared, but runs by hand and reports the same
    // metrics.
    for workload in workloads
        .iter()
        .map(String::as_str)
        .chain(["tcp-pipelined"])
    {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            let Value::Object(fields) = &result else {
                panic!("result object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"].as_bool(), Some(true), "{stdout}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            assert_eq!(result["failed"].as_u64(), Some(0));
            let Value::Object(metrics) = &result["metrics"] else {
                panic!("metrics object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v["value"].as_f64().expect("numeric value").is_finite());
                    (k.clone(), v["unit"].as_str().expect("unit").to_string())
                })
                .collect();
            assert_eq!(printed, names(&spec[list]), "{workload} trace={trace}");
            let absent = stdout
                .lines()
                .find_map(|l| l.trim_start().strip_prefix("not measured on this workload"))
                .unwrap_or("");
            for (name, unit) in &printed {
                let line = stdout
                    .lines()
                    .find(|l| l.trim_start().starts_with(&format!("{name} ")));
                let shown = line.is_some_and(|l| {
                    l.trim_end().ends_with(&format!(" {unit}"))
                        || l.contains(&format!(" {unit}  (samples"))
                });
                assert!(
                    shown || (trace && absent.contains(name.as_str())),
                    "{workload} trace={trace}: no `{name} <value> {unit}` line in\n{stdout}"
                );
            }
            assert!(
                stdout.contains("\"host\":{\"nproc\":"),
                "result record stamps the host"
            );
            assert!(
                stdout.contains("\"seed\":3"),
                "result record stamps the seed"
            );
            assert!(
                stdout.contains("\"steal_share\":"),
                "result record stamps the host's CPU steal"
            );
            if !trace {
                assert!(
                    stdout.contains("\"samples\":"),
                    "percentiles carry sample counts"
                );
                assert!(
                    stdout.contains("error_rate"),
                    "error_rate is printed by name"
                );
            } else {
                assert!(stdout.contains("reconcile"), "traced run reconciles layers");
                assert!(
                    stdout.contains("tracing overhead"),
                    "traced run prints its overhead"
                );
            }
            if workload == "mem-audited" && !trace {
                assert!(stdout.contains("audit_coverage") && stdout.contains("verdict_lag_s"));
                assert!(stdout.contains("F_nl="), "merged verdict printed");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

//! The PR-3 refactor's load-bearing property: the incremental (streaming)
//! consistency monitors in `cnet_core::trace` agree, event for event, with
//! the retained batch sweeps in `cnet_core::consistency` /
//! `cnet_core::fractions` — and both agree with a brute-force quadratic
//! oracle — on arbitrary operation sets, including the adversarial
//! executions produced by the Theorem 3.2 transformation
//! (`cnet_sim::transform::desequentialize`).
//!
//! Failing seeds are logged by the harness; replay with
//! `CNET_PROPTEST_SEED=<seed>`.

use cnet_core::consistency::{
    find_linearizability_violation, find_sequential_consistency_violation, is_linearizable,
    is_sequentially_consistent,
};
use cnet_core::fractions::{
    non_linearizability_fraction, non_linearizable_ops, non_sequential_consistency_fraction,
    non_sequentially_consistent_ops,
};
use cnet_core::op::Op;
use cnet_core::trace::{enter_order, stream_execution, RawOp};
use cnet_core::{
    StreamingAuditor, StreamingFractionMeter, StreamingLinMonitor, StreamingQqcMeter,
    StreamingScMonitor,
};
use cnet_sim::engine::run;
use cnet_sim::transform::desequentialize;
use cnet_sim::workload::{generate, WorkloadConfig};
use cnet_topology::construct::bitonic;
use cnet_util::proptest::prelude::*;

/// Random operation sets: arbitrary processes, overlapping integer-ns
/// intervals, and values drawn from a small range so collisions and
/// inversions are common.
fn random_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..5, 0u64..600, 0u64..200, 0u64..30), 0..48).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(k, (process, enter_ns, duration, value))| Op {
                process,
                enter_ns,
                enter_seq: k,
                exit_ns: enter_ns + duration,
                exit_seq: k,
                value,
            })
            .collect()
    })
}

/// One op of a gapped counter stream, as drawn: `(pick, delta, duration,
/// jump, kind)` — see [`gapped_stream`].
type GappedStep = (usize, u64, u64, u64, u64);

fn gapped_steps(picks: usize) -> impl Strategy<Value = Vec<GappedStep>> {
    prop::collection::vec((0usize..picks, 0u64..30, 0u64..160, 0u64..2000, 0u64..12), 0..160)
}

/// Turns drawn steps into `(pick, enter_ns, exit_ns, value)` ops on one
/// clock, as a counter hands values out to an audit that misses some:
///
/// * enters advance by `delta`; a `duration` past 140 stretches to up to
///   ~1.1 µs, so a slow op stays pending while dozens of later values
///   finish and the finished set spans several 64-value words;
/// * a `jump` past 1960 first skips a run of up to ~300 values (a ring
///   overflow or a sampling gap, long enough to cross words);
/// * `kind` 0 repeats the previous value, 1 swaps this value with the
///   previous op's (an out-of-order hand-out), anything else takes the
///   next value.
fn gapped_stream(steps: &[GappedStep]) -> Vec<(usize, u64, u64, u64)> {
    let (mut t, mut next) = (0u64, 0u64);
    let mut ops: Vec<(usize, u64, u64, u64)> = Vec::with_capacity(steps.len());
    for &(pick, delta, duration, jump, kind) in steps {
        t += delta;
        let exit = t + if duration < 140 { duration } else { (duration - 140) * 60 };
        let value = match (kind, ops.last()) {
            (0, Some(&(_, _, _, prev))) => prev,
            _ => {
                next += jump.saturating_sub(1960) * 8;
                next += 1;
                next - 1
            }
        };
        ops.push((pick, t, exit, value));
        let n = ops.len();
        if kind == 1 && n >= 2 {
            let (a, b) = (ops[n - 2].3, ops[n - 1].3);
            ops[n - 2].3 = b;
            ops[n - 1].3 = a;
        }
    }
    ops
}

/// Random operation sets over [`gapped_stream`]: value gaps that cross
/// 64-value words, duplicate values, and overlapping intervals of mixed
/// length, so finish order differs from both enter and value order.
fn gapped_ops() -> impl Strategy<Value = Vec<Op>> {
    gapped_steps(5).prop_map(|steps| {
        gapped_stream(&steps)
            .into_iter()
            .enumerate()
            .map(|(k, (process, enter_ns, exit_ns, value))| Op {
                process,
                enter_ns,
                enter_seq: k,
                exit_ns,
                exit_seq: k,
                value,
            })
            .collect()
    })
}

/// Brute-force QQC oracle: each op's lateness, the number of ops that
/// completely precede it with a larger value, listed in enter order.
fn quadratic_lateness(ops: &[Op]) -> Vec<u64> {
    enter_order(ops)
        .into_iter()
        .map(|i| {
            let o = &ops[i];
            ops.iter().filter(|a| a.completely_precedes(o) && a.value > o.value).count() as u64
        })
        .collect()
}

/// Streams `ops` in enter order through a fresh QQC meter and checks its
/// per-op lateness and its summary statistics against the oracle.
fn check_qqc_against_oracle(ops: &[Op]) -> Result<(), String> {
    let oracle = quadratic_lateness(ops);
    let mut qqc = StreamingQqcMeter::new();
    for (k, &i) in enter_order(ops).iter().enumerate() {
        prop_assert_eq!(qqc.push(&ops[i]), oracle[k], "lateness of {:?}", ops[i]);
    }
    prop_assert_eq!(qqc.total(), ops.len());
    prop_assert_eq!(qqc.qqc_max(), oracle.iter().copied().max().unwrap_or(0));
    prop_assert_eq!(qqc.late_ops(), oracle.iter().filter(|&&l| l > 0).count());
    prop_assert_eq!(qqc.late_ops(), non_linearizable_ops(ops).len());
    let mean = match ops.len() {
        0 => 0.0,
        n => oracle.iter().sum::<u64>() as f64 / n as f64,
    };
    prop_assert_eq!(qqc.qqc_mean(), mean);
    Ok(())
}

/// Brute-force oracle: some op completely precedes another with a larger
/// value.
fn quadratic_non_linearizable(ops: &[Op]) -> bool {
    ops.iter().any(|a| {
        ops.iter().any(|b| a.completely_precedes(b) && a.value > b.value)
    })
}

/// Brute-force oracle: some *same-process* op is followed, in per-process
/// program order (enter key), by an op with a smaller value. Real processes
/// are sequential, so enter order *is* program order; random test data may
/// make a process overlap itself, which is why this deliberately does not
/// require `completely_precedes`.
fn quadratic_non_sequentially_consistent(ops: &[Op]) -> bool {
    ops.iter().any(|a| {
        ops.iter().any(|b| {
            a.process == b.process && a.enter_key() < b.enter_key() && a.value > b.value
        })
    })
}

/// Streams `ops` in enter order through fresh monitors.
fn stream(ops: &[Op]) -> (StreamingLinMonitor, StreamingScMonitor, StreamingFractionMeter) {
    let mut lin = StreamingLinMonitor::new();
    let mut sc = StreamingScMonitor::new();
    let mut meter = StreamingFractionMeter::new();
    for &i in &enter_order(ops) {
        lin.push(&ops[i]);
        sc.push(&ops[i]);
        meter.push(&ops[i]);
    }
    (lin, sc, meter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On arbitrary operation sets, the streaming verdicts match the batch
    /// sweeps, and both match the quadratic oracles.
    #[test]
    fn streaming_monitors_match_batch_sweeps(ops in random_ops()) {
        let (lin, sc, _) = stream(&ops);
        let oracle_lin = !quadratic_non_linearizable(&ops);
        prop_assert_eq!(lin.is_linearizable(), oracle_lin);
        prop_assert_eq!(is_linearizable(&ops), oracle_lin);
        prop_assert_eq!(find_linearizability_violation(&ops).is_none(), oracle_lin);
        let oracle_sc = !quadratic_non_sequentially_consistent(&ops);
        prop_assert_eq!(sc.is_sequentially_consistent(), oracle_sc);
        prop_assert_eq!(is_sequentially_consistent(&ops), oracle_sc);
        prop_assert_eq!(find_sequential_consistency_violation(&ops).is_none(), oracle_sc);
    }

    /// Batch violation witnesses index the original slice and are real
    /// violations of the claimed kind.
    #[test]
    fn batch_witnesses_are_genuine(ops in random_ops()) {
        if let Some(v) = find_linearizability_violation(&ops) {
            prop_assert!(ops[v.earlier].completely_precedes(&ops[v.later]));
            prop_assert!(ops[v.earlier].value > ops[v.later].value);
        }
        if let Some(v) = find_sequential_consistency_violation(&ops) {
            prop_assert_eq!(ops[v.earlier].process, ops[v.later].process);
            // Program order, not real-time precedence: see the SC oracle.
            prop_assert!(ops[v.earlier].enter_key() < ops[v.later].enter_key());
            prop_assert!(ops[v.earlier].value > ops[v.later].value);
        }
    }

    /// The streaming fraction meter reproduces the batch Section 5.1
    /// counts and fractions, and its memory stays bounded by the maximum
    /// concurrency, not the stream length.
    #[test]
    fn streaming_fractions_match_batch_fractions(ops in random_ops()) {
        let (lin, _, meter) = stream(&ops);
        prop_assert_eq!(meter.total(), ops.len());
        prop_assert_eq!(meter.non_linearizable(), non_linearizable_ops(&ops).len());
        prop_assert_eq!(
            meter.non_sequentially_consistent(),
            non_sequentially_consistent_ops(&ops).len()
        );
        let f_nl = non_linearizability_fraction(&ops);
        let f_nsc = non_sequential_consistency_fraction(&ops);
        prop_assert!((meter.f_nl() - f_nl).abs() < 1e-12);
        prop_assert!((meter.f_nsc() - f_nsc).abs() < 1e-12);
        // Bounded memory: the heap never holds more ops than can overlap.
        let mut max_concurrency = 0usize;
        for a in &ops {
            let overlapping = ops.iter().filter(|b| a.overlaps(b)).count();
            max_concurrency = max_concurrency.max(overlapping);
        }
        prop_assert!(lin.pending_len() <= max_concurrency.max(1));
    }

    /// Theorem 3.2 adversarial permutations: when the transformation
    /// applies, the streamed verdicts on the transformed execution agree
    /// with the batch sweeps, and the transformed run is indeed not
    /// sequentially consistent.
    #[test]
    fn adversarial_transforms_agree_end_to_end(
        lgw in 1usize..3,
        seed in 0u64..400,
        ratio in 4.0f64..24.0,
    ) {
        let net = bitonic(1 << lgw).unwrap();
        let cfg = WorkloadConfig {
            processes: 4,
            tokens_per_process: 3,
            c_min: 0.5,
            c_max: 0.5 * ratio,
            local_delay: 0.0,
            start_spread: 1.0,
        };
        let specs = generate(&net, &cfg, seed);
        let exec = run(&net, &specs).unwrap();
        // Only non-linearizable executions (with slack) transform; skip the
        // rest — the unconditional agreement is covered above.
        let Ok(outcome) = desequentialize(&net, &specs, &exec) else { return Ok(()) };
        let twisted = run(&net, &outcome.specs).unwrap();
        let ops = Op::from_execution(&twisted);
        let mut auditor = StreamingAuditor::new();
        let n = stream_execution(&twisted, &mut auditor);
        prop_assert_eq!(n, ops.len());
        prop_assert_eq!(auditor.operations(), ops.len());
        prop_assert_eq!(auditor.is_linearizable(), is_linearizable(&ops));
        prop_assert_eq!(
            auditor.is_sequentially_consistent(),
            is_sequentially_consistent(&ops)
        );
        prop_assert!((auditor.f_nl() - non_linearizability_fraction(&ops)).abs() < 1e-12);
        prop_assert!((auditor.f_nsc() - non_sequential_consistency_fraction(&ops)).abs() < 1e-12);
        // The whole point of the construction:
        prop_assert!(!auditor.is_sequentially_consistent());
    }

    /// The streaming QQC meter's lateness, op by op, and its max, late
    /// count and mean match the quadratic count — on streams with value
    /// gaps, duplicates and out-of-order finishes, and on the small-range
    /// operation sets above.
    #[test]
    fn qqc_meter_matches_the_quadratic_lateness_oracle(
        gapped in gapped_ops(),
        dense in random_ops(),
    ) {
        check_qqc_against_oracle(&gapped)?;
        check_qqc_against_oracle(&dense)?;
    }
}

/// Random per-shard streams with nondecreasing enter stamps — the shape
/// the recorder's rings actually produce — plus a seed that drives the
/// chunking and interleaving of the sharded pipeline.
fn random_shard_streams() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..50, 0u64..40, 0u64..200), 0..40),
        1..5,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(shard, stream)| {
                let mut t = 0u64;
                stream
                    .into_iter()
                    .map(|(delta, duration, value)| {
                        t += delta;
                        RawOp {
                            process: shard,
                            enter_ns: t,
                            exit_ns: t + duration,
                            value,
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

/// Per-shard streams cut from one [`gapped_stream`]: each op is dealt to
/// the shard its `pick` names, so a shard sees a sparse subset of the
/// values, as a recorder ring does.
fn gapped_shard_streams() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    (1usize..5, gapped_steps(4)).prop_map(|(shards, steps)| {
        let mut streams = vec![Vec::new(); shards];
        for (pick, enter_ns, exit_ns, value) in gapped_stream(&steps) {
            let shard = pick % shards;
            streams[shard].push(RawOp { process: shard, enter_ns, exit_ns, value });
        }
        streams
    })
}

/// Runs `streams` through the sequential merger + auditor and through
/// shard monitors cut into frontiers at `seed`-chosen boundaries and merged
/// in a `seed`-shuffled order; the two verdicts must be bit-identical.
fn check_merge_matches_sequential(streams: &[Vec<RawOp>], seed: u64) -> Result<(), String> {
    use cnet_core::trace::{EventMerger, MergeAuditor, ShardMonitor};

    // The sequential reference: whole streams, one merger, one drain.
    let mut merger = EventMerger::new(streams.len());
    for (shard, stream) in streams.iter().enumerate() {
        for &op in stream {
            merger.push(shard, op);
        }
        merger.finish(shard);
    }
    let mut reference = StreamingAuditor::new();
    merger.drain_into(&mut reference);

    // The sharded pipeline: each shard consumed by its own monitor,
    // cut into frontiers at xorshift-chosen boundaries, ingested in a
    // xorshift-shuffled shard order.
    let mut x = seed;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut monitors: Vec<ShardMonitor> = (0..streams.len()).map(ShardMonitor::new).collect();
    let mut cursors = vec![0usize; streams.len()];
    let mut merged = MergeAuditor::new(streams.len());
    loop {
        let alive: Vec<usize> =
            (0..streams.len()).filter(|&s| cursors[s] < streams[s].len()).collect();
        if alive.is_empty() {
            break;
        }
        let s = alive[(rng() as usize) % alive.len()];
        let take = 1 + (rng() as usize) % (streams[s].len() - cursors[s]);
        for &op in &streams[s][cursors[s]..cursors[s] + take] {
            monitors[s].observe(op);
        }
        cursors[s] += take;
        let finished = cursors[s] == streams[s].len();
        merged.ingest(monitors[s].take_frontier(finished));
    }
    for (shard, stream) in streams.iter().enumerate() {
        if stream.is_empty() {
            merged.finish_shard(shard);
        }
    }

    // Bit-identical verdict (the summary covers ops, both violation
    // counts, both fractions, and the whole QQC lateness profile).
    prop_assert_eq!(merged.summary(), reference.summary());
    let audited = merged.auditor();
    prop_assert_eq!(audited.operations(), reference.operations());
    prop_assert_eq!(audited.is_linearizable(), reference.is_linearizable());
    prop_assert_eq!(audited.is_sequentially_consistent(), reference.is_sequentially_consistent());
    // Nothing fell between frontiers: per-shard coverage is exact.
    let observed: usize = merged.shard_stats().iter().map(|st| st.observed).sum();
    let total: usize = streams.iter().map(Vec::len).sum();
    prop_assert_eq!(observed, total);
    // Local candidates never overclaim: a shard-local precedence is a
    // genuine global precedence, so the lower bounds must hold.
    let local_nl: usize = merged.shard_stats().iter().map(|st| st.candidate_non_lin).sum();
    prop_assert!(local_nl <= audited.non_linearizable());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The parallel audit pipeline's load-bearing property: shard
    /// monitors chunked at arbitrary frontier boundaries and merged in an
    /// arbitrary interleaving produce a verdict **bit-identical** to the
    /// sequential merger + auditor on the same per-shard streams (both
    /// small-range random values and gapped counter streams), and the
    /// frontiers' local candidate counts are sound lower bounds on the
    /// global counts. Failing seeds are logged by the harness; replay
    /// with `CNET_PROPTEST_SEED=<seed>`.
    #[test]
    fn merge_auditor_matches_the_sequential_auditor(
        streams in random_shard_streams(),
        gapped in gapped_shard_streams(),
        seed in 1u64..u64::MAX,
    ) {
        check_merge_matches_sequential(&streams, seed)?;
        check_merge_matches_sequential(&gapped, seed)?;
    }
}

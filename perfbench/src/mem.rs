//! The in-process workloads. Two threads increment compiled bitonic B(8)
//! back to back through `ProcessCounter::next_for`, each serving four of
//! the eight logical processes (one per entry wire) in a seeded order.
//!
//! * `mem-contended`: the bare `SharedNetworkCounter`.
//! * `mem-audited`: the same counter wrapped in `Traced`, recording every
//!   increment into a `TraceRecorder` with one 2^16-event ring per
//!   process, while one live audit worker pulls the rings into
//!   `ShardMonitor`s and a `MergeAuditor`.

use crate::check::{self, Check};
use crate::harness::{self, Ctl, Timed, WindowStats};
use crate::inputs;
use crate::report::{self, median, Outcome};
use crate::spans::{now, SpanLog, Trace};
use crate::sys;
use cnet_core::trace::{MergeAuditor, RawOp, ShardMonitor};
use cnet_runtime::{ProcessCounter, SharedNetworkCounter, TraceRecorder, Traced};
use cnet_topology::construct::bitonic;
use cnet_util::time::Clock;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Network width: compiled bitonic B(8).
pub const FAN: usize = 8;
/// In-process worker threads.
pub const THREADS: usize = 2;
/// Ring size per recorder shard, as `cnet serve` allocates.
pub const RING: usize = 1 << 16;
/// Set-ups per run; `setup_s` is their trimmed mean.
pub const SETUP_REPEATS: usize = 51;
/// Increments per latency sample and per progress report.
const BLOCK: u64 = 64;
/// In the traced run, one increment in this many carries spans.
const SPAN_EVERY: u64 = 256;
/// Pause between audit rounds, as the library's own audit workers take.
const AUDIT_PAUSE: Duration = Duration::from_micros(500);

const WORKER_NAMES: [&str; THREADS] = ["worker0", "worker1"];

enum Rig {
    Plain(SharedNetworkCounter),
    Audited(Traced<SharedNetworkCounter>),
}

impl Rig {
    fn build(audited: bool) -> Rig {
        let net = bitonic(FAN).expect("bitonic B(8) builds");
        let counter = SharedNetworkCounter::new(&net);
        if audited {
            Rig::Audited(Traced::new(
                counter,
                Arc::new(TraceRecorder::new(FAN, RING)),
            ))
        } else {
            Rig::Plain(counter)
        }
    }

    fn counter(&self) -> &SharedNetworkCounter {
        match self {
            Rig::Plain(c) => c,
            Rig::Audited(t) => t.inner(),
        }
    }

    fn recorder(&self) -> Option<&TraceRecorder> {
        match self {
            Rig::Plain(_) => None,
            Rig::Audited(t) => Some(t.recorder()),
        }
    }

    #[inline]
    fn next(&self, process: usize) -> u64 {
        match self {
            Rig::Plain(c) => c.next_for(process),
            Rig::Audited(t) => t.next_for(process),
        }
    }

    /// One increment split into its layer calls, each under a span: the
    /// same calls `Traced::next_for` makes, in the same order.
    fn next_traced(&self, process: usize, id: u64, log: &mut SpanLog) -> u64 {
        let root = log.begin("op", id, None);
        let a = now();
        let value = self.counter().increment_from(process);
        let b = now();
        log.push("counter.increment_from", id, root, (a, b), 1);
        if let Some(rec) = self.recorder() {
            let a = now();
            rec.record(process, value);
            let b = now();
            log.push("recorder.record", id, root, (a, b), 1);
        }
        log.end(root, 1);
        value
    }
}

struct WorkerOut {
    sum: u128,
    bursts: harness::Samples,
    last_return: Instant,
    log: Option<SpanLog>,
}

fn worker(t: usize, ctl: &Ctl, rig: &Rig, seq: &[usize], traced: bool) -> WorkerOut {
    let mask = seq.len() - 1;
    let mut log = traced.then(|| SpanLog::new(WORKER_NAMES[t]));
    let (mut i, mut sum) = (0u64, 0u128);
    let mut bursts = harness::Samples::default();
    loop {
        let t0 = Instant::now();
        for _ in 0..BLOCK {
            let p = seq[i as usize & mask];
            let value = match &mut log {
                Some(log) if i % SPAN_EVERY == 0 => rig.next_traced(p, (t as u64) << 40 | i, log),
                _ => rig.next(p),
            };
            sum += value as u128;
            i += 1;
        }
        if let Some(w) = ctl.window() {
            bursts.push(w, t0.elapsed());
        }
        ctl.report(t, i);
        if ctl.stopped() {
            break;
        }
    }
    let last_return = Instant::now();
    if let Some(rec) = rig.recorder() {
        // Publish the partial batches of this thread's shards before the
        // audit worker is told the writers are done.
        for p in (t..FAN).step_by(THREADS) {
            rec.flush(p);
        }
    }
    WorkerOut {
        sum,
        bursts,
        last_return,
        log,
    }
}

/// The merged verdict of one round.
#[derive(Debug)]
struct Verdict {
    observed: u64,
    dropped: u64,
    skipped: u64,
    non_linearizable: u64,
    qqc_max: u64,
}

impl Verdict {
    fn of(merged: &MergeAuditor) -> Verdict {
        Verdict {
            observed: merged.operations() as u64,
            dropped: merged.dropped(),
            skipped: merged.skipped(),
            non_linearizable: merged.auditor().non_linearizable() as u64,
            qqc_max: merged.auditor().qqc_max(),
        }
    }

    fn f_nl(&self) -> f64 {
        self.non_linearizable as f64 / self.observed.max(1) as f64
    }
}

struct AuditOut {
    verdict: Verdict,
    ready_at: Instant,
    pulls: u64,
    empty_pulls: u64,
    buffered_max: usize,
    log: Option<SpanLog>,
}

/// The live audit worker, one `ShardMonitor` per shard and one
/// `MergeAuditor` for the whole round, as `drive_audited_parallel` and
/// `cnet serve --audit-threads` keep them: pulls every shard into its
/// monitor and folds frontiers into the merger. After the writers are done it drains what is left, closes
/// every shard and merges the final verdict.
fn audit(rec: &TraceRecorder, writers_done: &AtomicBool, traced: bool) -> AuditOut {
    let shards = rec.shards();
    let mut mons: Vec<ShardMonitor> = (0..shards).map(ShardMonitor::new).collect();
    let mut merged = MergeAuditor::new(shards);
    let mut acct = vec![(0u64, 0u64); shards];
    let mut log = traced.then(|| SpanLog::new("audit"));
    let mut buf: Vec<(u64, u64, u64)> = Vec::new();
    let (mut pulls, mut empty_pulls, mut buffered_max, mut round) = (0u64, 0u64, 0usize, 0u64);
    loop {
        let closing = writers_done.load(Ordering::Acquire);
        let root = log
            .as_mut()
            .and_then(|l| l.begin("audit.round", round, None));
        let mut pulled = 0;
        for (sh, mon) in mons.iter_mut().enumerate() {
            let observe = |mon: &mut ShardMonitor, enter_ns, exit_ns, value| {
                mon.observe(RawOp {
                    process: sh,
                    enter_ns,
                    exit_ns,
                    value,
                });
            };
            let n = match &mut log {
                None => rec.pull_shard(sh, |e, x, v| observe(mon, e, x, v)),
                Some(log) => {
                    buf.clear();
                    let a = now();
                    let n = rec.pull_shard(sh, |e, x, v| buf.push((e, x, v)));
                    let b = now();
                    log.push("recorder.pull_shard", round, root, (a, b), n as u64);
                    let a = now();
                    for &(e, x, v) in &buf {
                        observe(mon, e, x, v);
                    }
                    let b = now();
                    log.push("trace.observe", round, root, (a, b), n as u64);
                    n
                }
            };
            pulls += 1;
            empty_pulls += (n == 0) as u64;
            pulled += n;
            let totals = (rec.dropped_on(sh), rec.skipped_on(sh));
            mon.add_dropped(totals.0 - acct[sh].0);
            mon.add_skipped(totals.1 - acct[sh].1);
            acct[sh] = totals;
        }
        if pulled > 0 || closing {
            for mon in mons.iter_mut().filter(|m| m.buffered() > 0 || closing) {
                match &mut log {
                    None => {
                        merged.ingest(mon.take_frontier(closing));
                    }
                    Some(log) => {
                        // `ingest` = push every event, then fold the
                        // totals and release; timed as its two halves.
                        let a = now();
                        let mut frontier = mon.take_frontier(closing);
                        let b = now();
                        log.push("trace.take_frontier", round, root, (a, b), 1);
                        let ops = std::mem::take(&mut frontier.ops);
                        let a = now();
                        for op in ops {
                            merged.push(frontier.shard, op);
                        }
                        let b = now();
                        log.push("trace.ingest", round, root, (a, b), 1);
                        let a = now();
                        let released = merged.ingest(frontier);
                        let b = now();
                        log.push("trace.merge", round, root, (a, b), released as u64);
                    }
                }
                buffered_max = buffered_max.max(merged.buffered());
            }
        }
        if let Some(log) = &mut log {
            log.end(root, pulled as u64);
        }
        if closing {
            break;
        }
        std::thread::sleep(AUDIT_PAUSE);
        round += 1;
    }
    merged.merge();
    AuditOut {
        verdict: Verdict::of(&merged),
        ready_at: Instant::now(),
        pulls,
        empty_pulls,
        buffered_max,
        log,
    }
}

struct MemRun {
    timed: Timed<WorkerOut>,
    audit: Option<AuditOut>,
    verdict_lag_s: f64,
    checks: Vec<Check>,
}

fn measure(rig: &Rig, seqs: &[Vec<usize>], seconds: f64, traced: bool) -> MemRun {
    let writers_done = AtomicBool::new(false);
    let (timed, audit) = std::thread::scope(|s| {
        let auditor = rig.recorder().map(|rec| {
            let writers_done = &writers_done;
            s.spawn(move || audit(rec, writers_done, traced))
        });
        let timed = harness::run_timed(THREADS, seconds, |t, ctl| {
            worker(t, ctl, rig, &seqs[t], traced)
        });
        writers_done.store(true, Ordering::Release);
        (
            timed,
            auditor.map(|h| h.join().expect("audit worker panicked")),
        )
    });
    let n = timed.ops;
    let counter = rig.counter();
    let mut checks = vec![
        check::tokens_counted(counter.tokens_counted(), n),
        check::step_property(&counter.output_counts()),
        check::value_sum(timed.results.iter().map(|r| r.sum).sum(), n),
    ];
    let last_return = timed
        .results
        .iter()
        .map(|r| r.last_return)
        .max()
        .expect("workers ran");
    let mut verdict_lag_s = 0.0;
    if let Some(a) = &audit {
        let v = &a.verdict;
        checks.push(check::audit_accounting(v.observed, v.dropped, v.skipped, n));
        verdict_lag_s = a
            .ready_at
            .saturating_duration_since(last_return)
            .as_secs_f64();
    }
    MemRun {
        timed,
        audit,
        verdict_lag_s,
        checks,
    }
}

/// End-to-end metrics of one or more rounds: medians over all their windows.
fn end_to_end(out: &mut Outcome, runs: &[MemRun]) {
    let med = |f: &dyn Fn(&MemRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let windows: Vec<WindowStats> = runs
        .iter()
        .map(|r| WindowStats::of(&r.timed, r.timed.results.iter().map(|w| &w.bursts)))
        .collect();
    harness::report_windows(out, &windows);
    if runs.iter().all(|r| r.audit.is_some()) {
        fn verdict(r: &MemRun) -> &Verdict {
            &r.audit.as_ref().expect("audited round").verdict
        }
        out.metric(
            "audit_coverage",
            med(&|r| 1.0 - verdict(r).dropped as f64 / r.timed.ops.max(1) as f64),
        );
        out.metric("verdict_lag_s", med(&|r| r.verdict_lag_s));
        for (i, r) in runs.iter().enumerate() {
            let v = verdict(r);
            out.note(format!(
                "round {i} merged verdict: F_nl={:.6} qqc_max={} audited={} dropped={} \
                 skipped={}",
                v.f_nl(),
                v.qqc_max,
                v.observed,
                v.dropped,
                v.skipped
            ));
        }
    }
}

fn settle(out: &mut Outcome, run: MemRun) -> MemRun {
    out.attempted += run.timed.ops;
    out.checks.extend(run.checks.iter().cloned());
    run
}

/// Runs `mem-contended` (`audited == false`) or `mem-audited`.
pub fn run(audited: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seqs: Vec<Vec<usize>> = (0..THREADS)
        .map(|t| inputs::process_sequence(seed, t, THREADS, FAN))
        .collect();
    let mut out = Outcome::default();
    if !trace {
        let (first, setup_s) = harness::setup(SETUP_REPEATS, || Rig::build(audited));
        let mut first = Some(first);
        let runs: Vec<MemRun> = (0..harness::ROUNDS)
            .map(|_| {
                let rig = first.take().unwrap_or_else(|| Rig::build(audited));
                let round = seconds / harness::ROUNDS as f64;
                settle(&mut out, measure(&rig, &seqs, round, false))
            })
            .collect();
        end_to_end(&mut out, &runs);
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mib", sys::peak_rss_mib());
        out.settle_failures();
        out.metric(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }
    let clock = Clock::new();
    let untraced = settle(
        &mut out,
        measure(&Rig::build(audited), &seqs, seconds * 0.4, false),
    );
    end_to_end(&mut out, std::slice::from_ref(&untraced));
    let rig = Rig::build(audited);
    let traced = settle(&mut out, measure(&rig, &seqs, seconds * 0.4, true));
    let depth = rig.counter().engine().depth() as f64;
    let probe = hop_probe(&rig, &seqs, seconds * 0.2);
    let mut logs: Vec<SpanLog> = Vec::new();
    let MemRun { timed, audit, .. } = traced;
    let traced_ops = timed.ops;
    let traced_rate = timed.ops_per_s();
    logs.extend(timed.results.into_iter().filter_map(|r| r.log));
    logs.extend(probe);
    let mut audit_stats = None;
    if let Some(a) = audit {
        audit_stats = Some((a.pulls, a.empty_pulls, a.buffered_max, a.verdict.dropped));
        logs.extend(a.log);
    }
    let trace = Trace::new(clock, logs);
    let sum = trace.summarize();
    let ovh = trace.overhead_ns;
    let per = |name: &str| sum.get(name).map_or(0.0, |a| a.per_unit_ns(ovh));
    let hop = per("compiled.traverse") / depth;
    let increment = per("counter.increment_from");
    let record = per("recorder.record");
    let exit = increment - hop * depth;
    out.metric("compiled.hop_ns", hop);
    out.metric("counter.increment_ns", increment);
    if audited {
        out.note(
            "counter.exit_ns is not taken on mem-audited: the hop probe runs without the \
             audit worker, so its traverse time does not match increment_ns here"
                .to_string(),
        );
    } else {
        out.metric("counter.exit_ns", exit);
    }
    if let Some((pulls, empty, buffered_max, dropped)) = audit_stats {
        out.metric("recorder.record_ns", record);
        out.metric(
            "recorder.dropped_share",
            dropped as f64 / traced_ops.max(1) as f64,
        );
        out.metric("recorder.pull_ns_per_event", per("recorder.pull_shard"));
        out.metric(
            "recorder.empty_pull_share",
            empty as f64 / pulls.max(1) as f64,
        );
        out.metric("trace.observe_ns", per("trace.observe"));
        out.metric("trace.take_frontier_ns", per("trace.take_frontier"));
        out.metric("trace.ingest_ns", per("trace.ingest"));
        out.metric("trace.merge_ns_per_event", per("trace.merge"));
        out.metric("trace.buffered_max", buffered_max as f64);
    }
    let untraced_rate = untraced.timed.ops_per_s();
    let per_op_ns = THREADS as f64 * 1e9 / untraced_rate.max(1.0);
    let layer_sum = increment + record;
    report::trace_notes(&mut out, &trace, &sum);
    let split = if audited {
        String::new()
    } else {
        format!(" = traverse {:.1} + exit {exit:.1}", hop * depth)
    };
    out.note(format!(
        "reconcile (per increment, one worker's blocking path): layers {layer_sum:.1} ns \
         [counter.increment_from {increment:.1}{split}; recorder.record {record:.1}] vs \
         untraced {per_op_ns:.1} ns; unattributed {:.1} ns",
        per_op_ns - layer_sum
    ));
    report::overhead_note(&mut out, untraced_rate, traced_rate);
    out.trace = Some(trace);
    out.settle_failures();
    out
}

/// Both threads traverse a private copy of the balancer states back to
/// back, timing blocks of `BLOCK` calls: `CompiledNetwork::traverse` at
/// the workload's thread count and contention.
fn hop_probe(rig: &Rig, seqs: &[Vec<usize>], seconds: f64) -> Vec<SpanLog> {
    let engine = rig.counter().engine();
    let bank = engine.new_balancer_states();
    let timed = harness::run_timed(THREADS, seconds, |t, ctl| {
        let (seq, mask) = (&seqs[t], seqs[t].len() - 1);
        let mut log = SpanLog::new(WORKER_NAMES[t]);
        let mut i = 0u64;
        loop {
            let a = now();
            for _ in 0..BLOCK {
                black_box(engine.traverse(seq[i as usize & mask], &bank));
                i += 1;
            }
            let b = now();
            if ctl.window().is_some() {
                log.push("compiled.traverse", i / BLOCK, None, (a, b), BLOCK);
            }
            ctl.report(t, i);
            if ctl.stopped() {
                break;
            }
        }
        log
    });
    timed.results
}

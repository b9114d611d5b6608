//! The socket workloads, both one closed-loop client thread on one
//! loopback connection against compiled bitonic B(8):
//!
//! * `tcp-pipelined`: a `CounterServer` with one reactor, driven by
//!   `RemoteCounter::next_pipelined` bursts of per-token `Next` frames
//!   about 16 deep.
//! * `cluster-batch`: B(8) split across a 2-node loopback chain; the
//!   client sends `NextBatch` frames of about 64 to the head, which
//!   forwards them to the tail as `ForwardBatch` frames.
//!
//! The seed draws each burst's size around the nominal depth.

use crate::check::{Check, Permutation};
use crate::harness::{self, Core, Ctl, Timed, WindowStats};
use crate::inputs;
use crate::mem::FAN;
use crate::report::{self, Outcome};
use crate::spans::{now, SpanLog, Trace};
use crate::sys;
use cnet_net::wire::FrameDecoder;
use cnet_net::{
    ClusterNode, CounterServer, RemoteCounter, RemoteNode, Request, Response, ServerConfig,
    StatsSnapshot,
};
use cnet_runtime::{ProcessCounter, SharedNetworkCounter};
use cnet_topology::construct::bitonic;
use cnet_util::time::Clock;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal `Next` frames per pipelined burst.
pub const TCP_DEPTH: usize = 16;
/// Nominal increments per `NextBatch` frame.
pub const CLUSTER_BATCH: usize = 64;
/// Connection slots per server: the client's, with one to spare.
const SLOTS: usize = 2;
/// Set-ups per run; `setup_s` is their trimmed mean.
const SETUP_REPEATS: usize = 41;
/// Bursts replayed through the wire codec in the traced run.
const REPLAY_BURSTS: usize = 20_000;
/// Bursts per replay span.
const REPLAY_CHUNK: usize = 64;
/// Calls per probe, at most.
const PROBE_CALLS: usize = 4_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        max_connections: SLOTS,
        processes: FAN,
        reactors: 1,
        ..ServerConfig::default()
    }
}

/// A started service and its warm client. Fields drop in order: the
/// client hangs up before the servers drain.
struct Rig {
    client: RemoteCounter,
    servers: Vec<CounterServer>,
    head_node: Option<Arc<ClusterNode>>,
    tail_addr: Option<String>,
    /// Values returned while warming the connection; part of the checked
    /// stream.
    warm: Vec<u64>,
}

impl Rig {
    fn tcp() -> io::Result<Rig> {
        let net = bitonic(FAN).expect("bitonic B(8) builds");
        let backend: Arc<dyn ProcessCounter + Send + Sync> =
            Arc::new(SharedNetworkCounter::new(&net));
        // The reactor runs on its own core, away from the client.
        let server = harness::on_cpu(Core::Service, || {
            CounterServer::start("127.0.0.1:0", backend, server_config())
        })?;
        let client = RemoteCounter::connect(server.local_addr(), 1)?;
        client.ping(0)?;
        let warm = client.next_pipelined(0, TCP_DEPTH)?;
        Ok(Rig {
            client,
            servers: vec![server],
            head_node: None,
            tail_addr: None,
            warm,
        })
    }

    /// The tail's threads run beside the client, the head's on the other
    /// core: each hop of a batch (client → head → tail → head → client)
    /// wakes a thread on the other core, and no two threads that hand a
    /// batch to each other share one. With head and tail on one core, the
    /// scheduler sometimes lets the woken tail preempt the head before it
    /// blocks on its peer read and sometimes not, and the two orders ran
    /// ~30% apart in throughput for seconds to minutes at a time.
    fn cluster() -> io::Result<Rig> {
        let net = bitonic(FAN).expect("bitonic B(8) builds");
        let tail_node = ClusterNode::new(&net, 1, 2, &[], SLOTS).map_err(io::Error::other)?;
        let tail = harness::on_cpu(Core::Client, || {
            CounterServer::start_cluster("127.0.0.1:0", Arc::new(tail_node), None, server_config())
        })?;
        let tail_addr = tail.local_addr().to_string();
        let head_node = Arc::new(
            ClusterNode::new(&net, 0, 2, std::slice::from_ref(&tail_addr), SLOTS)
                .map_err(io::Error::other)?,
        );
        let head = harness::on_cpu(Core::Service, || {
            CounterServer::start_cluster("127.0.0.1:0", head_node.clone(), None, server_config())
        })?;
        let client = RemoteCounter::connect(head.local_addr(), 1)?;
        client.ping(0)?;
        let warm = client.next_batch(0, CLUSTER_BATCH)?;
        Ok(Rig {
            client,
            servers: vec![head, tail],
            head_node: Some(head_node),
            tail_addr: Some(tail_addr),
            warm,
        })
    }

    fn build(cluster: bool) -> Rig {
        let rig = if cluster { Rig::cluster() } else { Rig::tcp() };
        rig.expect("loopback service starts and answers")
    }

    fn burst(&self, n: usize) -> io::Result<Vec<u64>> {
        if self.head_node.is_some() {
            self.client.next_batch(0, n)
        } else {
            self.client.next_pipelined(0, n)
        }
    }

    fn burst_span(&self) -> &'static str {
        if self.head_node.is_some() {
            "client.next_batch"
        } else {
            "client.next_pipelined"
        }
    }

    /// Client-facing server statistics (the head's, on the chain).
    fn stats(&self) -> StatsSnapshot {
        self.servers[0].stats()
    }

    fn tail_stats(&self) -> Option<StatsSnapshot> {
        self.servers.get(1).map(CounterServer::stats)
    }

    fn rejected(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.stats().rejected_connections)
            .sum()
    }
}

struct ClientOut {
    perm: Permutation,
    failed: u64,
    bursts: usize,
    rtts: harness::Samples,
    log: Option<SpanLog>,
}

fn client(ctl: &Ctl, rig: &Rig, sizes: &[usize], traced: bool) -> ClientOut {
    let mask = sizes.len() - 1;
    let mut perm = Permutation::new();
    perm.extend(&rig.warm);
    let mut log = traced.then(|| SpanLog::new("client"));
    let (mut ops, mut failed, mut bursts) = (0u64, 0u64, 0usize);
    let mut rtts = harness::Samples::default();
    let span = rig.burst_span();
    loop {
        let n = sizes[bursts & mask];
        let (t0, a) = (Instant::now(), now());
        let result = rig.burst(n);
        let (b, elapsed) = (now(), t0.elapsed());
        match result {
            Ok(values) => {
                perm.extend(&values);
                ops += values.len() as u64;
            }
            Err(_) => failed += n as u64,
        }
        if let Some(log) = &mut log {
            log.push(span, bursts as u64, None, (a, b), n as u64);
        }
        if let Some(w) = ctl.window() {
            rtts.push(w, elapsed);
        }
        bursts += 1;
        ctl.report(0, ops);
        if ctl.stopped() {
            break;
        }
    }
    ClientOut {
        perm,
        failed,
        bursts,
        rtts,
        log,
    }
}

struct NetRun {
    timed: Timed<ClientOut>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
}

fn measure(rig: &Rig, sizes: &[usize], seconds: f64, traced: bool) -> NetRun {
    let timed = harness::run_timed(1, seconds, |_, ctl| client(ctl, rig, sizes, traced));
    let c = &timed.results[0];
    let n = rig.warm.len() as u64 + timed.ops;
    let checks = vec![
        c.perm.check(n),
        Check::new(
            "no increment failed or was refused",
            c.failed == 0,
            format!("failed={}", c.failed),
        ),
    ];
    let (attempted, failed) = (timed.ops + c.failed, c.failed);
    NetRun {
        timed,
        checks,
        attempted,
        failed,
    }
}

fn settle(out: &mut Outcome, run: NetRun) -> NetRun {
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.checks.extend(run.checks.iter().cloned());
    run
}

/// End-to-end metrics of one or more rounds: medians over all their windows.
fn end_to_end(out: &mut Outcome, runs: &[NetRun]) {
    let windows: Vec<WindowStats> = runs
        .iter()
        .map(|r| WindowStats::of(&r.timed, r.timed.results.iter().map(|c| &c.rtts)))
        .collect();
    harness::report_windows(out, &windows);
}

/// Runs `tcp-pipelined` (`cluster == false`) or `cluster-batch`.
pub fn run(cluster: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let sizes = inputs::burst_sizes(seed, if cluster { CLUSTER_BATCH } else { TCP_DEPTH });
    let mut out = Outcome::default();
    if !trace {
        let (first, setup_s) = harness::setup(SETUP_REPEATS, || Rig::build(cluster));
        let mut first = Some(first);
        let runs: Vec<NetRun> = (0..harness::ROUNDS)
            .map(|_| {
                let rig = first.take().unwrap_or_else(|| Rig::build(cluster));
                let round = seconds / harness::ROUNDS as f64;
                settle(&mut out, measure(&rig, &sizes, round, false))
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
        measure(&Rig::build(cluster), &sizes, seconds * 0.4, false),
    );
    end_to_end(&mut out, std::slice::from_ref(&untraced));
    let rig = Rig::build(cluster);
    let (stats0, tail0, rejected0, switches0) = (
        rig.stats(),
        rig.tail_stats(),
        rig.rejected(),
        sys::voluntary_switches(),
    );
    let traced = settle(&mut out, measure(&rig, &sizes, seconds * 0.4, true));
    let (stats1, tail1, rejected1, switches1) = (
        rig.stats(),
        rig.tail_stats(),
        rig.rejected(),
        sys::voluntary_switches(),
    );
    let ops = traced.timed.ops.max(1) as f64;
    let wakeups = (stats1.reactor_wakeups - stats0.reactor_wakeups).max(1) as f64;
    out.metric(
        "server.requests_per_wakeup",
        (stats1.requests - stats0.requests) as f64 / wakeups,
    );
    out.metric(
        "server.events_per_wakeup",
        (stats1.reactor_events - stats0.reactor_events) as f64 / wakeups,
    );
    out.metric("server.cpu_ns_per_op", traced.timed.foreign_cpu_ns_per_op());
    out.metric(
        "server.switches_per_op",
        sys::switches_between(&switches0, &switches1) as f64 / ops,
    );
    out.metric("server.rejected", (rejected1 - rejected0) as f64);
    let mut tail_ops_per_frame = 0.0;
    let mut forward_bytes = 0.0;
    if let (Some(t0), Some(t1)) = (tail0, tail1) {
        let frames = (t1.requests - t0.requests) as f64;
        let tail_ops = (t1.ops - t0.ops) as f64;
        tail_ops_per_frame = tail_ops / frames.max(1.0);
        out.metric("router.tail_ops_per_frame", tail_ops_per_frame);
        forward_bytes = frames * forward_frame_bytes() + 8.0 * tail_ops;
    }

    let mut logs: Vec<SpanLog> = Vec::new();
    let c = &traced.timed.results[0];
    let mut wire_log = SpanLog::new("wire");
    let (bytes, replay_ops) = replay(cluster, &sizes, c.bursts.min(REPLAY_BURSTS), &mut wire_log);
    out.metric(
        "wire.bytes_per_op",
        bytes / replay_ops + forward_bytes / ops,
    );
    let mut probe_log = SpanLog::new("probe");
    let probe_time = Duration::from_secs_f64(seconds * 0.2 / if cluster { 3.0 } else { 1.0 });
    probe(&mut probe_log, "client.ping", probe_time, || {
        rig.client.ping(0).map(|()| 1)
    });
    if let (Some(head), Some(tail_addr)) = (&rig.head_node, &rig.tail_addr) {
        let tail = RemoteNode::new(tail_addr.clone(), 1);
        let group = tail_ops_per_frame.round().max(1.0) as u32;
        let mut token = u64::MAX / 2;
        probe(&mut probe_log, "router.forward", probe_time, || {
            token += group as u64;
            let req = Request::ForwardBatch {
                token,
                port: (token % FAN as u64) as u32,
                node_seq: 1,
                n: group,
            };
            match tail.call_many(0, std::slice::from_ref(&req))?.pop() {
                Some(Response::Batch { values }) if values.len() == group as usize => {
                    Ok(group as u64)
                }
                other => Err(io::Error::other(format!("forward answered {other:?}"))),
            }
        });
        let mut p = 0;
        probe(&mut probe_log, "router.ingress_batch", probe_time, || {
            p += 1;
            head.ingress_batch(0, p, CLUSTER_BATCH)
                .map(|v| v.len() as u64)
        });
    }
    let traced_rate = traced.timed.ops_per_s();
    let NetRun { timed, .. } = traced;
    let traced_ops = timed.ops;
    logs.extend(timed.results.into_iter().filter_map(|r| r.log));
    logs.push(wire_log);
    logs.push(probe_log);
    let trace = Trace::new(clock, logs);
    let sum = trace.summarize();
    let ovh = trace.overhead_ns;
    let per = |name: &str| sum.get(name).map_or(0.0, |a| a.per_unit_ns(ovh));
    let p50_us = |name: &str| sum.get(name).map_or(0.0, |a| a.p50_ns() / 1e3);
    out.metric("wire.request_encode_ns", per("wire.request_encode"));
    out.metric("wire.request_decode_ns", per("wire.request_decode"));
    out.metric("wire.response_encode_ns", per("wire.response_encode"));
    out.metric("wire.response_decode_ns", per("wire.response_decode"));
    let burst_span = rig.burst_span();
    out.metric("client.burst_rtt_us", p50_us(burst_span));
    out.metric("client.ping_rtt_us", p50_us("client.ping"));
    if cluster {
        out.metric("router.forward_rtt_us", p50_us("router.forward"));
        out.metric("router.ingress_batch_us", p50_us("router.ingress_batch"));
    }

    // Reconcile one increment's blocking path against the untraced run.
    let untraced_rate = untraced.timed.ops_per_s();
    let per_op_ns = 1e9 / untraced_rate.max(1.0);
    let frames_per_op = if cluster {
        1.0 / CLUSTER_BATCH as f64
    } else {
        1.0
    };
    let client_codec = (per("wire.request_encode") + per("wire.response_decode")) * frames_per_op;
    let server_codec = (per("wire.request_decode") + per("wire.response_encode")) * frames_per_op;
    let server_cpu = out.get("server.cpu_ns_per_op").unwrap_or(0.0);
    let client_self = sum.get(burst_span).map_or(0.0, |a| a.self_per_unit_ns(ovh));
    let layer_sum = client_codec + server_cpu;
    report::trace_notes(&mut out, &trace, &sum);
    out.note(format!(
        "reconcile (per increment): client wire codec {client_codec:.1} ns + server threads CPU \
         {server_cpu:.1} ns (includes their wire codec {server_codec:.1} ns and the counter) = \
         {layer_sum:.1} ns vs untraced {per_op_ns:.1} ns; unattributed (loopback, wakeups, \
         client loop) {:.1} ns; traced burst round trip per increment {client_self:.1} ns",
        per_op_ns - layer_sum
    ));
    if cluster {
        out.note(format!(
            "reconcile (per increment, chain): head ingress_batch {:.1} ns (head traversal + \
             forward hop), forward round trip {:.1} ns per forwarded increment",
            per("router.ingress_batch"),
            per("router.forward"),
        ));
    }
    out.note(format!("traced phase: {traced_ops} increments"));
    report::overhead_note(&mut out, untraced_rate, traced_rate);
    out.trace = Some(trace);
    drop(rig);
    out.settle_failures();
    out
}

/// Encoded size of one forwarded group's frames, less 8 bytes per value:
/// the `ForwardBatch` request plus an empty `Batch` response.
fn forward_frame_bytes() -> f64 {
    let mut buf = Vec::new();
    Request::ForwardBatch {
        token: 0,
        port: 0,
        node_seq: 1,
        n: 0,
    }
    .encode(0, &mut buf);
    Response::Batch { values: Vec::new() }.encode(0, &mut buf);
    buf.len() as f64
}

/// Replays the first `bursts` bursts of the workload's frame sequence
/// through the wire codec — request encode and decode, response encode
/// and decode — in chunks of `REPLAY_CHUNK` bursts, one span per chunk
/// and direction whose units are frames. Returns the encoded bytes in
/// both directions and the increments they carried.
fn replay(cluster: bool, sizes: &[usize], bursts: usize, log: &mut SpanLog) -> (f64, f64) {
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let (mut bytes, mut ops, mut value) = (0usize, 0usize, 0u64);
    let sequence: Vec<usize> = sizes.iter().cycle().take(bursts).copied().collect();
    for (chunk, group) in sequence.chunks(REPLAY_CHUNK).enumerate() {
        let mut requests = Vec::new();
        let mut responses = Vec::new();
        for &n in group {
            if cluster {
                requests.push(Request::NextBatch { n: n as u32 });
                responses.push(Response::Batch {
                    values: (value..value + n as u64).collect(),
                });
            } else {
                requests.extend((0..n).map(|_| Request::Next));
                responses.extend((value..value + n as u64).map(|value| Response::Value { value }));
            }
            value += n as u64;
            ops += n;
        }
        let (id, frames) = (chunk as u64, requests.len() as u64);
        req.clear();
        resp.clear();
        let a = now();
        for (seq, r) in requests.iter().enumerate() {
            r.encode(seq as u32, &mut req);
        }
        let b = now();
        log.push("wire.request_encode", id, None, (a, b), frames);
        let a = now();
        let mut dec = FrameDecoder::new();
        dec.extend(&req);
        while let Some(frame) = dec
            .next_frame()
            .expect("replayed request frames are well formed")
        {
            black_box(Request::decode(frame).expect("replayed request decodes"));
        }
        let b = now();
        log.push("wire.request_decode", id, None, (a, b), frames);
        let a = now();
        for (seq, r) in responses.iter().enumerate() {
            r.encode(seq as u32, &mut resp);
        }
        let b = now();
        log.push("wire.response_encode", id, None, (a, b), frames);
        let a = now();
        let mut dec = FrameDecoder::new();
        dec.extend(&resp);
        while let Some(frame) = dec
            .next_frame()
            .expect("replayed response frames are well formed")
        {
            black_box(Response::decode(frame).expect("replayed response decodes"));
        }
        let b = now();
        log.push("wire.response_decode", id, None, (a, b), frames);
        bytes += req.len() + resp.len();
    }
    (bytes as f64, ops.max(1) as f64)
}

/// Calls `f` back to back on the idle service for up to `time` (at most
/// `PROBE_CALLS` calls), one span per call; `f` returns the increments
/// it performed.
fn probe(
    log: &mut SpanLog,
    name: &'static str,
    time: Duration,
    mut f: impl FnMut() -> io::Result<u64>,
) {
    let end = Instant::now() + time;
    for i in 0..PROBE_CALLS {
        if Instant::now() >= end {
            break;
        }
        let a = now();
        let units = f().unwrap_or_else(|e| panic!("{name} probe failed: {e}"));
        let b = now();
        log.push(name, i as u64, None, (a, b), units);
    }
}

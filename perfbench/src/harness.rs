//! The closed-loop timing harness shared by every workload: worker
//! threads run until told to stop and publish their completed-increment
//! counts; the main thread lets them warm up, then samples throughput in
//! equal windows over the timed region.

use crate::report::{median, quantile, Outcome};
use crate::sys::{allowed_cpus, pin_current_thread, process_cpu_ns, thread_cpu_ns};
use cnet_util::sync::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Windows per timed region. Throughput, CPU per increment and latency
/// percentiles are taken per window and reported as medians over windows,
/// so a short burst of interference from outside moves one window only.
const WINDOWS: usize = 10;

/// Rounds per untraced run, each on a freshly built service with fresh
/// threads; the end-to-end metrics are medians over the windows of every
/// round. A round's start-up state (memory placement, which connection
/// raced the acceptor) holds for the whole round, so one round is one
/// draw of it, not a steady state.
pub const ROUNDS: usize = 5;

/// `Ctl::window` before the timed region starts.
const WARMING: usize = usize::MAX;

/// Untimed warm-up before the timed region: caches fill, lazy set-up
/// finishes, connections reach their steady state.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).min(0.5))
}

/// Shared between the harness and its workers.
pub struct Ctl {
    window: AtomicUsize,
    stop: AtomicBool,
    progress: Vec<CachePadded<AtomicU64>>,
}

impl Ctl {
    /// Whether the timed region is over.
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The current window of the timed region; `None` during warm-up,
    /// whose latency samples are discarded.
    #[inline]
    pub fn window(&self) -> Option<usize> {
        Some(self.window.load(Ordering::Relaxed)).filter(|&w| w != WARMING)
    }

    /// Publishes worker `t`'s completed-increment count (a statistic: no
    /// other data rides on it).
    #[inline]
    pub fn report(&self, t: usize, ops: u64) {
        self.progress[t].store(ops, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .sum()
    }
}

/// What a timed run measured.
pub struct Timed<R> {
    /// Each worker's own result, in worker order.
    pub results: Vec<R>,
    /// Completed increments per second in each window.
    pub window_rates: Vec<f64>,
    /// Process CPU time per completed increment in each window, ns.
    pub window_cpu_ns_per_op: Vec<f64>,
    /// Increments completed over the workers' whole lives.
    pub ops: u64,
    /// Process CPU time over the workers' lives, ns.
    pub process_cpu_ns: u64,
    /// CPU time of the threads the harness started plus the main thread, ns.
    pub own_cpu_ns: u64,
}

impl<R> Timed<R> {
    pub fn ops_per_s(&self) -> f64 {
        median(&self.window_rates)
    }

    /// CPU of the threads `run_timed` did not start and the calling
    /// thread — server reactors and acceptors — per increment.
    pub fn foreign_cpu_ns_per_op(&self) -> f64 {
        self.process_cpu_ns.saturating_sub(self.own_cpu_ns) as f64 / self.ops.max(1) as f64
    }
}

/// Runs `workers` copies of `body` (worker index, control) until the
/// warm-up plus `seconds` of timed windows have passed. Worker `t` runs
/// on the `t`-th CPU the caller may use (modulo their number): where the
/// scheduler puts the threads otherwise decides the speed of a run — two
/// counter threads sharing one core do not contend at all. Each body must
/// poll [`Ctl::stopped`] and [`Ctl::report`] its count, at least once
/// more after it sees the stop.
pub fn run_timed<R: Send>(
    workers: usize,
    seconds: f64,
    body: impl Fn(usize, &Ctl) -> R + Sync,
) -> Timed<R> {
    let ctl = Ctl {
        window: AtomicUsize::new(WARMING),
        stop: AtomicBool::new(false),
        progress: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    };
    let cpus = allowed_cpus();
    let cpu0 = process_cpu_ns();
    let main0 = thread_cpu_ns();
    let mut window_rates = Vec::with_capacity(WINDOWS);
    let mut window_cpu_ns_per_op = Vec::with_capacity(WINDOWS);
    let per_worker: Vec<(R, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let (ctl, body, cpu) = (&ctl, &body, cpus[t % cpus.len()]);
                s.spawn(move || {
                    pin_current_thread(&[cpu]);
                    let c0 = thread_cpu_ns();
                    let r = body(t, ctl);
                    (r, thread_cpu_ns() - c0)
                })
            })
            .collect();
        std::thread::sleep(warmup(seconds));
        let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
        let start = Instant::now();
        let (mut prev_ops, mut prev_t, mut prev_cpu) = (ctl.total(), start, process_cpu_ns());
        for w in 0..WINDOWS {
            ctl.window.store(w, Ordering::Relaxed);
            let due = start + window * (w as u32 + 1);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let (ops, now, cpu) = (ctl.total(), Instant::now(), process_cpu_ns());
            let done = (ops - prev_ops).max(1) as f64;
            window_rates.push(done / (now - prev_t).as_secs_f64());
            window_cpu_ns_per_op.push((cpu - prev_cpu) as f64 / done);
            (prev_ops, prev_t, prev_cpu) = (ops, now, cpu);
        }
        ctl.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let own_cpu_ns = per_worker.iter().map(|(_, c)| c).sum::<u64>() + (thread_cpu_ns() - main0);
    Timed {
        ops: ctl.total(),
        results: per_worker.into_iter().map(|(r, _)| r).collect(),
        window_rates,
        window_cpu_ns_per_op,
        process_cpu_ns: process_cpu_ns() - cpu0,
        own_cpu_ns,
    }
}

/// Runs `build` `repeats` times, tearing down every result but the last,
/// and returns the last with the mean build time in seconds, the fastest
/// and slowest tenth left out. A mean, not a median: a set-up can wait on
/// a polling loop or not (the server's acceptor sleeps 2 ms between
/// `accept` attempts), and a median of such a two-valued spread flips
/// between the two values from run to run.
pub fn setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        last.expect("at least one setup"),
        crate::report::trimmed_mean(&times, 0.1),
    )
}

/// Where [`on_cpu`] starts a service's threads.
#[derive(Clone, Copy, Debug)]
pub enum Core {
    /// The first CPU the caller may use: worker 0's, the client's.
    Client,
    /// The last CPU the caller may use, away from worker 0.
    Service,
}

/// Runs `build` with the calling thread — and so every thread `build`
/// starts — on `core`, then restores the caller's CPU set.
pub fn on_cpu<T>(core: Core, build: impl FnOnce() -> T) -> T {
    let cpus = allowed_cpus();
    let cpu = match core {
        Core::Client => cpus[0],
        Core::Service => cpus[cpus.len() - 1],
    };
    pin_current_thread(&[cpu]);
    let built = build();
    pin_current_thread(&cpus);
    built
}

/// One thread's burst round-trip times, ns, grouped by window.
#[derive(Debug, Default)]
pub struct Samples {
    windows: Vec<Vec<u32>>,
}

impl Samples {
    #[inline]
    pub fn push(&mut self, window: usize, elapsed: Duration) {
        if window >= self.windows.len() {
            self.windows.resize_with(window + 1, Vec::new);
        }
        let ns = u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX);
        self.windows[window].push(ns);
    }

    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

/// One round's per-window figures.
#[derive(Debug, Default)]
pub struct WindowStats {
    pub rates: Vec<f64>,
    pub cpu_ns_per_op: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub samples: u64,
}

impl WindowStats {
    /// Per-window throughput, CPU per increment, and burst round-trip p50
    /// and p99 over every thread's samples.
    pub fn of<'a, R>(
        timed: &Timed<R>,
        threads: impl IntoIterator<Item = &'a Samples> + Clone,
    ) -> Self {
        let mut stats = WindowStats {
            rates: timed.window_rates.clone(),
            cpu_ns_per_op: timed.window_cpu_ns_per_op.clone(),
            ..WindowStats::default()
        };
        let windows = threads
            .clone()
            .into_iter()
            .map(|s| s.windows.len())
            .max()
            .unwrap_or(0);
        for w in 0..windows {
            let merged: Vec<f64> = threads
                .clone()
                .into_iter()
                .filter_map(|s| s.windows.get(w))
                .flat_map(|v| v.iter().map(|&ns| ns as f64))
                .collect();
            if !merged.is_empty() {
                stats.p50_us.push(quantile(&merged, 0.5) / 1e3);
                stats.p99_us.push(quantile(&merged, 0.99) / 1e3);
            }
        }
        stats.samples = threads.into_iter().map(|s| s.len() as u64).sum();
        stats
    }
}

/// The end-to-end timing metrics of one or more rounds, each the median
/// over every window of every round; the per-window figures go into the
/// result record as series.
pub fn report_windows(out: &mut Outcome, rounds: &[WindowStats]) {
    let pooled = |f: fn(&WindowStats) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let samples = rounds.iter().map(|r| r.samples).sum();
    out.metric("ops_per_s", median(&pooled(|r| &r.rates)));
    out.sampled("latency_p50_us", median(&pooled(|r| &r.p50_us)), samples);
    out.sampled("latency_p99_us", median(&pooled(|r| &r.p99_us)), samples);
    out.metric("cpu_ns_per_op", median(&pooled(|r| &r.cpu_ns_per_op)));
    out.series("window.ops_per_s", pooled(|r| &r.rates));
    out.series("window.cpu_ns_per_op", pooled(|r| &r.cpu_ns_per_op));
    out.series("window.latency_p50_us", pooled(|r| &r.p50_us));
    out.series("window.latency_p99_us", pooled(|r| &r.p99_us));
}

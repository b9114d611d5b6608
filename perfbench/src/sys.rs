//! What the benchmark reads from the operating system: CPU clocks, peak
//! memory, context switches, and the host fingerprint stamped on every
//! result.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // SAFETY (of the declarations): the glibc/musl signatures on 64-bit
    // Linux; `std` links the C library, so the symbols are present.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, as `cpu_set_t` lays it out.
type CpuMask = [u64; 16];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the call
    // to write, and both clock ids are supported by every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU time of the whole process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread — and every thread it starts from now
/// on — to `cpus`. Best effort: if the kernel refuses the set, the thread
/// keeps the one it had.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 16 * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l[field.len()..]
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Peak resident memory of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Voluntary context switches so far of every thread of the process but
/// the main one, by thread id (`voluntary_ctxt_switches` of each
/// `/proc/self/task/<tid>/status`). A thread switches voluntarily when a
/// call blocks: an `epoll_wait` or a `read` that finds nothing to do.
pub fn voluntary_switches() -> Vec<(u64, u64)> {
    let main = std::process::id() as u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|e| {
            let e = e.ok()?;
            let tid: u64 = e.file_name().to_str()?.parse().ok()?;
            let status = std::fs::read_to_string(e.path().join("status")).ok()?;
            let n = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            (tid != main).then_some((tid, n))
        })
        .collect()
}

/// Switches between two [`voluntary_switches`] readings, summed over the
/// threads alive at both: threads started and ended in between — the
/// benchmark's own workers — do not count.
pub fn switches_between(before: &[(u64, u64)], after: &[(u64, u64)]) -> u64 {
    after
        .iter()
        .filter_map(|&(tid, n)| {
            let (_, n0) = before.iter().find(|&&(t, _)| t == tid)?;
            Some(n.saturating_sub(*n0))
        })
        .sum()
}

/// Host-wide `(steal, total)` CPU ticks so far, from `/proc/stat`: the
/// time the hypervisor ran something else on this machine's CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host a result was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub profile: &'static str,
    pub git_rev: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown", str::trim)
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The commit checked out in `dir`, read from `.git` without running
/// git; `None` outside a git checkout.
fn git_rev(dir: &Path) -> Option<String> {
    let git = dir.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

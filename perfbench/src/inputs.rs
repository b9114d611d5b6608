//! Seeded input generation. The seed shapes only the inputs the library
//! receives: which logical process (and so which entry wire) each
//! in-process increment uses, and how many increments each socket burst
//! carries. The same seed always yields the same inputs.

use cnet_util::rng::{mix_seed, Pcg64, Rng, SeedableRng};

/// Length of each generated sequence; the workloads cycle through it.
pub const SEQ_LEN: usize = 1 << 12;

/// The process-id sequence of in-process worker `thread` of `threads`,
/// over `processes` logical processes (one per entry wire). Worker `t`
/// owns the processes `p` with `p % threads == t`, so every process —
/// and every recorder shard — keeps a single writer.
pub fn process_sequence(seed: u64, thread: usize, threads: usize, processes: usize) -> Vec<usize> {
    let owned: Vec<usize> = (thread..processes).step_by(threads).collect();
    assert!(
        !owned.is_empty(),
        "thread {thread} owns no process of {processes}"
    );
    let mut rng = Pcg64::seed_from_u64(mix_seed(seed, thread as u64));
    (0..SEQ_LEN)
        .map(|_| owned[rng.random_range(0..owned.len())])
        .collect()
}

/// Burst sizes drawn uniformly from `nominal ± nominal/4`, so the mean
/// burst stays at the nominal depth.
pub fn burst_sizes(seed: u64, nominal: usize) -> Vec<usize> {
    let spread = nominal / 4;
    let mut rng = Pcg64::seed_from_u64(mix_seed(seed, 0xb0_057));
    (0..SEQ_LEN)
        .map(|_| rng.random_range(nominal - spread..nominal + spread + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_regenerates_identical_inputs() {
        assert_eq!(process_sequence(7, 1, 2, 8), process_sequence(7, 1, 2, 8));
        assert_eq!(burst_sizes(7, 16), burst_sizes(7, 16));
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        assert_ne!(process_sequence(7, 0, 2, 8), process_sequence(8, 0, 2, 8));
        assert_ne!(burst_sizes(7, 64), burst_sizes(8, 64));
    }

    #[test]
    fn workers_own_disjoint_processes_and_bursts_stay_near_nominal() {
        let a = process_sequence(3, 0, 2, 8);
        let b = process_sequence(3, 1, 2, 8);
        assert!(a.iter().all(|p| p % 2 == 0) && b.iter().all(|p| p % 2 == 1));
        assert_eq!(
            a.iter().copied().max(),
            Some(6),
            "all owned processes appear"
        );
        let sizes = burst_sizes(3, 16);
        assert!(sizes.iter().all(|&n| (12..=20).contains(&n)));
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 16.0).abs() < 0.5, "mean burst {mean}");
    }
}

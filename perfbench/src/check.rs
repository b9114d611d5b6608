//! Correctness checks on what the library returned. A failed check marks
//! the run incorrect: its increments count as failed and the benchmark
//! exits non-zero.

/// One named check and whether it held.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Collects returned counter values and checks that they form exactly
/// `0..n`: no value twice, none missing, none out of range. One bit per
/// value, in fixed-size chunks added on demand — never reallocated, so the
/// checker's memory is just `n / 8` bytes and does not jump at powers of
/// two of `n` (it would show in `peak_rss_mib`).
#[derive(Debug, Default)]
pub struct Permutation {
    chunks: Vec<Box<[u64]>>,
    seen: u64,
    duplicates: u64,
}

/// Words per bitmap chunk (64 KiB, 2^19 values).
const CHUNK_WORDS: usize = 1 << 13;

impl Permutation {
    pub fn new() -> Permutation {
        Permutation::default()
    }

    pub fn insert(&mut self, value: u64) {
        let word = (value / 64) as usize;
        let (chunk, offset, bit) = (word / CHUNK_WORDS, word % CHUNK_WORDS, value % 64);
        if chunk >= self.chunks.len() {
            self.chunks
                .resize_with(chunk + 1, || vec![0; CHUNK_WORDS].into_boxed_slice());
        }
        let w = &mut self.chunks[chunk][offset];
        if *w & (1 << bit) != 0 {
            self.duplicates += 1;
        }
        *w |= 1 << bit;
        self.seen += 1;
    }

    pub fn extend(&mut self, values: &[u64]) {
        for &v in values {
            self.insert(v);
        }
    }

    /// Checks that the values inserted are exactly `0..n`.
    pub fn check(&self, n: u64) -> Check {
        let full_words = (n / 64) as usize;
        let mut present = 0u64;
        let mut beyond = 0u64;
        for (i, &w) in self.chunks.iter().flat_map(|c| c.iter()).enumerate() {
            if i < full_words {
                present += w.count_ones() as u64;
            } else if i == full_words {
                let low = (1u64 << (n % 64)) - 1;
                present += (w & low).count_ones() as u64;
                beyond += (w & !low).count_ones() as u64;
            } else {
                beyond += w.count_ones() as u64;
            }
        }
        let missing = n - present;
        let ok = self.seen == n && self.duplicates == 0 && missing == 0 && beyond == 0;
        Check::new(
            "values form exactly 0..n",
            ok,
            format!(
                "n={n} returned={} duplicates={} missing={missing} out_of_range={beyond}",
                self.seen, self.duplicates
            ),
        )
    }
}

/// The step property of quiescent output counts: `y_i - y_j` is 0 or 1
/// for every `i < j` (Aspnes–Herlihy–Shavit).
pub fn step_property(counts: &[u64]) -> Check {
    let ok = counts.windows(2).all(|w| w[0] >= w[1])
        && match (counts.first(), counts.last()) {
            (Some(&hi), Some(&lo)) => hi - lo <= 1,
            _ => true,
        };
    Check::new(
        "quiescent output_counts() have the step property",
        ok,
        format!("{counts:?}"),
    )
}

/// `tokens_counted() == n`.
pub fn tokens_counted(counted: u64, n: u64) -> Check {
    Check::new(
        "tokens_counted() == n",
        counted == n,
        format!("counted={counted} n={n}"),
    )
}

/// The sum of the returned values equals `0 + 1 + … + (n-1)`: the
/// in-process workloads return too many values to keep, so they sum them.
pub fn value_sum(sum: u128, n: u64) -> Check {
    let want = n as u128 * (n as u128).saturating_sub(1) / 2;
    Check::new(
        "sum of returned values == n(n-1)/2",
        sum == want,
        format!("sum={sum} want={want}"),
    )
}

/// Every attempted increment is either observed by the merged auditor,
/// dropped by a full ring, or skipped by sampling.
pub fn audit_accounting(observed: u64, dropped: u64, skipped: u64, attempted: u64) -> Check {
    Check::new(
        "observed + dropped + skipped == attempted",
        observed + dropped + skipped == attempted,
        format!("observed={observed} dropped={dropped} skipped={skipped} attempted={attempted}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_exact_permutation_passes() {
        let mut p = Permutation::new();
        p.extend(&[3, 0, 2, 1, 4]);
        assert!(p.check(5).ok);
        assert!(Permutation::new().check(0).ok);
    }

    #[test]
    fn a_duplicated_value_fails() {
        let mut p = Permutation::new();
        p.extend(&[0, 1, 1, 3]);
        let c = p.check(4);
        assert!(!c.ok, "{c:?}");
        assert!(c.detail.contains("duplicates=1"), "{c:?}");
    }

    #[test]
    fn a_missing_value_fails() {
        let mut p = Permutation::new();
        p.extend(&[0, 1, 3]);
        assert!(!p.check(4).ok);
        assert!(!p.check(3).ok, "3 is out of range for n=3");
    }

    #[test]
    fn a_value_beyond_n_fails_even_with_the_right_count() {
        let mut p = Permutation::new();
        p.extend(&[0, 1, 1 << 20]);
        assert!(!p.check(3).ok);
    }

    #[test]
    fn step_property_rejects_uneven_counts() {
        assert!(step_property(&[3, 3, 2, 2]).ok);
        assert!(!step_property(&[3, 2, 3, 2]).ok);
        assert!(!step_property(&[4, 3, 2, 2]).ok);
    }

    #[test]
    fn sums_and_accounting_catch_a_wrong_total() {
        assert!(value_sum(6, 4).ok, "0 + 1 + 2 + 3");
        assert!(
            !value_sum(5, 4).ok,
            "0 + 1 + 1 + 3: a duplicate shifts the sum"
        );
        assert!(tokens_counted(4, 4).ok && !tokens_counted(3, 4).ok);
        assert!(audit_accounting(6, 3, 1, 10).ok);
        assert!(!audit_accounting(6, 3, 0, 10).ok);
    }
}

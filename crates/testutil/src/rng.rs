//! Deterministic PRNG for property tests.
//!
//! splitmix64 seeding + xorshift64* stepping: tiny, fast, and good
//! enough to shake out structural bugs in parsers and graph algorithms.
//! Not cryptographic, not for statistics.

/// Deterministic pseudo-random generator. Same seed → same stream, on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed the generator. Any seed is fine, including 0.
    pub fn new(seed: u64) -> Self {
        // splitmix64 of the seed avoids weak low-entropy starting states.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Rng::below(0)");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[lo, hi)` (half-open, like `proptest` ranges).
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi);
        lo + (self.next_u64() % u64::from(hi - lo)) as u32
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Weighted pick: returns the index of the chosen weight. Mirrors
    /// `prop_oneof![w1 => ..., w2 => ...]`.
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "all weights zero");
        let mut roll = self.next_u64() % total;
        for (i, &w) in weights.iter().enumerate() {
            if roll < u64::from(w) {
                return i;
            }
            roll -= u64::from(w);
        }
        unreachable!()
    }
}

/// Property-test case budget: `default` scaled by the
/// `PARCOACH_PROP_BUDGET` environment multiplier (a positive integer;
/// unset, `1`, or unparsable means the default). The pooled simulators
/// make larger budgets affordable: `PARCOACH_PROP_BUDGET=4` raises the
/// dom/lang suites from 64/512 to 256/2048 cases, as CI's extended
/// matrix does.
pub fn case_budget(default: u64) -> u64 {
    let mult = std::env::var("PARCOACH_PROP_BUDGET")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1);
    default.saturating_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_without_env() {
        // The suite does not set the variable; the default passes
        // through. (Multiplication is covered by the arithmetic.)
        assert_eq!(case_budget(64), 64 * case_budget(1));
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.range_u32(3, 17);
            assert!((3..17).contains(&v));
            let w = r.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
            assert!(r.below(9) < 9);
        }
    }

    #[test]
    fn weighted_pick_hits_every_bucket() {
        let mut r = Rng::new(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[r.pick_weighted(&[1, 2, 3])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }
}

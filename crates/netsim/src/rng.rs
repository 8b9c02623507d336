//! Deterministic, seedable pseudo-random number generation.
//!
//! The simulator uses a self-contained xoshiro256** generator (seeded through
//! SplitMix64) rather than an external crate so that experiment runs are
//! bit-reproducible regardless of dependency versions. The paper's C
//! implementation used a Mersenne Twister; any high-quality uniform generator
//! produces statistically indistinguishable protocol behaviour.

/// A xoshiro256** pseudo-random number generator.
///
/// Not cryptographically secure; intended purely for simulation.
///
/// # Examples
///
/// ```
/// use netsim::Rng;
///
/// let mut rng = Rng::seed_from(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// // Same seed → same stream.
/// let mut rng2 = Rng::seed_from(42);
/// assert_eq!(rng2.next_u64(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed using SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = [next_sm(), next_sm(), next_sm(), next_sm()];
        // Avoid the all-zero state (cannot occur from SplitMix64, but be safe).
        if state.iter().all(|&s| s == 0) {
            state[0] = 1;
        }
        Rng { state }
    }

    /// The next uniformly distributed 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free enough for simulation purposes:
        // widening multiply keeps bias below 2^-64 per draw.
        let x = self.next_u64();
        (((x as u128) * (bound as u128)) >> 64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// A uniform `f64` in `[low, high)`.
    #[inline]
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives an independent generator for a sub-component (e.g. one per
    /// process), mixing the parent stream with the given stream id.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Rng::seed_from(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from(2);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut rng = Rng::seed_from(3);
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            let expected = draws as f64 / 10.0;
            assert!((c as f64 - expected).abs() < expected * 0.1, "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Rng::seed_from(0).index(0);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::seed_from(4);
        for _ in 0..1000 {
            let u = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes_and_statistics() {
        let mut rng = Rng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements almost surely move"
        );
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = Rng::seed_from(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let xs: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn all_zero_seed_is_fixed_up() {
        // seed 0 still produces a non-degenerate stream.
        let mut rng = Rng::seed_from(0);
        let v: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }
}

//! Distribution sampling for the count-level protocol runtimes.
//!
//! The count-level runtimes in `dpde-core` advance a protocol by
//! sampling *how many* of the processes in a state take a transition each
//! period, which requires binomial, multinomial and hypergeometric draws.
//! `rand_distr` is not part of the offline dependency set, so the samplers
//! are implemented here as inherent methods on [`Rng`]:
//!
//! * [`Rng::binomial`] — a BINV-style inverse-CDF walk for small expected
//!   counts, direct simulation for tiny `n`, and a continuity-corrected
//!   normal-tail approximation for large counts (accurate to well below the
//!   stochastic noise of the experiments);
//! * [`Rng::multinomial_into`] — sequential-conditional multinomial sampling
//!   built on the binomial, writing into a caller-provided buffer so the
//!   per-period hot path allocates nothing;
//! * [`Rng::hypergeometric`] — draws without replacement, used to split
//!   count-level massive failures across protocol states.
//!
//! The free functions ([`binomial`], [`multinomial`], …) are thin wrappers
//! kept for callers that prefer the function form.
//!
//! # Stream contract
//!
//! Every seeded experiment, golden pin and benchmark checksum rides on how
//! many uniforms each sampler consumes and what it returns for them, so the
//! draws fall in two regimes with different promises:
//!
//! * **Exact regimes — stable.** Direct simulation (`n ≤ 64`), BINV, the
//!   hypergeometric walk and Poisson inversion below
//!   [`NORMAL_APPROX_CUTOFF`], [`Rng::exponential`], [`geometric`], and the
//!   multinomial / multivariate-hypergeometric cells that resolve to them.
//!   Their streams are pinned draw for draw (values *and* the generator's
//!   next raw output) by the `exact_regime_pin_*` tests; a change that moves
//!   one is a bug unless an issue says that stream moves.
//! * **Normal regime — as of PR 24.** The large-mean branches of
//!   [`Rng::binomial`], [`Rng::hypergeometric`] and [`Rng::poisson`] all draw
//!   from [`Rng::standard_normal`], and from nothing else. PR 24 made that
//!   a 128-layer ziggurat (Box–Muller before), which moved this regime's
//!   stream once; `ziggurat_golden_variates` pins it where it now stands. A
//!   later sampler change may move this regime again only by saying so and
//!   re-recording that pin and
//!   `tests/property.rs::batched_kernel_stream_is_pinned_where_no_destination_repeats`.
//!
//! There is one normal generator and no switch to select another: a
//! versioned stream would keep a fork alive that no caller selects.

use crate::rng::Rng;
use std::sync::OnceLock;

/// Expected-count threshold below which the samplers use exact inverse-CDF
/// walks; above it the normal approximation's error is far below the
/// stochastic noise of the experiments.
///
/// This constant is part of the crate's contract with the count-level
/// runtimes in `dpde-core`: a binomial draw with `min(n·p, n·(1−p))` below
/// this cutoff is **exact** (the clamped-normal tail is never taken), so
/// absorbing boundaries stay reachable — `P[X = 0]` is preserved bit-for-bit
/// against the analytic `(1−p)^n`, which is what makes extinction phenomena
/// trustworthy at count level. The hybrid runtime uses the same cutoff as its
/// default membership-fidelity threshold.
pub const NORMAL_APPROX_CUTOFF: f64 = 30.0;

/// Number of ziggurat layers: the low 7 bits of one raw output index them.
const ZIGGURAT_LAYERS: usize = 128;
/// Right edge of the base strip; the tail beyond it is sampled separately.
const ZIGGURAT_R: f64 = 3.442619855899;
/// Common area of every layer (base strip including its tail) under the
/// unnormalized density `f(x) = exp(−x²/2)`.
const ZIGGURAT_V: f64 = 9.91256303526217e-3;

/// The ziggurat's two tables. `x[i]` is the right edge of layer `i`'s
/// rectangle, decreasing from the base strip's virtual width `V / f(R)` at
/// `x[0]` through `x[1] = R` to `x[128] = 0`; `ratio[i] = x[i+1] / x[i]` is
/// the fraction of layer `i`'s width that lies wholly under the density.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    ratio: [f64; ZIGGURAT_LAYERS],
}

/// The tables, built once from the published recurrence
/// `x[i] = √(−2 ln(V / x[i−1] + f(x[i−1])))`.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut f = (-0.5 * ZIGGURAT_R * ZIGGURAT_R).exp();
        x[0] = ZIGGURAT_V / f;
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
        Ziggurat { x, ratio }
    })
}

/// Splits one raw output into a layer index (low 7 bits) and a signed
/// uniform in `[−1, 1)` (top 53 bits, arithmetic shift).
#[inline]
fn layer_and_signed_uniform(bits: u64) -> (usize, f64) {
    let layer = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
    let u = ((bits as i64) >> 11) as f64 * (1.0 / (1u64 << 52) as f64);
    (layer, u)
}

impl Rng {
    /// Draws from `Binomial(n, p)`: the number of successes in `n`
    /// independent Bernoulli(`p`) trials. `p` is clamped to `[0, 1]`.
    ///
    /// Uses direct simulation for tiny `n`, a BINV-style inverse-CDF walk
    /// while the expected count is small, and a continuity-corrected normal
    /// approximation for the large-mean tail. The first two are the exact,
    /// stream-stable regime of the module's stream contract; the last draws
    /// one [`Rng::standard_normal`] and moved with it in PR 24.
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::Rng;
    ///
    /// let mut rng = Rng::seed_from(7);
    /// let k = rng.binomial(1_000_000, 0.25);
    /// assert!((200_000..300_000).contains(&k));
    /// ```
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Work with the smaller tail for numerical stability. After the
        // mirror p ≤ 1/2, so the mean below *is* min(n·p, n·(1−p)) — the
        // exactness condition of [`NORMAL_APPROX_CUTOFF`]: the clamped-normal
        // path is only ever taken when both tails carry expected counts of at
        // least the cutoff.
        if p > 0.5 {
            return n - self.binomial(n, 1.0 - p);
        }
        let mean = n as f64 * p;
        if n <= 64 {
            // Direct simulation is cheapest for tiny n.
            let mut count = 0;
            for _ in 0..n {
                if self.chance(p) {
                    count += 1;
                }
            }
            count
        } else if mean < NORMAL_APPROX_CUTOFF {
            self.binomial_inverse(n, p)
        } else {
            self.binomial_normal_approx(n, p)
        }
    }

    /// BINV: exact inverse-CDF binomial sampling (efficient when `n·p` is
    /// small).
    fn binomial_inverse(&mut self, n: u64, p: f64) -> u64 {
        let q = 1.0 - p;
        let s = p / q;
        let mut f = q.powf(n as f64); // P(X = 0)
        if f <= 0.0 {
            // Underflow (extremely unlikely given the mean < 30 guard); fall
            // back to the normal tail.
            return self.binomial_normal_approx(n, p);
        }
        let u = self.next_f64();
        let mut cdf = f;
        let mut k = 0u64;
        while u > cdf && k < n {
            k += 1;
            f *= s * (n - k + 1) as f64 / k as f64;
            cdf += f;
        }
        k
    }

    /// Normal approximation with continuity correction, clamped to `[0, n]`.
    fn binomial_normal_approx(&mut self, n: u64, p: f64) -> u64 {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let z = self.standard_normal();
        let value = (mean + sd * z + 0.5).floor();
        value.clamp(0.0, n as f64) as u64
    }

    /// Draws a standard normal variate from a 128-layer ziggurat (Doornik's
    /// ZIGNOR form of Marsaglia–Tsang).
    ///
    /// One `next_u64` feeds the whole fast path: its low 7 bits pick the
    /// layer, its top 53 bits (arithmetic shift, so the sign comes along) are
    /// the uniform in `[−1, 1)`. About 97 % of draws fall inside their
    /// layer's rectangle and finish with one table compare and one multiply;
    /// the rest (the wedge under the density, or the tail beyond `R` from the
    /// base strip) go to a cold helper that draws further from the same
    /// generator.
    ///
    /// This is the **normal regime** of the module's stream contract: its
    /// stream is the one recorded in PR 24 (which replaced Box–Muller) and is
    /// pinned by this module's `ziggurat_golden_variates` test.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let zig = ziggurat();
        let (layer, u) = layer_and_signed_uniform(self.next_u64());
        if u.abs() < zig.ratio[layer] {
            u * zig.x[layer]
        } else {
            self.normal_outside_rectangle(zig, layer, u)
        }
    }

    /// The ≈ 3 % of normal draws that miss their layer's rectangle: the
    /// wedge between the rectangle and the density (accept by comparing
    /// against `exp`), or — from the base strip — Marsaglia's tail beyond
    /// `R`. A rejected wedge point starts the draw over.
    #[cold]
    fn normal_outside_rectangle(&mut self, zig: &Ziggurat, layer: usize, u: f64) -> f64 {
        if layer == 0 {
            // Exponential-majorized tail: x = R + Exp(R), accepted with
            // probability exp(−(x − R)² / 2).
            loop {
                let beyond = self.exponential(1.0) / ZIGGURAT_R;
                if 2.0 * self.exponential(1.0) >= beyond * beyond {
                    let x = ZIGGURAT_R + beyond;
                    return if u < 0.0 { -x } else { x };
                }
            }
        }
        // Layer `i` spans heights f(x[i]) .. f(x[i+1]); a uniform height in
        // that band, divided through by f(x), must fall below 1.
        let x = u * zig.x[layer];
        let lower = (-0.5 * (zig.x[layer] * zig.x[layer] - x * x)).exp();
        let upper = (-0.5 * (zig.x[layer + 1] * zig.x[layer + 1] - x * x)).exp();
        if upper + self.next_f64() * (lower - upper) < 1.0 {
            x
        } else {
            self.standard_normal()
        }
    }

    /// Draws from `Multinomial(n, weights)` into `out`, distributing `n`
    /// trials over `weights.len()` categories with probabilities proportional
    /// to `weights` — the allocation-free form used by the batched runtime's
    /// hot loop.
    ///
    /// Zero or negative weights get zero probability; if all weights are zero
    /// no trials are assigned at all.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != weights.len()`.
    pub fn multinomial_into(&mut self, n: u64, weights: &[f64], out: &mut [u64]) {
        assert_eq!(
            out.len(),
            weights.len(),
            "output buffer must match the category count"
        );
        out.fill(0);
        let mut remaining = n;
        let mut weight_left: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        for (i, w) in weights.iter().enumerate() {
            if remaining == 0 || weight_left <= 0.0 {
                break;
            }
            let w = w.max(0.0);
            if i + 1 == weights.len() {
                out[i] = remaining;
                remaining = 0;
            } else {
                let p = (w / weight_left).clamp(0.0, 1.0);
                let k = self.binomial(remaining, p);
                out[i] = k;
                remaining -= k;
                weight_left -= w;
            }
        }
    }

    /// Allocating convenience form of [`multinomial_into`](Self::multinomial_into).
    pub fn multinomial(&mut self, n: u64, weights: &[f64]) -> Vec<u64> {
        let mut out = vec![0u64; weights.len()];
        self.multinomial_into(n, weights, &mut out);
        out
    }

    /// Draws from `Hypergeometric(population, successes, draws)`: the number
    /// of marked items obtained when drawing `draws` items without
    /// replacement from a population of `population` items of which
    /// `successes` are marked.
    ///
    /// This is how count-level runtimes split a massive failure across
    /// protocol states: crashing `k` of `N` alive processes hits each state's
    /// population hypergeometrically.
    ///
    /// Uses the exact inverse-CDF walk while the expected count is small, and
    /// a clamped normal approximation otherwise. Complement mirrors fold both
    /// parameters to at most half the population first, which guarantees the
    /// exact walk (starting at `k = 0`) is valid for **every** small-mean
    /// case: the support's lower bound `max(0, draws + successes − N)` is
    /// zero after mirroring, so the clamped-normal path is never taken below
    /// [`NORMAL_APPROX_CUTOFF`] and boundary outcomes near absorbing states
    /// keep their exact probabilities. (Before the mirrors, a draw covering
    /// most of the population — e.g. a 90 % massive failure hitting a small
    /// state — skipped the exact walk even at tiny means.)
    ///
    /// Stream contract: the walk is stable; the clamped-normal branch draws
    /// one [`Rng::standard_normal`] and moved with it in PR 24.
    pub fn hypergeometric(&mut self, population: u64, successes: u64, draws: u64) -> u64 {
        let successes = successes.min(population);
        let draws = draws.min(population);
        if successes == 0 || draws == 0 {
            return 0;
        }
        if draws == population {
            return successes;
        }
        if successes == population {
            return draws;
        }
        // Complement mirrors: the overlap of the drawn set with the marked
        // set determines (and is determined by) the overlap with either
        // complement, so fold both parameters below N/2.
        if draws > population - draws {
            return successes - self.hypergeometric(population, successes, population - draws);
        }
        if successes > population - successes {
            return draws - self.hypergeometric(population, population - successes, draws);
        }
        // From here draws + successes ≤ N: the support starts at 0.
        let n = population as f64;
        let mean = draws as f64 * successes as f64 / n;
        let hi = successes.min(draws);
        if mean < NORMAL_APPROX_CUTOFF {
            // X is symmetric in (successes, draws): it counts the overlap of
            // two uniformly random subsets of those sizes. Walk over the
            // smaller so P(X = 0) is a short product.
            let (k_small, k_large) = if successes <= draws {
                (successes, draws)
            } else {
                (draws, successes)
            };
            // P(X = 0) = Π_{i=0}^{k_small-1} (N - k_large - i) / (N - i).
            let mut f = 1.0f64;
            for i in 0..k_small {
                f *= (population - k_large - i) as f64 / (population - i) as f64;
            }
            if f > 0.0 {
                let u = self.next_f64();
                let mut cdf = f;
                let mut k = 0u64;
                while u > cdf && k < hi {
                    // P(k+1)/P(k) = (K - k)(n - k) / ((k + 1)(N - K - n + k + 1)).
                    let num = (k_small - k) as f64 * (k_large - k) as f64;
                    let den = (k + 1) as f64 * (population + k + 1 - k_small - k_large) as f64;
                    k += 1;
                    f *= num / den;
                    cdf += f;
                }
                return k;
            }
            // Underflow (not reachable for means under the cutoff with the
            // mirrored parameters; kept as a defensive fallback).
        }
        let var = mean * (n - successes as f64) / n * (n - draws as f64) / (n - 1.0).max(1.0);
        let z = self.standard_normal();
        let value = (mean + var.sqrt() * z + 0.5).floor().max(0.0) as u64;
        value.min(hi)
    }

    /// Draws from a multivariate hypergeometric distribution: `draws`
    /// processes are removed uniformly at random, without replacement, from a
    /// population partitioned into cells of sizes `counts`; `out[i]` receives
    /// the number removed from cell `i`.
    ///
    /// This is the inter-shard exchange sampler: by exchangeability, the set
    /// of emigrants leaving a shard (or the set of victims of a massive
    /// failure spanning shards) is a uniformly random subset of the eligible
    /// population, so its split across (shard × state) cells is exactly this
    /// distribution. Sampling is sequential-conditional — cell `i` given the
    /// earlier cells is univariate hypergeometric — so each marginal inherits
    /// the exact-below-[`NORMAL_APPROX_CUTOFF`] guarantee of
    /// [`Rng::hypergeometric`], including exact `P[cell = 0]` at small means.
    ///
    /// `draws` is clamped to the total population. Empty cells and an
    /// exhausted remainder consume no randomness, and the final non-empty
    /// cell is taken by subtraction: the univariate sampler's own early
    /// returns make those draws deterministic, which keeps the RNG stream
    /// identical to hand-rolled sequential walks over the same cells.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < counts.len()`.
    pub fn multivariate_hypergeometric_into(
        &mut self,
        counts: &[u64],
        draws: u64,
        out: &mut [u64],
    ) {
        assert!(
            out.len() >= counts.len(),
            "output slice shorter than cell counts"
        );
        out[..counts.len()].fill(0);
        let mut population: u64 = counts.iter().sum();
        let mut remaining = draws.min(population);
        for (cell, here) in out.iter_mut().zip(counts.iter().copied()) {
            if remaining == 0 {
                break;
            }
            let hit = if population == here {
                remaining
            } else {
                self.hypergeometric(population, here, remaining)
            };
            *cell = hit;
            population -= here;
            remaining -= hit;
        }
    }

    /// Allocating form of [`Rng::multivariate_hypergeometric_into`].
    pub fn multivariate_hypergeometric(&mut self, counts: &[u64], draws: u64) -> Vec<u64> {
        let mut out = vec![0u64; counts.len()];
        self.multivariate_hypergeometric_into(counts, draws, &mut out);
        out
    }

    /// Draws from `Exponential(mean)`: the waiting time to the next event of
    /// a Poisson process with rate `1 / mean` — the inter-event clock of the
    /// continuous-time (SSA) protocol runtimes. Non-positive means return
    /// `0.0` (a rate-∞ event fires immediately).
    ///
    /// Exactly one uniform is consumed per draw, via inversion of the
    /// survival function; the `1 − u` mirror keeps `ln` away from zero, so
    /// the result is always finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::Rng;
    ///
    /// let mut rng = Rng::seed_from(7);
    /// let wait = rng.exponential(360.0);
    /// assert!(wait.is_finite() && wait >= 0.0);
    /// ```
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Draws from `Poisson(mean)`: the number of events of a unit-rate
    /// process in a window of length `mean` — the per-channel leap count of
    /// the tau-leaping runtime. Non-positive means return `0`.
    ///
    /// Below [`NORMAL_APPROX_CUTOFF`] the draw walks the exact inverse CDF
    /// starting from `P(X = 0) = e^{−mean}`, so — exactly as for
    /// [`Rng::binomial`] — boundary outcomes keep their true probabilities:
    /// `P[X = 0]` matches the analytic value bit-for-bit, which is what
    /// keeps absorbing states reachable when a leap window carries a small
    /// expected count. Above the cutoff a continuity-corrected normal
    /// approximation is used, whose error is far below the stochastic noise
    /// of the experiments. Stream contract: the inversion is stable; the
    /// normal branch draws one [`Rng::standard_normal`] and moved with it in
    /// PR 24.
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::Rng;
    ///
    /// let mut rng = Rng::seed_from(7);
    /// let k = rng.poisson(1_000.0);
    /// assert!((850..1150).contains(&k));
    /// ```
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < NORMAL_APPROX_CUTOFF {
            // Inversion by sequential search. The tail bound is defensive
            // only: below the cutoff the CDF reaches any u < 1 long before
            // the probe leaves the support's bulk (P[X > 1000 | mean < 30]
            // underflows f64).
            let mut f = (-mean).exp();
            let u = self.next_f64();
            let mut cdf = f;
            let mut k = 0u64;
            while u > cdf && k < 1_000 {
                k += 1;
                f *= mean / k as f64;
                cdf += f;
            }
            k
        } else {
            let z = self.standard_normal();
            (mean + mean.sqrt() * z + 0.5).floor().max(0.0) as u64
        }
    }
}

/// Function form of [`Rng::binomial`].
pub fn binomial(rng: &mut Rng, n: u64, p: f64) -> u64 {
    rng.binomial(n, p)
}

/// Function form of [`Rng::standard_normal`].
pub fn standard_normal(rng: &mut Rng) -> f64 {
    rng.standard_normal()
}

/// Function form of [`Rng::multinomial`].
pub fn multinomial(rng: &mut Rng, n: u64, weights: &[f64]) -> Vec<u64> {
    rng.multinomial(n, weights)
}

/// Function form of [`Rng::hypergeometric`].
pub fn hypergeometric(rng: &mut Rng, population: u64, successes: u64, draws: u64) -> u64 {
    rng.hypergeometric(population, successes, draws)
}

/// Function form of [`Rng::multivariate_hypergeometric`].
pub fn multivariate_hypergeometric(rng: &mut Rng, counts: &[u64], draws: u64) -> Vec<u64> {
    rng.multivariate_hypergeometric(counts, draws)
}

/// Function form of [`Rng::exponential`].
pub fn exponential(rng: &mut Rng, mean: f64) -> f64 {
    rng.exponential(mean)
}

/// Function form of [`Rng::poisson`].
pub fn poisson(rng: &mut Rng, mean: f64) -> u64 {
    rng.poisson(mean)
}

/// Samples `k` distinct indices uniformly at random from `0..n` (Floyd's
/// algorithm). If `k >= n` every index is returned.
pub fn sample_without_replacement(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    // Floyd's algorithm keeps memory at O(k).
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.index(j + 1);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen
}

/// Draws from a geometric distribution: the number of independent
/// Bernoulli(`p`) failures before the first success. Returns `u64::MAX` when
/// `p <= 0`.
pub fn geometric(rng: &mut Rng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(0xD1CE)
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 100, 0.0), 0);
        assert_eq!(binomial(&mut r, 100, 1.0), 100);
        assert_eq!(binomial(&mut r, 100, -0.5), 0);
        assert_eq!(binomial(&mut r, 100, 1.5), 100);
    }

    #[test]
    fn binomial_is_deterministic_per_seed() {
        // Golden values pin the sampling algorithm: a change to the RNG
        // consumption pattern shows up here before it silently shifts every
        // seeded experiment.
        let mut r = Rng::seed_from(42);
        let golden: Vec<u64> = (0..6).map(|_| r.binomial(1_000, 0.01)).collect();
        let mut r2 = Rng::seed_from(42);
        let again: Vec<u64> = (0..6).map(|_| r2.binomial(1_000, 0.01)).collect();
        assert_eq!(golden, again, "same seed, same stream");
        // All three regimes are deterministic.
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for &(n, p) in &[(40u64, 0.3), (10_000, 0.001), (1_000_000, 0.4)] {
            assert_eq!(a.binomial(n, p), b.binomial(n, p));
        }
    }

    #[test]
    fn binomial_moments_small_n() {
        let mut r = rng();
        let (n, p, draws) = (40u64, 0.2, 20_000);
        let samples: Vec<u64> = (0..draws).map(|_| binomial(&mut r, n, p)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / draws as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / draws as f64;
        assert!((mean - n as f64 * p).abs() < 0.2, "mean {mean}");
        assert!((var - n as f64 * p * (1.0 - p)).abs() < 0.5, "var {var}");
    }

    #[test]
    fn binomial_moments_inverse_cdf_regime() {
        let mut r = rng();
        // n large, mean < 30 → inverse CDF path.
        let (n, p, draws) = (10_000u64, 0.001, 20_000);
        let samples: Vec<u64> = (0..draws).map(|_| binomial(&mut r, n, p)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / draws as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        assert!(samples.iter().all(|&x| x <= n));
    }

    #[test]
    fn binomial_moments_normal_approx_regime() {
        let mut r = rng();
        let (n, p, draws) = (100_000u64, 0.3, 5_000);
        let samples: Vec<u64> = (0..draws).map(|_| binomial(&mut r, n, p)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / draws as f64;
        let expected = n as f64 * p;
        assert!((mean - expected).abs() < expected * 0.005, "mean {mean}");
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / draws as f64;
        assert!((var.sqrt() - sd).abs() < sd * 0.1);
    }

    #[test]
    fn binomial_large_p_symmetry() {
        let mut r = rng();
        let (n, draws) = (1000u64, 10_000);
        let mean: f64 = (0..draws)
            .map(|_| binomial(&mut r, n, 0.97) as f64)
            .sum::<f64>()
            / draws as f64;
        assert!((mean - 970.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn normal_variate_moments() {
        let mut r = rng();
        let draws = 100_000;
        let samples: Vec<f64> = (0..draws).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / draws as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn multinomial_conserves_total_and_proportions() {
        let mut r = rng();
        let weights = [0.5, 0.3, 0.2];
        let mut totals = [0u64; 3];
        let draws = 2_000;
        let n = 1_000;
        for _ in 0..draws {
            let counts = multinomial(&mut r, n, &weights);
            assert_eq!(counts.iter().sum::<u64>(), n);
            for (t, c) in totals.iter_mut().zip(&counts) {
                *t += c;
            }
        }
        let total = (draws * n) as f64;
        for (t, w) in totals.iter().zip(&weights) {
            assert!((*t as f64 / total - w).abs() < 0.01);
        }
    }

    #[test]
    fn multinomial_into_reuses_the_buffer() {
        let mut r = rng();
        let mut out = vec![99u64; 3];
        r.multinomial_into(500, &[0.2, 0.3, 0.5], &mut out);
        assert_eq!(out.iter().sum::<u64>(), 500);
        // Stale contents are overwritten even for zero trials.
        r.multinomial_into(0, &[0.2, 0.3, 0.5], &mut out);
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "output buffer must match")]
    fn multinomial_into_rejects_mismatched_buffer() {
        let mut out = vec![0u64; 2];
        rng().multinomial_into(10, &[0.5, 0.5, 0.0], &mut out);
    }

    #[test]
    fn multinomial_degenerate_weights() {
        let mut r = rng();
        let counts = multinomial(&mut r, 100, &[0.0, 0.0, 1.0]);
        assert_eq!(counts, vec![0, 0, 100]);
        let counts = multinomial(&mut r, 100, &[0.0, 0.0]);
        assert_eq!(counts.iter().sum::<u64>(), 0);
        let counts = multinomial(&mut r, 0, &[0.2, 0.8]);
        assert_eq!(counts, vec![0, 0]);
        // Negative weights are treated as zero.
        let counts = multinomial(&mut r, 50, &[-1.0, 1.0]);
        assert_eq!(counts, vec![0, 50]);
    }

    #[test]
    fn binomial_small_mean_preserves_extinction_probability() {
        // Regression for the absorbing-state audit: with a small expected
        // count the sampler must use the exact inverse-CDF walk, so P[X = 0]
        // matches the analytic (1 − p)^n. The clamped normal would put
        // ~2.2 % of its mass at zero here instead of the true ~0.67 %.
        let mut r = rng();
        let (n, p) = (10_000u64, 0.0005f64);
        let p_zero = (1.0 - p).powi(n as i32); // ≈ e^−5 ≈ 0.0067
        let draws = 30_000;
        let zeros = (0..draws).filter(|_| r.binomial(n, p) == 0).count();
        let expected = p_zero * draws as f64; // ≈ 202
        let sd = (draws as f64 * p_zero * (1.0 - p_zero)).sqrt(); // ≈ 14
        assert!(
            (zeros as f64 - expected).abs() < 5.0 * sd,
            "zeros {zeros}, expected {expected:.0} ± {sd:.0}"
        );
        // The mirrored tail is exact too: P[X = n] for p near 1.
        let full = (0..draws).filter(|_| r.binomial(n, 1.0 - p) == n).count();
        assert!(
            (full as f64 - expected).abs() < 5.0 * sd,
            "full {full}, expected {expected:.0} ± {sd:.0}"
        );
    }

    #[test]
    fn hypergeometric_small_mean_with_large_draws_is_exact() {
        // draws + successes > population used to skip the exact walk and
        // take the clamped normal even at tiny means; the complement mirrors
        // make it exact. Here a 90 %-of-population draw hits 10 marked items:
        // support is [0, 10], mean 9, and P[X = 10] = Π (90−i)/(100−i) ≈ 0.33.
        let mut r = rng();
        let (pop, succ, draws) = (100u64, 10u64, 90u64);
        let reps = 40_000;
        let samples: Vec<u64> = (0..reps)
            .map(|_| r.hypergeometric(pop, succ, draws))
            .collect();
        assert!(samples.iter().all(|&x| x <= 10));
        let mean = samples.iter().sum::<u64>() as f64 / reps as f64;
        assert!((mean - 9.0).abs() < 0.05, "mean {mean}");
        let p_all: f64 = (0..succ)
            .map(|i| (draws - i) as f64 / (pop - i) as f64)
            .product();
        let all = samples.iter().filter(|&&x| x == succ).count() as f64 / reps as f64;
        let sd = (p_all * (1.0 - p_all) / reps as f64).sqrt();
        assert!(
            (all - p_all).abs() < 5.0 * sd + 0.005,
            "P[X = 10] measured {all:.4}, exact {p_all:.4}"
        );
    }

    #[test]
    fn hypergeometric_edges_and_bounds() {
        let mut r = rng();
        assert_eq!(r.hypergeometric(100, 0, 50), 0);
        assert_eq!(r.hypergeometric(100, 50, 0), 0);
        assert_eq!(r.hypergeometric(100, 30, 100), 30);
        assert_eq!(r.hypergeometric(100, 100, 40), 40);
        // Parameters above the population are clamped.
        assert_eq!(r.hypergeometric(10, 20, 10), 10);
        for _ in 0..1_000 {
            let k = r.hypergeometric(50, 30, 40);
            // Support: max(0, n + K - N) ≤ k ≤ min(n, K).
            assert!((20..=30).contains(&k), "k = {k}");
        }
    }

    #[test]
    fn hypergeometric_moments_exact_regime() {
        let mut r = rng();
        // mean = 1000 * 100 / 100_000 = 1 → exact inverse-CDF walk.
        let (pop, succ, draws, reps) = (100_000u64, 100u64, 1_000u64, 20_000);
        let samples: Vec<u64> = (0..reps)
            .map(|_| r.hypergeometric(pop, succ, draws))
            .collect();
        let mean = samples.iter().sum::<u64>() as f64 / reps as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn hypergeometric_moments_normal_regime() {
        let mut r = rng();
        // Crash half of 10_000 with 4_000 marked: mean 2_000.
        let (pop, succ, draws, reps) = (10_000u64, 4_000u64, 5_000u64, 5_000);
        let samples: Vec<u64> = (0..reps)
            .map(|_| r.hypergeometric(pop, succ, draws))
            .collect();
        let mean = samples.iter().sum::<u64>() as f64 / reps as f64;
        assert!((mean - 2_000.0).abs() < 10.0, "mean {mean}");
        let n = pop as f64;
        let expected_var = 2_000.0 * (n - succ as f64) / n * (n - draws as f64) / (n - 1.0);
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / reps as f64;
        assert!(
            (var - expected_var).abs() < expected_var * 0.1,
            "var {var} vs {expected_var}"
        );
    }

    #[test]
    fn multivariate_hypergeometric_moments() {
        // Remove 1_000 of 10_000 split 5_000/3_000/2_000. Each marginal is
        // Hypergeometric(10_000, c_i, 1_000): mean 1_000·c_i/10_000, variance
        // n·(c/N)·(1−c/N)·(N−n)/(N−1).
        let mut r = rng();
        let counts = [5_000u64, 3_000, 2_000];
        let (total, draws, reps) = (10_000f64, 1_000u64, 20_000);
        let mut sums = [0f64; 3];
        let mut sq = [0f64; 3];
        for _ in 0..reps {
            let s = r.multivariate_hypergeometric(&counts, draws);
            assert_eq!(s.iter().sum::<u64>(), draws, "draw total conserved");
            for (i, &x) in s.iter().enumerate() {
                assert!(x <= counts[i], "cell overdrawn");
                sums[i] += x as f64;
                sq[i] += (x as f64).powi(2);
            }
        }
        for i in 0..3 {
            let p = counts[i] as f64 / total;
            let expected_mean = draws as f64 * p;
            let expected_var =
                draws as f64 * p * (1.0 - p) * (total - draws as f64) / (total - 1.0);
            let mean = sums[i] / reps as f64;
            let var = sq[i] / reps as f64 - mean * mean;
            // 5σ band on the sample mean.
            let se = (expected_var / reps as f64).sqrt();
            assert!(
                (mean - expected_mean).abs() < 5.0 * se,
                "cell {i}: mean {mean} vs {expected_mean} ± {se}"
            );
            assert!(
                (var - expected_var).abs() < expected_var * 0.1,
                "cell {i}: var {var} vs {expected_var}"
            );
        }
    }

    #[test]
    fn multivariate_hypergeometric_boundaries() {
        let mut r = rng();
        // draws = 0 removes nothing.
        assert_eq!(r.multivariate_hypergeometric(&[10, 20, 30], 0), [0, 0, 0]);
        // draws = total (and clamping above it) empties every cell.
        assert_eq!(
            r.multivariate_hypergeometric(&[10, 20, 30], 60),
            [10, 20, 30]
        );
        assert_eq!(
            r.multivariate_hypergeometric(&[10, 20, 30], 1_000),
            [10, 20, 30]
        );
        // Empty cells never receive draws; single non-empty cell absorbs all.
        assert_eq!(r.multivariate_hypergeometric(&[0, 50, 0], 7), [0, 7, 0]);
        // No cells at all.
        assert_eq!(r.multivariate_hypergeometric(&[], 5), Vec::<u64>::new());
        // Support check under repetition.
        for _ in 0..1_000 {
            let s = r.multivariate_hypergeometric(&[3, 0, 5, 2], 4);
            assert_eq!(s.iter().sum::<u64>(), 4);
            assert_eq!(s[1], 0);
            assert!(s[0] <= 3 && s[2] <= 5 && s[3] <= 2);
        }
    }

    #[test]
    fn multivariate_hypergeometric_small_cell_preserves_miss_probability() {
        // PR 4's exactness contract extended to the joint sampler: a tiny
        // cell (10 of 100_000) must keep its exact escape probability under a
        // large draw (30_000). P[cell untouched] = Π_{i<10} (70_000−i)/(100_000−i)
        // ≈ 0.7^10 ≈ 0.0282; a clamped normal marginal would distort it.
        let mut r = rng();
        let counts = [10u64, 99_990];
        let draws = 30_000u64;
        let p_zero: f64 = (0..10)
            .map(|i| (70_000 - i) as f64 / (100_000 - i) as f64)
            .product();
        let reps = 30_000;
        let zeros = (0..reps)
            .filter(|_| r.multivariate_hypergeometric(&counts, draws)[0] == 0)
            .count();
        let expected = p_zero * reps as f64;
        let sd = (reps as f64 * p_zero * (1.0 - p_zero)).sqrt();
        assert!(
            (zeros as f64 - expected).abs() < 5.0 * sd,
            "zeros {zeros}, expected {expected:.0} ± {sd:.0}"
        );
    }

    #[test]
    fn multivariate_hypergeometric_golden_and_into_form() {
        // Pinned draws: the sampler's RNG consumption is part of the seeded
        // reproducibility contract (the sharded runtime's exchange and the
        // batched runtime's massive failures both ride on it).
        let mut r = Rng::seed_from(42);
        let a = r.multivariate_hypergeometric(&[100, 200, 300], 60);
        let b = r.multivariate_hypergeometric(&[100, 200, 300], 60);
        let mut r2 = Rng::seed_from(42);
        let mut out = [0u64; 3];
        r2.multivariate_hypergeometric_into(&[100, 200, 300], 60, &mut out);
        assert_eq!(a, out, "into-form matches allocating form");
        let mut out2 = [0u64; 3];
        r2.multivariate_hypergeometric_into(&[100, 200, 300], 60, &mut out2);
        assert_eq!(b, out2, "stream position advances identically");
        assert_ne!(a, b, "consecutive draws differ (seed 42)");
        // The into-form clears stale contents in the cells it owns.
        let mut dirty = [9u64, 9, 9];
        Rng::seed_from(7).multivariate_hypergeometric_into(&[0, 0, 0], 5, &mut dirty);
        assert_eq!(dirty, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "output slice shorter")]
    fn multivariate_hypergeometric_into_rejects_short_output() {
        let mut out = [0u64; 2];
        rng().multivariate_hypergeometric_into(&[1, 2, 3], 2, &mut out);
    }

    #[test]
    fn sampling_without_replacement_is_distinct_and_uniform() {
        let mut r = rng();
        for _ in 0..500 {
            let s = sample_without_replacement(&mut r, 20, 5);
            assert_eq!(s.len(), 5);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "indices must be distinct");
            assert!(s.iter().all(|&i| i < 20));
        }
        // k >= n returns everything.
        assert_eq!(sample_without_replacement(&mut r, 4, 10), vec![0, 1, 2, 3]);
        // Coverage: each index selected roughly equally often.
        let mut hits = [0usize; 10];
        for _ in 0..10_000 {
            for i in sample_without_replacement(&mut r, 10, 3) {
                hits[i] += 1;
            }
        }
        for &h in &hits {
            assert!((h as f64 - 3_000.0).abs() < 300.0, "hits {h}");
        }
    }

    #[test]
    fn exponential_edges_and_moments() {
        let mut r = rng();
        assert_eq!(exponential(&mut r, 0.0), 0.0);
        assert_eq!(exponential(&mut r, -3.0), 0.0);
        let mean = 360.0;
        let draws = 100_000;
        let samples: Vec<f64> = (0..draws).map(|_| r.exponential(mean)).collect();
        assert!(samples.iter().all(|&x| x.is_finite() && x >= 0.0));
        let m = samples.iter().sum::<f64>() / draws as f64;
        let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / draws as f64;
        // E[X] = mean, Var[X] = mean²; 5σ bands on the sample mean.
        let se = mean / (draws as f64).sqrt();
        assert!((m - mean).abs() < 5.0 * se, "mean {m}");
        assert!((var - mean * mean).abs() < mean * mean * 0.1, "var {var}");
    }

    #[test]
    fn exponential_is_deterministic_per_seed() {
        // Golden values pin the one-uniform-per-draw consumption pattern.
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        let xs: Vec<f64> = (0..6).map(|_| a.exponential(10.0)).collect();
        let ys: Vec<f64> = (0..6).map(|_| b.exponential(10.0)).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert!(xs.windows(2).any(|w| w[0] != w[1]), "draws vary");
    }

    #[test]
    fn poisson_edge_cases() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -2.0), 0);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        // Both regimes are deterministic.
        for &mean in &[0.5, 4.0, 25.0, 100.0, 10_000.0] {
            assert_eq!(a.poisson(mean), b.poisson(mean));
        }
    }

    #[test]
    fn poisson_moments_inversion_regime() {
        let mut r = rng();
        let (mean, draws) = (8.0, 50_000);
        let samples: Vec<u64> = (0..draws).map(|_| r.poisson(mean)).collect();
        let m = samples.iter().sum::<u64>() as f64 / draws as f64;
        let var = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / draws as f64;
        // E[X] = Var[X] = mean; 5σ bands on the sample mean.
        let se = (mean / draws as f64).sqrt();
        assert!((m - mean).abs() < 5.0 * se, "mean {m}");
        assert!((var - mean).abs() < mean * 0.1, "var {var}");
    }

    #[test]
    fn poisson_moments_normal_regime() {
        let mut r = rng();
        let (mean, draws) = (5_000.0, 20_000);
        let samples: Vec<u64> = (0..draws).map(|_| r.poisson(mean)).collect();
        let m = samples.iter().sum::<u64>() as f64 / draws as f64;
        let se = (mean / draws as f64).sqrt();
        assert!((m - mean).abs() < 5.0 * se, "mean {m}");
        let var = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / draws as f64;
        assert!((var - mean).abs() < mean * 0.1, "var {var}");
    }

    #[test]
    fn poisson_small_mean_preserves_zero_probability() {
        // The exactness contract extended to the leap sampler: below the
        // cutoff P[X = 0] must match the analytic e^{−mean} — a clamped
        // normal would visibly distort the probability that a leap window
        // leaves a small population untouched.
        let mut r = rng();
        let mean = 5.0_f64;
        let p_zero = (-mean).exp(); // ≈ 0.0067
        let draws = 30_000;
        let zeros = (0..draws).filter(|_| r.poisson(mean) == 0).count();
        let expected = p_zero * draws as f64;
        let sd = (draws as f64 * p_zero * (1.0 - p_zero)).sqrt();
        assert!(
            (zeros as f64 - expected).abs() < 5.0 * sd,
            "zeros {zeros}, expected {expected:.0} ± {sd:.0}"
        );
    }

    /// The generator [`Rng::standard_normal`] replaced in PR 24, kept as the
    /// independent reference of the two-sample KS test.
    fn box_muller(r: &mut Rng) -> f64 {
        let u1 = (1.0 - r.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = r.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Φ(x) by Marsaglia's Taylor series about 0 ("Evaluating the Normal
    /// Distribution", 2004): absolute error near 1e-16 for |x| < 7, which
    /// leaves the upper tail `1 − Φ(4) ≈ 3.2e-5` good to eleven digits.
    fn normal_cdf(x: f64) -> f64 {
        let (mut sum, mut prev, mut term, mut k) = (x, 0.0, x, 1.0);
        while sum != prev {
            prev = sum;
            k += 2.0;
            term *= x * x / k;
            sum += term;
        }
        0.5 + sum * (-0.5 * x * x - 0.5 * (2.0 * std::f64::consts::PI).ln()).exp()
    }

    /// sup |F_a − F_b| of two sorted samples.
    fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    fn sorted_normals(seed: u64, draws: usize, mut draw: impl FnMut(&mut Rng) -> f64) -> Vec<f64> {
        let mut r = Rng::seed_from(seed);
        let mut xs: Vec<f64> = (0..draws).map(|_| draw(&mut r)).collect();
        xs.sort_by(f64::total_cmp);
        xs
    }

    #[test]
    fn ziggurat_golden_variates() {
        // The normal regime's stream, as of PR 24. Seed 42's second draw is
        // a wedge acceptance (layer 126) and seed 18's sixth comes from the
        // tail beyond R, so all three paths are pinned. The tables and the
        // two slow paths go through `exp`/`ln`, which may differ in the last
        // place across platforms: values to 1e-14 relative, position exactly.
        let golden_42 = [
            0.3748148810427174,
            0.2750422118309489,
            -0.30215206605986195,
            -0.016897545950830286,
            -0.7569465964590714,
            -0.9713957307697814,
            -0.8283041815794309,
            -0.17318083972170747,
        ];
        let golden_18 = [
            -1.5650089041968602,
            -0.9040004423896283,
            0.5688809043538566,
            -0.0217051199304793,
            2.4903892304808437,
            -4.385779556345076,
            -0.142594749658784,
            0.6174573434676357,
        ];
        for (seed, golden, next) in [
            (42, golden_42, 10_760_895_422_300_929_085),
            (18, golden_18, 10_354_469_589_761_972_840),
        ] {
            let (zs, after) = pinned(seed, 8, Rng::standard_normal);
            for (z, g) in zs.iter().zip(golden) {
                assert!((z - g).abs() <= 1e-14 * g.abs(), "seed {seed}: {z} vs {g}");
            }
            assert_eq!(after, next, "seed {seed}");
        }
    }

    #[test]
    fn ziggurat_table_invariants() {
        let zig = ziggurat();
        let f = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(zig.x[0], ZIGGURAT_V / f(ZIGGURAT_R));
        assert_eq!(zig.x[1], ZIGGURAT_R);
        assert_eq!(zig.x[ZIGGURAT_LAYERS], 0.0);
        assert!(
            zig.x.windows(2).all(|w| w[0] > w[1]),
            "x strictly decreasing"
        );
        for i in 0..ZIGGURAT_LAYERS {
            assert_eq!(zig.ratio[i], zig.x[i + 1] / zig.x[i], "ratio {i}");
        }
        // Base strip: the R × f(R) rectangle plus the tail ∫_R^∞ f.
        let tail = (2.0 * std::f64::consts::PI).sqrt() * (1.0 - normal_cdf(ZIGGURAT_R));
        let base = ZIGGURAT_R * f(ZIGGURAT_R) + tail;
        assert!((base - ZIGGURAT_V).abs() < 1e-12, "base strip area {base}");
        // Every other layer is a rectangle x[i] wide between the density's
        // heights at its two edges. The recurrence makes layers 1..=126
        // exact; the top one closes on f(0) = 1 only as well as R was
        // published (13 digits leave 1.2e-11, a 1e-9 share of one layer).
        for i in 1..ZIGGURAT_LAYERS {
            let area = zig.x[i] * (f(zig.x[i + 1]) - f(zig.x[i]));
            let tolerance = if i + 1 < ZIGGURAT_LAYERS {
                1e-12
            } else {
                1e-10
            };
            assert!(
                (area - ZIGGURAT_V).abs() < tolerance,
                "layer {i} area {area}"
            );
        }
    }

    #[test]
    fn normal_fast_path_consumes_exactly_one_raw_output() {
        let zig = ziggurat();
        let mut r = Rng::seed_from(5);
        let (draws, mut fast) = (100_000, 0u32);
        for _ in 0..draws {
            let mut probe = r.clone();
            let (layer, u) = layer_and_signed_uniform(probe.next_u64());
            let z = r.standard_normal();
            if u.abs() < zig.ratio[layer] {
                fast += 1;
                assert_eq!(z, u * zig.x[layer]);
                assert_eq!(r, probe, "fast path drew more than one raw output");
            } else {
                assert_ne!(r, probe, "wedge and tail draw further");
            }
        }
        // Σ ratio / 128 ≈ 97.1 % of draws finish in the rectangle.
        let p = zig.ratio.iter().sum::<f64>() / ZIGGURAT_LAYERS as f64;
        let share = f64::from(fast) / f64::from(draws);
        let se = (p * (1.0 - p) / f64::from(draws)).sqrt();
        assert!(
            p > 0.97 && (share - p).abs() < 4.5 * se,
            "fast-path share {share} vs {p}"
        );
    }

    #[test]
    fn normal_one_sample_ks_against_phi() {
        let draws = 200_000;
        let xs = sorted_normals(0xD1CE, draws, Rng::standard_normal);
        let n = draws as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = normal_cdf(x);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        // P[√n·D > 1.95] ≈ 0.001 under the null.
        assert!(d * n.sqrt() < 1.95, "KS distance {d}");
    }

    #[test]
    fn normal_two_sample_ks_against_box_muller() {
        let draws = 200_000;
        let zig = sorted_normals(1, draws, Rng::standard_normal);
        let reference = sorted_normals(2, draws, box_muller);
        let d = ks_two_sample(&zig, &reference);
        // Two-sample form of the same 0.001 level: √(nm/(n+m))·D > 1.95.
        assert!(d * (draws as f64 / 2.0).sqrt() < 1.95, "KS distance {d}");
    }

    #[test]
    fn normal_moments_and_sign_symmetry() {
        let mut r = rng();
        let draws = 1_000_000;
        let xs: Vec<f64> = (0..draws).map(|_| r.standard_normal()).collect();
        let n = draws as f64;
        let moment = |k: i32| xs.iter().map(|x| x.powi(k)).sum::<f64>() / n;
        let (m1, m2, m3, m4) = (moment(1), moment(2), moment(3), moment(4));
        let var = m2 - m1 * m1;
        let skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1.powi(3)) / var.powf(1.5);
        let kurt = (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1.powi(4)) / (var * var);
        // Sampling errors of the four statistics for a normal parent.
        for (name, value, target, se) in [
            ("mean", m1, 0.0, (1.0 / n).sqrt()),
            ("variance", var, 1.0, (2.0 / n).sqrt()),
            ("skewness", skew, 0.0, (6.0 / n).sqrt()),
            ("excess kurtosis", kurt - 3.0, 0.0, (24.0 / n).sqrt()),
        ] {
            assert!(
                (value - target).abs() < 4.5 * se,
                "{name} {value} (se {se})"
            );
        }
        let positive = xs.iter().filter(|&&x| x > 0.0).count() as f64;
        assert!(
            (positive - n / 2.0).abs() < 4.5 * (n / 4.0).sqrt(),
            "positive {positive}"
        );
    }

    /// 10⁷ draws; run by CI under `--release`.
    #[test]
    #[ignore = "10^7 draws: cargo test --release -p netsim -- --ignored normal_tail"]
    fn normal_tail_mass_matches_phi_beyond_r_and_4() {
        let mut r = rng();
        let draws = 10_000_000u32;
        // [below −4, below −R, above R, above 4]
        let mut hits = [0u32; 4];
        for _ in 0..draws {
            let z = r.standard_normal();
            hits[0] += u32::from(z < -4.0);
            hits[1] += u32::from(z < -ZIGGURAT_R);
            hits[2] += u32::from(z > ZIGGURAT_R);
            hits[3] += u32::from(z > 4.0);
        }
        let expect = |x: f64| f64::from(draws) * (1.0 - normal_cdf(x));
        for (got, want) in hits.into_iter().zip([
            expect(4.0),
            expect(ZIGGURAT_R),
            expect(ZIGGURAT_R),
            expect(4.0),
        ]) {
            let got = f64::from(got);
            assert!(
                (got - want).abs() < 4.5 * want.sqrt(),
                "tail count {got} vs {want:.0}"
            );
        }
    }

    #[test]
    fn normal_consumers_just_above_the_cutoff_keep_their_moments() {
        // Mean 40: the first decade the normal generator decides. Exact
        // variances; the continuity-corrected rounding adds 1/12.
        let draws = 200_000;
        let n = draws as f64;
        let check = |name: &str, xs: &[u64], mean: f64, var: f64| {
            let m = xs.iter().sum::<u64>() as f64 / n;
            let v = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / n;
            assert!(
                (m - mean).abs() < 4.5 * (var / n).sqrt(),
                "{name} mean {m} vs {mean}"
            );
            let var = var + 1.0 / 12.0;
            assert!(
                (v - var).abs() < 4.5 * var * (2.0 / n).sqrt(),
                "{name} var {v} vs {var}"
            );
        };
        let mut r = rng();
        let xs: Vec<u64> = (0..draws).map(|_| r.binomial(10_000, 0.004)).collect();
        assert!(xs.iter().all(|&x| x <= 10_000));
        check("binomial", &xs, 40.0, 40.0 * 0.996);
        let (pop, succ, drawn) = (100_000u64, 4_000u64, 1_000u64);
        let xs: Vec<u64> = (0..draws)
            .map(|_| r.hypergeometric(pop, succ, drawn))
            .collect();
        assert!(xs.iter().all(|&x| x <= drawn));
        check(
            "hypergeometric",
            &xs,
            40.0,
            40.0 * 0.96 * 99_000.0 / 99_999.0,
        );
        let xs: Vec<u64> = (0..draws).map(|_| r.poisson(40.0)).collect();
        check("poisson", &xs, 40.0, 40.0);
    }

    /// `count` draws at `seed`, then the generator's next raw output — the
    /// form of every exact-regime pin below. The trailing raw output is what
    /// catches a sampler that returns the same values from a different number
    /// of uniforms.
    fn pinned<T>(seed: u64, count: usize, mut draw: impl FnMut(&mut Rng) -> T) -> (Vec<T>, u64) {
        let mut r = Rng::seed_from(seed);
        let values = (0..count).map(|_| draw(&mut r)).collect();
        (values, r.next_u64())
    }

    // The exact-regime pins. Recorded on the parent of PR 24 (Box–Muller
    // still under the normal regime) and unmodified by it: the checkable form
    // of "only the normal regime moved". A failure here means an *exact*
    // sampler changed its values or its uniform consumption — a bug unless
    // an issue says that stream moves.

    #[test]
    fn exact_regime_pin_binomial_direct_simulation() {
        // n ≤ 64: one uniform per trial, and the p > 1/2 mirror.
        assert_eq!(
            pinned(11, 8, |r| r.binomial(40, 0.3)),
            (
                vec![19, 8, 10, 15, 14, 8, 13, 13],
                7_793_464_445_648_395_483
            )
        );
        assert_eq!(
            pinned(12, 8, |r| r.binomial(64, 0.9)),
            (
                vec![58, 54, 52, 60, 59, 54, 59, 58],
                14_530_408_355_720_085_798
            )
        );
    }

    #[test]
    fn exact_regime_pin_binomial_inverse() {
        // BINV: n > 64 with mean 10 < cutoff, and its p > 1/2 mirror.
        assert_eq!(
            pinned(13, 8, |r| r.binomial(10_000, 0.001)),
            (vec![8, 12, 16, 6, 11, 9, 7, 10], 10_910_944_071_128_475_545)
        );
        assert_eq!(
            pinned(14, 8, |r| r.binomial(10_000, 0.999)),
            (
                vec![9988, 9989, 9985, 9985, 9992, 9988, 9993, 9988],
                9_604_052_993_383_927_088
            )
        );
        // Just under the cutoff (mean 29.9).
        assert_eq!(
            pinned(15, 8, |r| r.binomial(100_000, 0.000_299)),
            (
                vec![32, 28, 27, 24, 31, 25, 39, 37],
                9_517_797_588_632_547_175
            )
        );
    }

    #[test]
    fn exact_regime_pin_hypergeometric_walk() {
        // Mean 1, no mirror.
        assert_eq!(
            pinned(16, 8, |r| r.hypergeometric(100_000, 100, 1_000)),
            (vec![2, 0, 3, 0, 2, 1, 4, 1], 232_831_288_134_965_206)
        );
        // The draws mirror (90 of 100 drawn), the successes mirror (90 of
        // 100 marked), and both at once.
        assert_eq!(
            pinned(17, 8, |r| r.hypergeometric(100, 10, 90)),
            (vec![9, 9, 8, 7, 9, 7, 8, 8], 9_987_097_938_345_043_805)
        );
        assert_eq!(
            pinned(18, 8, |r| r.hypergeometric(100, 90, 10)),
            (vec![9, 9, 9, 7, 9, 9, 7, 9], 17_506_258_939_385_074_250)
        );
        assert_eq!(
            pinned(19, 8, |r| r.hypergeometric(100, 95, 92)),
            (
                vec![88, 87, 87, 87, 88, 87, 87, 88],
                7_311_334_669_965_453_892
            )
        );
        // Just under the cutoff (mean 29.4).
        assert_eq!(
            pinned(20, 8, |r| r.hypergeometric(1_000_000, 4_200, 7_000)),
            (
                vec![33, 25, 30, 27, 25, 21, 45, 30],
                780_768_644_138_030_259
            )
        );
    }

    #[test]
    fn exact_regime_pin_multivariate_hypergeometric_small_cells() {
        // Every conditional marginal has a mean under the cutoff; the empty
        // cell consumes nothing and the last cell is taken by subtraction.
        assert_eq!(
            pinned(21, 4, |r| r
                .multivariate_hypergeometric(&[3, 0, 5, 2, 40], 9)),
            (
                vec![
                    vec![0, 0, 2, 0, 7],
                    vec![0, 0, 2, 0, 7],
                    vec![2, 0, 1, 1, 5],
                    vec![0, 0, 1, 1, 7]
                ],
                10_999_289_009_795_257_930
            )
        );
        assert_eq!(
            pinned(22, 4, |r| r
                .multivariate_hypergeometric(&[10, 99_990], 30_000)),
            (
                vec![
                    vec![7, 29_993],
                    vec![1, 29_999],
                    vec![1, 29_999],
                    vec![1, 29_999]
                ],
                31_329_751_387_931_052
            )
        );
    }

    #[test]
    fn exact_regime_pin_poisson_inversion() {
        assert_eq!(
            pinned(23, 8, |r| r.poisson(0.5)),
            (vec![0, 0, 0, 0, 0, 1, 1, 1], 16_056_482_636_299_553_020)
        );
        assert_eq!(
            pinned(24, 8, |r| r.poisson(4.0)),
            (vec![6, 6, 4, 10, 8, 2, 1, 1], 777_991_404_941_089_805)
        );
        assert_eq!(
            pinned(25, 8, |r| r.poisson(29.9)),
            (
                vec![37, 27, 27, 23, 28, 32, 27, 23],
                10_862_090_283_461_988_976
            )
        );
    }

    #[test]
    fn exact_regime_pin_exponential_and_geometric() {
        // `ln` is not guaranteed bit-identical across platforms, so the
        // waiting times are pinned to 1e-12 relative and the stream position
        // exactly.
        let (waits, next) = pinned(26, 6, |r| r.exponential(10.0));
        let golden = [
            2.682925365945134,
            6.712926923524693,
            2.753521522066184,
            2.048287198870326,
            0.2539483149798589,
            8.897429575439084,
        ];
        for (w, g) in waits.iter().zip(golden) {
            assert!((w - g).abs() <= 1e-12 * g, "exponential {w} vs {g}");
        }
        assert_eq!(next, 17_537_874_728_926_490_134);
        assert_eq!(
            pinned(27, 8, |r| geometric(r, 0.25)),
            (vec![1, 5, 2, 4, 6, 0, 1, 2], 9_855_991_953_483_051_891)
        );
    }

    #[test]
    fn exact_regime_pin_multinomial_small_mean_cells() {
        // n ≤ 64: direct simulation per conditional binomial.
        assert_eq!(
            pinned(28, 4, |r| r.multinomial(50, &[0.5, 0.3, 0.2])),
            (
                vec![
                    vec![20, 19, 11],
                    vec![26, 18, 6],
                    vec![22, 18, 10],
                    vec![25, 12, 13]
                ],
                4_001_192_143_362_847_992
            )
        );
        // Two BINV cells (means 5 and 10), remainder by subtraction.
        assert_eq!(
            pinned(29, 4, |r| r.multinomial(5_000, &[0.001, 0.002, 0.997])),
            (
                vec![
                    vec![6, 6, 4988],
                    vec![7, 11, 4982],
                    vec![6, 10, 4984],
                    vec![4, 10, 4986]
                ],
                17_340_228_183_235_948_924
            )
        );
    }

    #[test]
    fn geometric_moments_and_edges() {
        let mut r = rng();
        assert_eq!(geometric(&mut r, 1.0), 0);
        assert_eq!(geometric(&mut r, 0.0), u64::MAX);
        let p = 0.25;
        let draws = 50_000;
        let mean: f64 = (0..draws).map(|_| geometric(&mut r, p) as f64).sum::<f64>() / draws as f64;
        // E[failures before success] = (1-p)/p = 3.
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }
}

//! Analysis of the endemic protocol (Section 4.1.3 of the paper): equilibria,
//! stability, convergence complexity, probabilistic safety (replica
//! longevity) and the Section 5.1 "reality check" bandwidth model.

use super::EndemicParams;
use odekit::analysis::{analyze_equilibrium, Stability, StabilityReport};
use odekit::OdeError;

/// The two equilibria of the endemic equations (eq. 2), expressed in process
/// counts for a group of size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct EndemicEquilibria {
    /// The trivial equilibrium `(N, 0, 0)`: every replica has disappeared.
    pub trivial: [f64; 3],
    /// The endemic (desirable) equilibrium
    /// `(γ/β·N, (N − γN/β)/(1 + γ/α), (N − γN/β)/(1 + α/γ))`.
    pub endemic: [f64; 3],
}

impl EndemicParams {
    /// The equilibria of the endemic equations for a group of `n` processes
    /// (the paper's eq. 2, with the errata's count normalization).
    pub fn equilibria(&self, n: f64) -> EndemicEquilibria {
        let x = self.gamma / self.beta * n;
        let rest = n - x;
        let y = rest / (1.0 + self.gamma / self.alpha);
        let z = rest / (1.0 + self.alpha / self.gamma);
        EndemicEquilibria {
            trivial: [n, 0.0, 0.0],
            endemic: [x, y, z],
        }
    }

    /// The expected number of stashers (replicas) at the endemic equilibrium.
    pub fn expected_stashers(&self, n: f64) -> f64 {
        self.equilibria(n).endemic[1]
    }

    /// The endemic equilibrium as integer initial counts for a group of `n`
    /// processes: receptive truncated, stash rounded with a floor of one
    /// process (so the replica exists), and the remainder assigned to
    /// averse. The canonical way to start a simulation *at* the equilibrium
    /// (benchmarks, the near-extinction scenario family).
    pub fn equilibrium_counts(&self, n: u64) -> [u64; 3] {
        let eq = self.equilibria(n as f64).endemic;
        let receptive = (eq[0] as u64).min(n);
        let stash = (eq[1].round().max(1.0) as u64).min(n - receptive);
        [receptive, stash, n - receptive - stash]
    }

    /// The paper's reduced 2×2 perturbation matrix `A` (eq. 4):
    /// `σ = (βN − γ)/(1 + γ/α)` and
    /// `A = [[−(σ+α), −σ(γ+α)], [1, 0]]`, with `N = 1` over fractions.
    pub(crate) fn perturbation_matrix(&self) -> [[f64; 2]; 2] {
        let sigma = (self.beta - self.gamma) / (1.0 + self.gamma / self.alpha);
        [
            [-(sigma + self.alpha), -sigma * (self.gamma + self.alpha)],
            [1.0, 0.0],
        ]
    }

    /// Trace `τ` and determinant `∆` of the perturbation matrix (eq. 5).
    pub fn trace_det(&self) -> (f64, f64) {
        let a = self.perturbation_matrix();
        (a[0][0] + a[1][1], a[0][0] * a[1][1] - a[0][1] * a[1][0])
    }

    /// Theorem 3: the endemic equilibrium is always stable when `α, γ > 0` and
    /// `β > γ` (i.e. `τ < 0 < ∆`).
    pub fn endemic_equilibrium_is_stable(&self) -> bool {
        let (tau, delta) = self.trace_det();
        tau < 0.0 && delta > 0.0
    }

    /// Which of the three convergence regimes of Section 4.1.3 applies,
    /// together with the discriminant `τ² − 4∆`.
    pub fn convergence_case(&self) -> (ConvergenceCase, f64) {
        let (tau, delta) = self.trace_det();
        let disc = tau * tau - 4.0 * delta;
        let case = if disc < 0.0 {
            ConvergenceCase::DampedOscillation
        } else if disc > 0.0 {
            ConvergenceCase::RealDistinct
        } else {
            ConvergenceCase::RealEqual
        };
        (case, disc)
    }

    /// Full numerical stability report at the endemic equilibrium (fractions),
    /// using the generic non-linear-dynamics toolbox. The reduced
    /// classification matches Theorem 3 (stable spiral for the Figure 2
    /// parameters).
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-computation failures (does not occur for valid
    /// parameters).
    pub fn stability_report(&self) -> Result<StabilityReport, OdeError> {
        let eq = self.equilibria(1.0).endemic;
        analyze_equilibrium(&self.equations(), &eq)
    }

    /// `true` if the generic analysis classifies the endemic equilibrium as a
    /// stable spiral (the paper's Figure 2 case).
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-computation failures.
    pub fn is_stable_spiral(&self) -> Result<bool, OdeError> {
        Ok(self.stability_report()?.classification_reduced == Stability::StableSpiral)
    }
}

/// The three convergence regimes of Section 4.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvergenceCase {
    /// `τ² − 4∆ < 0`: complex eigenvalues, damped oscillation (stable spiral).
    DampedOscillation,
    /// `τ² − 4∆ > 0`: distinct real eigenvalues.
    RealDistinct,
    /// `τ² − 4∆ = 0`: equal real eigenvalues.
    RealEqual,
}

/// Probabilistic safety (replica longevity) estimates — the paper's
/// "back of the envelope" calculation at the end of Section 4.1.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Longevity {
    /// Number of stashers at equilibrium (`y∞`).
    pub stashers: f64,
    /// Probability that all stashers die before creating a new one: `(1/2)^y∞`.
    pub extinction_probability: f64,
    /// Expected object lifetime in protocol periods: `2^y∞`.
    pub expected_periods: f64,
    /// Expected object lifetime in years, given the protocol period length.
    pub expected_years: f64,
}

/// Computes the longevity estimate for `stashers` equilibrium replicas and a
/// protocol period of `period_secs` seconds.
pub fn longevity(stashers: f64, period_secs: f64) -> Longevity {
    let extinction_probability = 0.5_f64.powf(stashers);
    let expected_periods = 2.0_f64.powf(stashers);
    let seconds_per_year = 365.25 * 24.0 * 3600.0;
    Longevity {
        stashers,
        extinction_probability,
        expected_periods,
        expected_years: expected_periods * period_secs / seconds_per_year,
    }
}

/// Number of equilibrium replicas needed so that the extinction probability is
/// `1/N^c` — the paper's rule `y∞ = c·log₂(N)`.
pub fn replicas_for_extinction_exponent(c: f64, n: f64) -> f64 {
    c * n.log2()
}

/// The Section 5.1 "reality check": per-host storage duty cycle and bandwidth
/// for a single replicated file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealityCheck {
    /// Fraction of time a given host stores the file (`y∞ / N`).
    pub storage_duty_cycle: f64,
    /// Average number of protocol periods a host keeps the file once it
    /// becomes a stasher (`1/γ`).
    pub storage_duration_periods: f64,
    /// Average storage duration in hours.
    pub storage_duration_hours: f64,
    /// Expected file transfers per protocol period across the whole system
    /// (`y∞·γ` at equilibrium).
    pub transfers_per_period: f64,
    /// Bandwidth per file per host in bits per second, counting both the
    /// sending and the receiving endpoint of each transfer (which is how the
    /// paper's 3.92×10⁻³ bps figure is obtained).
    pub bandwidth_bps_per_host: f64,
}

/// Computes the reality-check figures for a group of `n` hosts, `stashers`
/// equilibrium replicas, recovery rate `gamma`, a protocol period of
/// `period_secs` seconds and a file of `file_bytes` bytes.
pub fn reality_check(
    n: f64,
    stashers: f64,
    gamma: f64,
    period_secs: f64,
    file_bytes: f64,
) -> RealityCheck {
    let storage_duty_cycle = stashers / n;
    let storage_duration_periods = 1.0 / gamma;
    let transfers_per_period = stashers * gamma;
    let bits_per_transfer = file_bytes * 8.0;
    // Each transfer consumes bandwidth at both endpoints.
    let system_bps = 2.0 * transfers_per_period * bits_per_transfer / period_secs;
    RealityCheck {
        storage_duty_cycle,
        storage_duration_periods,
        storage_duration_hours: storage_duration_periods * period_secs / 3600.0,
        transfers_per_period,
        bandwidth_bps_per_host: system_bps / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2_params() -> EndemicParams {
        EndemicParams::new(4.0, 1.0, 0.01).unwrap()
    }

    #[test]
    fn equilibria_match_closed_form() {
        // Figure 2 parameters, N = 1000.
        let p = figure2_params();
        let eq = p.equilibria(1000.0);
        assert_eq!(eq.trivial, [1000.0, 0.0, 0.0]);
        // x∞ = γ/β·N = 250.
        assert!((eq.endemic[0] - 250.0).abs() < 1e-9);
        // y∞ = (N - γN/β)/(1 + γ/α) = 750/101.
        assert!((eq.endemic[1] - 750.0 / 101.0).abs() < 1e-9);
        // z∞ = 750/(1 + 0.01).
        assert!((eq.endemic[2] - 750.0 / 1.01).abs() < 1e-9);
        // The three components sum to N.
        let sum: f64 = eq.endemic.iter().sum();
        assert!((sum - 1000.0).abs() < 1e-9);
        assert!((p.expected_stashers(1000.0) - eq.endemic[1]).abs() < 1e-12);
        // Integer equilibrium counts cover the whole group, track the real
        // equilibrium, and always include at least one stasher.
        let counts = p.equilibrium_counts(1000);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts[1] >= 1);
        for (c, e) in counts.iter().zip(&eq.endemic) {
            assert!((*c as f64 - e).abs() <= 1.0, "{c} vs {e}");
        }
        // It really is an equilibrium of the equations (fractions).
        let frac_eq = p.equilibria(1.0).endemic;
        let rhs = p.equations().eval_rhs(&frac_eq);
        assert!(rhs.iter().all(|v| v.abs() < 1e-12), "rhs {rhs:?}");
    }

    #[test]
    fn figure7_equilibrium_stasher_counts() {
        // Figure 7 parameters: b = 2 (β = 4), γ = 0.1, α = 0.001.
        let p = EndemicParams::from_contact_count(2, 0.1, 0.001).unwrap();
        // Receptives: x∞ = γ/β·N = 2500 at N = 100 000; stashers ≈ 988.
        let eq = p.equilibria(100_000.0).endemic;
        assert!((eq[0] - 2_500.0).abs() < 1e-9);
        assert!((eq[1] - 97_500.0 / 101.0).abs() < 1e-6);
        // Scaling with N is (almost exactly) linear in the stasher count.
        let ratio = p.expected_stashers(100_000.0) / p.expected_stashers(12_500.0);
        assert!((ratio - 8.0).abs() < 0.1, "ratio {ratio}");

        // Figure 8's caption quotes 88.63 stashers at N = 1000; that number
        // corresponds to γ/α = 10 (α = 0.01 with γ = 0.1): (1000 − 25)/11.
        let p8 = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
        let y = p8.expected_stashers(1000.0);
        assert!((y - 88.63).abs() < 0.05, "y∞ = {y}");
        // ...and one new stasher is then created every γ·y∞ per 6-minute
        // period ≈ every 40.6 seconds, as the paper states.
        let seconds_between_stashers = 360.0 / (0.1 * y);
        assert!((seconds_between_stashers - 40.6).abs() < 0.2);
    }

    #[test]
    fn theorem3_stability_holds_for_valid_parameters() {
        for (beta, gamma, alpha) in [
            (4.0, 1.0, 0.01),
            (4.0, 0.1, 0.001),
            (64.0, 0.1, 0.005),
            (2.0, 0.5, 1.0),
        ] {
            let p = EndemicParams::new(beta, gamma, alpha).unwrap();
            assert!(
                p.endemic_equilibrium_is_stable(),
                "β={beta}, γ={gamma}, α={alpha}"
            );
            let (tau, delta) = p.trace_det();
            assert!(tau < 0.0 && delta > 0.0);
        }
    }

    #[test]
    fn figure2_parameters_give_a_stable_spiral() {
        let p = figure2_params();
        let (case, disc) = p.convergence_case();
        assert_eq!(case, ConvergenceCase::DampedOscillation);
        assert!(disc < 0.0);
        assert!(p.is_stable_spiral().unwrap());
        // The trivial equilibrium is a saddle (paper's corollary).
        let report = analyze_equilibrium(&p.equations(), &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(report.classification_reduced, Stability::Saddle);
    }

    #[test]
    fn real_eigenvalue_regime_exists() {
        // Large α relative to σ gives distinct real eigenvalues.
        let p = EndemicParams::new(1.1, 1.0, 1.0).unwrap();
        let (case, disc) = p.convergence_case();
        assert_eq!(case, ConvergenceCase::RealDistinct);
        assert!(disc > 0.0);
        assert!(p.endemic_equilibrium_is_stable());
    }

    #[test]
    fn longevity_matches_paper_examples() {
        // N = 1024, 50 replicas, 6-minute period → ≈ 1.28e10 years.
        let l = longevity(50.0, 360.0);
        assert!(
            (l.expected_years / 1.28e10 - 1.0).abs() < 0.05,
            "{}",
            l.expected_years
        );
        assert!((l.extinction_probability - 0.5_f64.powi(50)).abs() < 1e-30);
        // The paper's rule y∞ = c·log2(N) gives extinction probability N^-c.
        assert!((replicas_for_extinction_exponent(5.0, 1024.0) - 50.0).abs() < 1e-9);
        // N = 2^20, 100 replicas: astronomically long (the paper quotes
        // 1.45e25 years; the direct 2^100 computation gives the same order of
        // magnitude band — ≥ 1e24 years).
        let l2 = longevity(100.0, 360.0);
        assert!(l2.expected_years > 1e24);
        assert!((replicas_for_extinction_exponent(5.0, (1u64 << 20) as f64) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reality_check_matches_paper_numbers() {
        // 100 000 hosts, ~100 stashers, γ = 1e-3, 6-minute period, 88.2 KB file.
        let rc = reality_check(100_000.0, 100.0, 1e-3, 360.0, 88.2 * 1024.0);
        // Each host stores the file ~0.1 % of the time.
        assert!((rc.storage_duty_cycle - 0.001).abs() < 1e-12);
        // Storage duration ≈ 1000 periods = 100 hours.
        assert!((rc.storage_duration_hours - 100.0).abs() < 1e-9);
        // Bandwidth ≈ 3.92e-3 bps per file per host (within 10 %: the paper
        // does not state whether KB means 1000 or 1024 bytes).
        assert!(
            (rc.bandwidth_bps_per_host / 3.92e-3 - 1.0).abs() < 0.1,
            "bps {}",
            rc.bandwidth_bps_per_host
        );
        assert!((rc.transfers_per_period - 0.1).abs() < 1e-12);
    }
}

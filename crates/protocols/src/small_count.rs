//! The "near-tie takeover" scenario family: runs engineered to live in the
//! small-count regime that mean-field batching cannot serve.
//!
//! The paper's most interesting finite-N phenomena happen exactly where some
//! state's population is *small*:
//!
//! * **LV majority tie-breaking** (Figure 11): started from a near-tie
//!   (e.g. a 50.5 / 49.5 split), the deterministic competition equations sit
//!   close to the saddle and stochastic fluctuations of a few hundred
//!   processes decide which proposal takes over — occasionally the initial
//!   *minority*.
//! * **Endemic extinction**: at the endemic equilibrium only a handful of
//!   processes stash the replica (≈ 7 at N = 1000 for the Figure 2
//!   parameters), so a random fluctuation can drive the stash count into the
//!   absorbing zero — the probabilistic-safety event the longevity analysis
//!   bounds.
//!
//! Both families resolve through
//! [`Simulation::run_auto`](dpde_core::runtime::Simulation::run_auto) to the
//! [`HybridRuntime`](dpde_core::runtime::HybridRuntime) tier: count-batched
//! while every population is large, per-process when the deciding counts run
//! small.

use crate::endemic::{EndemicParams, STASH};
use crate::lv::majority::{Decision, MajorityOutcome, MajoritySelection};
use crate::lv::LvParams;
use dpde_core::CoreError;
use netsim::Scenario;

/// LV majority selection started from a near-tie split — the takeover
/// scenario family.
///
/// With the imbalance ε = 0.5 %, a group of `n` processes starts with
/// `⌈(0.5 + ε)·n⌉` proposers of 0 and the rest proposing 1. The margin is only
/// `2εn` processes, so the race between the two proposals is decided by
/// small-count fluctuations around the saddle of the competition equations —
/// the initial minority takes over in a non-negligible fraction of runs.
///
/// # Examples
///
/// ```
/// use dpde_protocols::small_count::NearTieTakeover;
///
/// // 50.5 / 49.5 split of 2000 processes.
/// let family = NearTieTakeover::new();
/// assert_eq!(family.split(2_000), (1_010, 990));
/// ```
#[derive(Debug, Clone)]
pub struct NearTieTakeover {
    selection: MajoritySelection,
}

/// The imbalance ε of a [`NearTieTakeover`] split: proposal 0 starts with a
/// `0.5 + ε` fraction.
const IMBALANCE: f64 = 0.005;

/// Outcome of one near-tie run.
#[derive(Debug, Clone)]
pub struct TakeoverOutcome {
    /// The underlying majority-selection outcome.
    pub outcome: MajorityOutcome,
    /// `true` if the group converged on the initial *minority* value — the
    /// takeover event this family exists to measure.
    pub minority_takeover: bool,
}

impl Default for NearTieTakeover {
    fn default() -> Self {
        Self::new()
    }
}

impl NearTieTakeover {
    /// Creates the family with the paper's LV parameters and a 0.5 %
    /// imbalance (a 50.5 / 49.5 split).
    pub fn new() -> Self {
        NearTieTakeover {
            selection: MajoritySelection::new(LvParams::new()),
        }
    }

    /// The `(zeros, ones)` split for a group of `n` processes.
    pub fn split(&self, n: u64) -> (u64, u64) {
        let zeros = ((0.5 + IMBALANCE) * n as f64).ceil().min(n as f64) as u64;
        (zeros, n - zeros)
    }

    /// Runs one near-tie selection under the given scenario.
    ///
    /// # Errors
    ///
    /// Propagates protocol and runtime errors.
    pub fn run(&self, scenario: &Scenario) -> Result<TakeoverOutcome, CoreError> {
        let (zeros, ones) = self.split(scenario.group_size() as u64);
        let outcome = self.selection.run(scenario, zeros, ones)?;
        let minority_takeover = match outcome.initial_majority {
            Decision::Zero => outcome.decision == Decision::One,
            Decision::One => outcome.decision == Decision::Zero,
            // An exact tie has no minority to take over.
            Decision::Undecided => false,
        };
        Ok(TakeoverOutcome {
            outcome,
            minority_takeover,
        })
    }
}

/// Endemic runs driven to near-extinction — the absorbing-boundary half of
/// the scenario family.
///
/// The group size is chosen so the endemic equilibrium sustains only
/// `target_stashers` replica holders; from there, stochastic fluctuations of
/// the handful of stashers can hit the absorbing zero (every replica lost),
/// the probabilistic-safety event of the paper's longevity analysis. Runs
/// start *at* the equilibrium so every period probes the small-count regime.
///
/// # Examples
///
/// ```
/// use dpde_protocols::small_count::NearExtinction;
///
/// let family = NearExtinction::new(8.0)?;
/// assert!((family.expected_stashers() - 8.0).abs() < 0.5);
/// # Ok::<(), dpde_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NearExtinction {
    params: EndemicParams,
    n: u64,
}

/// Outcome of one near-extinction run.
#[derive(Debug, Clone)]
pub struct ExtinctionOutcome {
    /// The full simulation output (counts per period).
    pub run: dpde_core::runtime::RunResult,
    /// First period at which the stash count hit zero, if it did. Extinction
    /// is absorbing: no receptive process can ever stash again.
    pub extinction_period: Option<u64>,
}

impl NearExtinction {
    /// Creates the family with replication-style parameters (β = 4 via
    /// b = 2 contacts, γ = 0.1 and a small α = 6.25·10⁻⁴, so the endemic
    /// stash fraction is ≈ 0.6 %), sized so the equilibrium sustains about
    /// `target_stashers` replica holders.
    ///
    /// # Errors
    ///
    /// Returns an error unless `target_stashers` is positive and finite.
    pub fn new(target_stashers: f64) -> Result<Self, CoreError> {
        let params = EndemicParams::from_contact_count(2, 0.1, 6.25e-4)?;
        Self::with_params(params, target_stashers)
    }

    /// Creates the family with explicit endemic parameters.
    ///
    /// # Errors
    ///
    /// Returns an error unless `target_stashers` is positive and finite.
    pub(crate) fn with_params(
        params: EndemicParams,
        target_stashers: f64,
    ) -> Result<Self, CoreError> {
        if !(target_stashers.is_finite() && target_stashers > 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "target_stashers",
                reason: format!("target must be positive and finite, got {target_stashers}"),
            });
        }
        // expected_stashers is linear in n, so invert it at n = 1. A
        // non-positive fraction means the parameters admit no endemic
        // equilibrium (γ ≥ β — constructible by mutating the public fields),
        // and the family would be degenerate: reject loudly.
        let per_process = params.expected_stashers(1.0);
        if !(per_process.is_finite() && per_process > 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "params",
                reason: format!(
                    "parameters admit no endemic equilibrium \
                     (stash fraction {per_process}); need β > γ > 0"
                ),
            });
        }
        let n = (target_stashers / per_process).round().max(4.0) as u64;
        Ok(NearExtinction { params, n })
    }

    /// The derived group size.
    pub fn group_size(&self) -> u64 {
        self.n
    }

    /// The expected stash population at the endemic equilibrium for the
    /// derived group size.
    pub fn expected_stashers(&self) -> f64 {
        self.params.expected_stashers(self.n as f64)
    }

    /// The equilibrium initial counts (receptive truncated, stash rounded
    /// with a floor of one process, remainder to averse — see
    /// [`EndemicParams::equilibrium_counts`]).
    pub(crate) fn initial_counts(&self) -> [u64; 3] {
        self.params.equilibrium_counts(self.n)
    }

    /// Runs one near-extinction trajectory for `periods` periods under the
    /// given seed and reports when (if ever) the stash population hit the
    /// absorbing zero.
    ///
    /// # Errors
    ///
    /// Propagates protocol and runtime errors.
    pub fn run(&self, periods: u64, seed: u64) -> Result<ExtinctionOutcome, CoreError> {
        use dpde_core::runtime::{CountsRecorder, InitialStates, Simulation};
        let protocol = self.params.figure1_protocol()?;
        let scenario = Scenario::new(self.n as usize, periods)?.with_seed(seed);
        let counts = self.initial_counts();
        let run = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&counts))
            .observe(CountsRecorder::new())
            .run_auto()?;
        let stash = run.state_series(STASH)?;
        let extinction_period = stash.iter().position(|&y| y == 0.0).map(|p| p as u64);
        Ok(ExtinctionOutcome {
            run,
            extinction_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split() {
        let family = NearTieTakeover::new();
        assert_eq!(family.split(2_000), (1_010, 990));
        assert_eq!(family.split(100_000), (50_500, 49_500));
    }

    #[test]
    fn near_tie_runs_resolve_to_a_takeover_or_a_majority_win() {
        // A 50.5/49.5 split of 1000 processes: the saddle is close, so the
        // run decides for one of the proposals (which one varies by seed); the
        // outcome bookkeeping must be consistent either way.
        let family = NearTieTakeover::new();
        let scenario = Scenario::new(1_000, 1_500).unwrap().with_seed(31);
        let run = family.run(&scenario).unwrap();
        assert!(matches!(
            run.outcome.decision,
            Decision::Zero | Decision::One
        ));
        assert_eq!(
            run.minority_takeover,
            run.outcome.decision == Decision::One,
            "zeros start as the majority"
        );
    }

    #[test]
    fn near_extinction_family_is_sized_from_the_target() {
        let family = NearExtinction::new(8.0).unwrap();
        assert!((family.expected_stashers() - 8.0).abs() < 0.5);
        let counts = family.initial_counts();
        assert_eq!(counts.iter().sum::<u64>(), family.group_size());
        // The stash population starts small — the whole point of the family.
        assert!(counts[1] < dpde_core::runtime::SMALL_COUNT_THRESHOLD);
        assert!(NearExtinction::new(0.0).is_err());
        assert!(NearExtinction::new(f64::NAN).is_err());
        // Parameters without an endemic equilibrium (γ ≥ β via direct field
        // mutation) are rejected instead of producing a degenerate family.
        let mut subcritical = EndemicParams::from_contact_count(2, 0.1, 6.25e-4).unwrap();
        subcritical.gamma = 1.0;
        subcritical.beta = 0.5;
        assert!(NearExtinction::with_params(subcritical, 6.0).is_err());
    }

    #[test]
    fn near_extinction_runs_report_the_absorbing_event() {
        // With only ~5 stashers, extinction within 4000 periods is common;
        // across a few seeds at least one run must hit the absorbing zero,
        // and the report must match the recorded series.
        let family = NearExtinction::new(5.0).unwrap();
        let mut saw_extinction = false;
        for seed in 0..6 {
            let outcome = family.run(4_000, seed).unwrap();
            let stash = outcome.run.state_series(STASH).unwrap();
            match outcome.extinction_period {
                Some(p) => {
                    saw_extinction = true;
                    assert_eq!(stash[p as usize], 0.0);
                    // Absorbing: once extinct, extinct forever.
                    assert!(stash[p as usize..].iter().all(|&y| y == 0.0));
                }
                None => assert!(stash.iter().all(|&y| y > 0.0)),
            }
        }
        assert!(saw_extinction, "no extinction in 6 seeds × 4000 periods");
    }
}

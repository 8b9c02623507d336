//! The tau-leaping continuous-time runtime: bounded-error leaps over the
//! SSA's reaction channels.
//!
//! Exact continuous-time sampling ([`SsaRuntime`](super::SsaRuntime)) costs
//! one iteration per *event* — `O(N)` per period at fixed rates. Tau-leaping
//! (Gillespie 2001, with Cao/Gillespie/Petzold's 2006 step-size selection)
//! recovers near-batched cost while keeping the continuous-time dynamics:
//! it advances the event clock in leaps of length `τ`, chosen so that no
//! channel's propensity changes by more than a relative `ε` during the
//! leap, and fires each channel a Poisson-distributed `k_c ~ Poisson(a_c·τ)`
//! times per leap.
//!
//! Two guards keep the error bound honest where leaping breaks down:
//!
//! * **small-count fallback** — when any active channel drains a population
//!   below [`SMALL_COUNT_THRESHOLD`] (the same regime boundary the hybrid
//!   tier uses), Poisson leaps can overshoot pools and distort extinction
//!   dynamics, so the runtime executes a short burst of *exact* SSA steps
//!   (direct method) instead, then re-evaluates;
//! * **unprofitable leaps** — when the selected `τ` would cover only a few
//!   events (`τ · Σa ≲ 10`), exact steps are cheaper *and* exact, so the
//!   runtime takes them.
//!
//! Within-period event clocks restart at each period boundary (the exact
//! burst uses the memoryless direct method, so only the truncation of an
//! in-flight wait at the boundary is approximated — an `O(ε)`-class error
//! already covered by the leap bound). Boundary semantics are shared with
//! the SSA tier: the environment acts on the count state at each boundary
//! with the batched tier's draws, boundary counts are the exact
//! interpolation of the piecewise-constant path, and message tallies reuse
//! the synchronized expected-message accounting.
//!
//! The per-leap error bound `ε` defaults to [`DEFAULT_TAU_EPSILON`] and is
//! set per run by [`ErrorBudget::Bounded`](super::ErrorBudget) through
//! [`RunConfig::tau_epsilon`].

use super::batched::BatchedRuntime;
use super::ssa::{Clock, Window};
use super::{InitialStates, PeriodEvents, RunConfig, Runtime, SMALL_COUNT_THRESHOLD};
use crate::state_machine::Protocol;
use crate::Result;
use netsim::Scenario;

/// Default per-leap relative error bound (`ε` in the Cao/Gillespie/Petzold
/// step-size criterion): no propensity may change by more than ~3% within
/// one leap.
pub const DEFAULT_TAU_EPSILON: f64 = 0.03;

/// Number of exact SSA steps executed per small-count / unprofitable-leap
/// burst before leaping is re-evaluated (the standard ~10-step heuristic).
const EXACT_BURST_STEPS: u32 = 10;

/// A leap covering fewer than this many expected events is unprofitable:
/// exact steps are taken instead.
const MIN_EVENTS_PER_LEAP: f64 = 10.0;

/// Executes a protocol in continuous virtual time with Poisson-batched
/// leaps under a per-leap relative error bound, falling back to exact SSA
/// steps at small counts. See the module-level documentation.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{InitialStates, Runtime, TauLeapRuntime}};
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// let scenario = Scenario::new(100_000, 60)?.with_seed(7);
/// let result = TauLeapRuntime::new(protocol).with_epsilon(0.05)
///     .run(&scenario, &InitialStates::counts(&[99_000, 1_000]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 90_000.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TauLeapRuntime {
    batched: BatchedRuntime,
    epsilon: f64,
}

/// The mutable execution state of a [`TauLeapRuntime`] run.
#[derive(Debug, Clone)]
pub struct TauLeapState {
    window: Window,
    /// Scratch: propensities of the current leap iteration, one per plan
    /// action (the SSA's channels).
    propensities: Vec<f64>,
    /// Scratch: per-state expected drift `μ_i = Σ_c a_c ν_ci`.
    mu: Vec<f64>,
    /// Scratch: per-state event variance `σ²_i = Σ_c a_c ν²_ci`.
    sigma2: Vec<f64>,
    exact_steps: u64,
    leaps: u64,
}

impl TauLeapState {
    /// Total exact SSA steps taken by the small-count / unprofitable-leap
    /// fallback so far (diagnostics: a large-population run should spend
    /// almost all its virtual time leaping).
    pub fn exact_steps(&self) -> u64 {
        self.exact_steps
    }

    /// Total Poisson leaps taken so far.
    pub fn leaps(&self) -> u64 {
        self.leaps
    }
}

impl TauLeapRuntime {
    /// The per-leap relative error bound in effect.
    #[cfg(test)]
    pub(crate) fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Replaces the per-leap relative error bound (clamped to
    /// `[1e-4, 0.5]`: zero or negative bounds would stall the leap loop,
    /// and bounds near 1 void the Poisson approximation).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = clamp_epsilon(epsilon);
        self
    }

    /// Executes up to [`EXACT_BURST_STEPS`] direct-method SSA steps from
    /// virtual time `t`, returning the new time (capped at the period
    /// boundary). Propensities in `state.propensities` are current on entry
    /// and are refreshed after every applied event.
    fn exact_burst(&self, state: &mut TauLeapState, mut t: f64, clock: &Clock) -> f64 {
        let plan = self.batched.plan();
        let period_secs = clock.period_secs;
        for _ in 0..EXACT_BURST_STEPS {
            let total: f64 = state.propensities.iter().sum();
            if total <= 0.0 {
                return period_secs;
            }
            let wait = state.window.rng.exponential(1.0 / total);
            if t + wait >= period_secs {
                return period_secs;
            }
            t += wait;
            // Direct method: pick the firing channel by propensity mass.
            let mut u = state.window.rng.next_f64() * total;
            let mut winner = state.propensities.len() - 1;
            for (c, &a) in state.propensities.iter().enumerate() {
                if a <= 0.0 {
                    continue;
                }
                if u < a {
                    winner = c;
                    break;
                }
                u -= a;
            }
            state.window.fire(plan, winner, 1);
            state.exact_steps += 1;
            (state.window).propensities(plan, clock, &mut state.propensities);
        }
        t
    }
}

fn clamp_epsilon(epsilon: f64) -> f64 {
    if epsilon.is_finite() {
        epsilon.clamp(1e-4, 0.5)
    } else {
        DEFAULT_TAU_EPSILON
    }
}

impl Runtime for TauLeapRuntime {
    type State = TauLeapState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        let epsilon = config
            .tau_epsilon
            .map_or(DEFAULT_TAU_EPSILON, clamp_epsilon);
        TauLeapRuntime {
            batched: BatchedRuntime::build(protocol, config),
            epsilon,
        }
    }

    fn protocol(&self) -> &Protocol {
        self.batched.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<TauLeapState> {
        let num_states = self.batched.plan().num_states();
        Ok(TauLeapState {
            window: self.batched.start(scenario, initial, super::TAU_LEAP)?,
            propensities: vec![0.0; self.batched.plan().actions.len()],
            mu: vec![0.0; num_states],
            sigma2: vec![0.0; num_states],
            exact_steps: 0,
            leaps: 0,
        })
    }

    fn step<'s>(&self, state: &'s mut TauLeapState) -> Result<PeriodEvents<'s>> {
        let plan = self.batched.plan();
        let clock = state.window.open(&self.batched)?;
        let period_secs = clock.period_secs;

        // Leap from this boundary to the next.
        let mut t = 0.0f64;
        while t < period_secs {
            let total = (state.window).propensities(plan, &clock, &mut state.propensities);
            if total <= 0.0 {
                break;
            }

            // Small-count guard: an active channel draining a small pool
            // must be resolved exactly.
            let x = &state.window.counts_alive;
            let small = (state.propensities.iter().enumerate())
                .any(|(c, &a)| a > 0.0 && x[plan.edge(c).0] < SMALL_COUNT_THRESHOLD);
            if small {
                t = self.exact_burst(state, t, &clock);
                continue;
            }

            // Cao/Gillespie/Petzold step-size selection: bound each state's
            // expected drift and fluctuation over the leap by max(ε·x_i, 1).
            state.mu.fill(0.0);
            state.sigma2.fill(0.0);
            for (c, &a) in state.propensities.iter().enumerate() {
                let (from, to) = plan.edge(c);
                if a <= 0.0 || from == to {
                    continue;
                }
                state.mu[from] -= a;
                state.mu[to] += a;
                state.sigma2[from] += a;
                state.sigma2[to] += a;
            }
            let mut tau = period_secs - t;
            for (i, &count) in x.iter().enumerate() {
                let bound = (self.epsilon * count as f64).max(1.0);
                if state.mu[i] != 0.0 {
                    tau = tau.min(bound / state.mu[i].abs());
                }
                if state.sigma2[i] > 0.0 {
                    tau = tau.min(bound * bound / state.sigma2[i]);
                }
            }

            // Unprofitable leap: a handful of exact events is cheaper and
            // exact.
            if tau * total < MIN_EVENTS_PER_LEAP && tau < period_secs - t {
                t = self.exact_burst(state, t, &clock);
                continue;
            }

            // Poisson-fire every channel over the leap, capped by the pool
            // each firing drains at application time (the same caps the
            // batched tier applies to its binomial draws).
            for (c, &a) in state.propensities.iter().enumerate() {
                if a <= 0.0 {
                    continue;
                }
                let pool = state.window.counts_alive[plan.edge(c).0];
                let k = state.window.rng.poisson(a * tau).min(pool);
                if k > 0 {
                    state.window.fire(plan, c, k);
                }
            }
            state.leaps += 1;
            t += tau;
        }

        state.window.close(plan);
        Ok(state.window.events(&self.batched))
    }

    fn snapshot<'s>(&self, state: &'s TauLeapState) -> PeriodEvents<'s> {
        state.window.events(&self.batched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::epidemic_protocol;
    use crate::runtime::SsaRuntime;

    #[test]
    fn epidemic_saturates_and_conserves_counts() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(50_000, 80).unwrap().with_seed(13);
        let runtime = TauLeapRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[49_000, 1_000]))
            .unwrap();
        for _ in 0..scenario.periods() {
            let events = runtime.step(&mut state).unwrap();
            assert_eq!(events.counts.iter().sum::<u64>(), 50_000);
        }
        assert!(
            runtime.snapshot(&state).counts[1] > 45_000,
            "epidemic should saturate"
        );
        assert!(state.leaps() > 0, "large populations should leap");
    }

    #[test]
    fn small_counts_fall_back_to_exact_steps() {
        // A 1-seed epidemic starts with an infected pool far below the
        // threshold: the early dynamics must be resolved by exact bursts.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(2_000, 60).unwrap().with_seed(17);
        let runtime = TauLeapRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[1_999, 1]))
            .unwrap();
        for _ in 0..scenario.periods() {
            runtime.step(&mut state).unwrap();
        }
        assert!(state.exact_steps() > 0, "seed regime needs exact steps");
        assert!(
            runtime.snapshot(&state).counts[1] > 1_500,
            "epidemic should still take off"
        );
    }

    #[test]
    fn fallback_runs_are_deterministic_per_seed() {
        let scenario = Scenario::new(2_000, 60).unwrap().with_seed(23);
        let initial = InitialStates::counts(&[1_999, 1]);
        let run = || {
            let runtime = TauLeapRuntime::new(epidemic_protocol());
            let mut state = runtime.init(&scenario, &initial).unwrap();
            for _ in 0..scenario.periods() {
                runtime.step(&mut state).unwrap();
            }
            (
                runtime.snapshot(&state).counts.to_vec(),
                state.exact_steps(),
                state.leaps(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epsilon_is_clamped_and_threaded_from_config() {
        let runtime = TauLeapRuntime::new(epidemic_protocol());
        assert_eq!(runtime.epsilon(), DEFAULT_TAU_EPSILON);
        assert_eq!(runtime.clone().with_epsilon(0.1).epsilon(), 0.1);
        assert_eq!(runtime.clone().with_epsilon(0.0).epsilon(), 1e-4);
        assert_eq!(runtime.clone().with_epsilon(f64::NAN).epsilon(), 0.03);
        let config = RunConfig {
            tau_epsilon: Some(0.2),
            ..RunConfig::default()
        };
        assert_eq!(
            TauLeapRuntime::build(epidemic_protocol(), &config).epsilon(),
            0.2
        );
    }

    #[test]
    fn tracks_ssa_at_large_populations() {
        // One seeded path each; the leaping path must land in the same
        // saturation regime as the exact path on the shared time grid.
        let protocol = epidemic_protocol();
        let n = 20_000u64;
        let scenario = Scenario::new(n as usize, 60).unwrap().with_seed(31);
        let initial = InitialStates::counts(&[n - 1_000, 1_000]);
        let tau = TauLeapRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        let ssa = SsaRuntime::new(protocol).run(&scenario, &initial).unwrap();
        let (yt, ys) = (
            tau.state_series("y").unwrap(),
            ssa.state_series("y").unwrap(),
        );
        let max_gap = yt
            .iter()
            .zip(&ys)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_gap < 0.1 * n as f64, "max gap {max_gap}");
    }

    #[test]
    fn rejects_incompatible_scenarios() {
        let runtime = TauLeapRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[99, 1]);
        let transported = Scenario::new(100, 10)
            .unwrap()
            .with_transport(netsim::TransportConfig::default())
            .unwrap();
        assert!(runtime.init(&transported, &initial).is_err());
        let sharded = Scenario::new(100, 10)
            .unwrap()
            .with_topology(netsim::Topology::sharded(4, 0.05).unwrap());
        assert!(runtime.init(&sharded, &initial).is_err());
    }
}

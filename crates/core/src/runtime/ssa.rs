//! The exact continuous-time stochastic protocol runtime (Gillespie SSA).
//!
//! The period-synchronized runtimes evaluate every firing probability
//! against **start-of-period** populations: within one period the dynamics
//! cannot compound, which is exactly the approximation the paper's analysis
//! makes and which grows visible as per-period rates grow (see the
//! `exp_ssa_burst` experiment). This runtime removes that approximation by
//! executing the protocol in **continuous virtual time**: every reaction
//! fires individually at an exponentially distributed instant, and the
//! populations every propensity sees are the populations *at that instant*.
//!
//! # The hazard embedding
//!
//! A synchronized action with per-period firing probability `q` is embedded
//! as a Poisson process with hazard `h(q) = −ln(1 − q)` per period (rate
//! `h(q) / period_secs` per second of virtual time): over one period with a
//! *frozen* environment the probability of at least one firing is
//! `1 − e^{−h(q)} = q`, so single-period marginals match the synchronized
//! tiers exactly. Where the tiers differ is precisely where they should:
//! competing actions race in continuous time (replacing the synchronized
//! tiers' survival accounting with competing risks — the shared
//! continuous-time limit both converge to as `q → 0`), and populations
//! update between events, so fast dynamics compound within a period.
//!
//! # Channels
//!
//! Each `(state, action)` pair becomes one reaction channel with propensity
//! `a` (per second) and a one-process effect, evaluated against the current
//! alive counts `x` over the maximal group of `n` processes:
//!
//! * **self-moving actions** (`Flip`, `Sample`, `SampleAny`):
//!   `a = x[s] · h(fire_probability) / T`, moving one process `s → to`;
//! * **`PushSample`**: each of the `x[s] · samples` per-period draws
//!   converts a target with probability `per_draw`, so
//!   `a = x[s] · samples · h(per_draw) / T`, moving one process
//!   `target → to` (self-gating: `h(0) = 0` when the target pool is empty);
//! * **`Tokenize`**: `a = x[s] · h(q) / T` gated on a non-empty token pool,
//!   moving one token `token_state → to`.
//!
//! # Scheduling
//!
//! Events are scheduled with Anderson's *modified next-reaction method*:
//! each channel keeps an internal clock `T_c` (integrated propensity) and a
//! unit-exponential threshold `P_c`; the next event is the channel
//! minimizing `(P_c − T_c) / a_c`, and only the firing channel consumes one
//! `Exp(1)` draw to refill its threshold. This keeps the run deterministic
//! per seed (a single PRNG stream, fixed channel order) and consumes no
//! randomness for events that do not fire.
//!
//! # Period boundaries
//!
//! The event clock runs *between* period boundaries. At each boundary the
//! runtime applies the scenario's exchangeable failure events and adversary
//! injections through the batched runtime's own hooks — the identical
//! count-level hypergeometric/binomial draws, in the identical order, so
//! injection times land on the period clock by construction — and reports
//! boundary counts. The trajectory is piecewise-constant between events, so
//! boundary counts are the *exact* interpolation of the continuous-time
//! path at the boundary instant: recorders binning by period see the same
//! figure bins as every other tier. Message tallies reuse the synchronized
//! tiers' expected-message accounting at start-of-period counts (messages
//! are an accounting fiction at count level, not queued deliveries).
//!
//! Cost is `O(events)` per period — proportional to `N` times the mean
//! per-period rate, *not* independent of `N` like the batched tier. Use it
//! when exactness is the point ([`ErrorBudget::Exact`](super::ErrorBudget)),
//! or [`TauLeapRuntime`](super::TauLeapRuntime) for a bounded-error middle
//! ground.

use super::batched::{BatchedRuntime, BatchedState};
use super::observer::default_observers;
use super::simulation::drive;
use super::{InitialStates, PeriodEvents, RunConfig, RunResult, Runtime};
use crate::action::Action;
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::Scenario;

/// Executes a protocol as an exact continuous-time jump process (Gillespie's
/// stochastic simulation algorithm in next-reaction form) — every reaction
/// fires individually at an exponentially distributed virtual time.
///
/// See the module-level documentation for the embedding and its relation to the
/// period-synchronized tiers.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{SsaRuntime, InitialStates}};
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// let scenario = Scenario::new(500, 60)?.with_seed(7);
/// let result = SsaRuntime::new(protocol)
///     .run(&scenario, &InitialStates::counts(&[499, 1]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 400.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SsaRuntime {
    batched: BatchedRuntime,
}

/// The mutable execution state of an [`SsaRuntime`] run: the shared
/// count-level state (counts, PRNG, injection point) plus the per-channel
/// next-reaction bookkeeping.
#[derive(Debug, Clone)]
pub struct SsaState {
    pub(super) inner: BatchedState,
    channels: Vec<Channel>,
    /// Internal clocks `T_c`: integrated propensity per channel.
    clocks: Vec<f64>,
    /// Unit-exponential thresholds `P_c`: each channel fires when its
    /// internal clock reaches its threshold.
    thresholds: Vec<f64>,
    /// Scratch: propensities of the current event iteration.
    propensities: Vec<f64>,
    /// Working copy of the alive counts while the event clock runs.
    x: Vec<u64>,
    transitions_dense: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    messages: u64,
}

/// The per-period hazard embedding a synchronized firing probability `q`:
/// a Poisson process with this hazard fires at least once per period with
/// probability exactly `q` (clamped near `q = 1` to keep the rate finite).
pub(super) fn hazard(q: f64) -> f64 {
    -(1.0 - q).max(1e-12).ln()
}

/// One reaction channel: an executor state, the compiled action driving the
/// channel's propensity, and the one-process effect `from → to` a firing
/// applies. Shared with the tau-leap runtime, which leaps over the same
/// channel set.
#[derive(Debug, Clone)]
pub(super) struct Channel {
    /// Executor state `s` (the propensity scales with `x[s]`).
    pub(super) state: usize,
    /// State a firing decrements.
    pub(super) from: usize,
    /// State a firing increments.
    pub(super) to: usize,
    action: Action,
    /// `hazard(prob)` of a `Flip` channel — a compile-time constant, so its
    /// `ln` is taken once at [`build_channels`], not per event. Zero (and
    /// unread) for every other action.
    flip_hazard: f64,
}

impl Channel {
    /// The channel's propensity (events per second of virtual time) against
    /// the current alive counts `x` over a maximal group of `n` processes.
    /// `contact_ok` is the per-contact success rate
    /// (`1 − LossConfig::effective_contact_failure(1)`), which both
    /// continuous runtimes hoist to once per period.
    pub(super) fn propensity(&self, x: &[u64], n: f64, contact_ok: f64, period_secs: f64) -> f64 {
        let k = x[self.state] as f64;
        if k == 0.0 {
            return 0.0;
        }
        match &self.action {
            Action::Flip { .. } => k * self.flip_hazard / period_secs,
            Action::PushSample {
                target_state,
                samples,
                prob,
                ..
            } => {
                let per_draw = (x[target_state.index()] as f64 / n) * prob * contact_ok;
                k * f64::from(*samples) * hazard(per_draw) / period_secs
            }
            Action::Tokenize { token_state, .. } => {
                if x[token_state.index()] == 0 {
                    return 0.0;
                }
                k * hazard(super::fire_probability(&self.action, x, n, contact_ok)) / period_secs
            }
            _ => k * hazard(super::fire_probability(&self.action, x, n, contact_ok)) / period_secs,
        }
    }

    /// Applies one firing: move one process `from → to` and tally the edge.
    /// Only called when the propensity is positive, which guarantees the
    /// decremented pool is non-empty.
    pub(super) fn apply(&self, x: &mut [u64], dense: &mut [u64], num_states: usize) {
        debug_assert!(x[self.from] > 0, "firing channel with an empty pool");
        x[self.from] -= 1;
        x[self.to] += 1;
        dense[self.from * num_states + self.to] += 1;
    }
}

/// Builds the channel list: one channel per `(state, action)` pair, in
/// state-then-action order (the order fixes the PRNG consumption sequence).
pub(super) fn build_channels(protocol: &Protocol) -> Vec<Channel> {
    let mut channels = Vec::new();
    for s in 0..protocol.num_states() {
        for action in protocol.actions(StateId::new(s)) {
            let (from, to) = match action {
                Action::Flip { to, .. }
                | Action::Sample { to, .. }
                | Action::SampleAny { to, .. } => (s, to.index()),
                Action::PushSample {
                    target_state, to, ..
                } => (target_state.index(), to.index()),
                Action::Tokenize {
                    token_state, to, ..
                } => (token_state.index(), to.index()),
            };
            let flip_hazard = match action {
                Action::Flip { prob, .. } => hazard(*prob),
                _ => 0.0,
            };
            channels.push(Channel {
                state: s,
                from,
                to,
                action: action.clone(),
                flip_hazard,
            });
        }
    }
    channels
}

/// The synchronized tiers' expected-message accounting evaluated at the
/// given counts: a process pays for an action only if no earlier self-moving
/// action in its state's list already moved it this period. Shared by the
/// continuous-time runtimes (message tallies are an accounting fiction at
/// count level, kept comparable across every tier).
pub(super) fn expected_messages(
    protocol: &Protocol,
    counts_alive: &[u64],
    n: f64,
    contact_ok: f64,
) -> f64 {
    let mut messages = 0.0f64;
    for (s, &k_s) in counts_alive.iter().enumerate() {
        if k_s == 0 {
            continue;
        }
        let mut survive = 1.0;
        for action in protocol.actions(StateId::new(s)) {
            messages += k_s as f64 * survive * f64::from(action.messages_per_period());
            if action.moves_self() {
                survive *= 1.0 - super::fire_probability(action, counts_alive, n, contact_ok);
            }
        }
    }
    messages
}

/// Validates a scenario for a continuous-time count-level runtime (shared
/// with the tau-leap runtime, which differs only in the name it reports).
pub(super) fn validate_continuous(scenario: &Scenario, runtime_name: &str) -> Result<()> {
    if !scenario.count_level_compatible() {
        return Err(CoreError::InvalidConfig {
            name: "scenario",
            reason: format!(
                "the {runtime_name} runtime models only exchangeable environments \
                 (massive failures, probabilistic failure models, losses); \
                 per-id failure schedules and churn traces need host identity \
                 — use AgentRuntime (or Simulation::run_auto, which picks the \
                 right fidelity automatically)"
            ),
        });
    }
    super::reject_sharded(scenario, runtime_name)?;
    super::reject_transport(scenario, runtime_name)?;
    Ok(())
}

impl SsaRuntime {
    /// Creates an SSA runtime with the default [`RunConfig`].
    pub fn new(protocol: Protocol) -> Self {
        SsaRuntime {
            batched: BatchedRuntime::new(protocol),
        }
    }

    /// Replaces the run configuration (rejoin semantics are applied by the
    /// shared boundary hooks exactly as in the batched runtime).
    #[must_use]
    pub fn with_config(self, config: RunConfig) -> Self {
        SsaRuntime {
            batched: self.batched.with_config(config),
        }
    }

    /// Runs the protocol under the given scenario and initial state
    /// distribution with the standard recording set (counts, transitions,
    /// alive counts, messages).
    ///
    /// # Errors
    ///
    /// Returns configuration errors (mismatched initial distribution,
    /// invalid protocol, a scenario that needs host identity) and propagates
    /// scenario errors.
    pub fn run(&self, scenario: &Scenario, initial: &InitialStates) -> Result<RunResult> {
        drive(self, scenario, initial, &mut default_observers())
    }

    fn events<'s>(&self, state: &'s SsaState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.inner.period(),
            counts: state.inner.total_counts(),
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.inner.alive_total(),
            counts_alive: Some(state.inner.alive_counts()),
            membership: None,
            shard_counts_alive: None,
            transport: None,
            injections: state.inner.injection_records(),
            virtual_time: Some(
                state
                    .inner
                    .scenario()
                    .clock()
                    .period_to_secs(state.inner.period()),
            ),
        }
    }
}

impl Runtime for SsaRuntime {
    type State = SsaState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        SsaRuntime {
            batched: BatchedRuntime::build(protocol, config),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.batched.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<SsaState> {
        let protocol = self.batched.protocol();
        protocol.validate()?;
        validate_continuous(scenario, "SSA")?;
        let num_states = protocol.num_states();
        let n = scenario.group_size() as u64;
        let counts = initial.resolve(num_states, n)?;
        let channels = build_channels(protocol);
        let mut inner = self.batched.state_from_counts(
            scenario,
            counts,
            vec![0; num_states],
            0,
            scenario.build_rng(),
        );
        // One Exp(1) threshold per channel, drawn in channel order from the
        // run's single PRNG stream.
        let thresholds: Vec<f64> = (0..channels.len())
            .map(|_| inner.rng_mut().exponential(1.0))
            .collect();
        Ok(SsaState {
            clocks: vec![0.0; channels.len()],
            propensities: vec![0.0; channels.len()],
            thresholds,
            channels,
            x: Vec::with_capacity(num_states),
            transitions_dense: vec![0; num_states * num_states],
            transitions: Vec::new(),
            messages: 0,
            inner,
        })
    }

    fn step<'s>(&self, state: &'s mut SsaState) -> Result<PeriodEvents<'s>> {
        let num_states = self.protocol().num_states();
        state.transitions_dense.fill(0);
        state.transitions.clear();

        // 1. Boundary hooks: the identical count-level failure/injection
        // draws as the batched tier, in the identical order.
        self.batched.apply_failures(&mut state.inner)?;
        self.batched.apply_injections(&mut state.inner)?;

        // 2. The event clock, from this boundary to the next.
        state.x.clear();
        state.x.extend_from_slice(state.inner.alive_counts());
        let n_f = state.inner.density_n();
        let contact_ok = 1.0 - state.inner.scenario().loss().effective_contact_failure(1);
        let period_secs = state.inner.scenario().clock().period_secs();
        let messages_f = expected_messages(self.protocol(), &state.x, n_f, contact_ok);

        let mut t = 0.0f64;
        loop {
            let mut total = 0.0;
            for c in 0..state.channels.len() {
                let a = state.channels[c].propensity(&state.x, n_f, contact_ok, period_secs);
                state.propensities[c] = a;
                total += a;
            }
            if total <= 0.0 {
                // Absorbing configuration: no internal time accrues.
                break;
            }
            // Next reaction: the channel whose threshold is reached first.
            let mut best = f64::INFINITY;
            let mut winner = usize::MAX;
            for c in 0..state.channels.len() {
                let a = state.propensities[c];
                if a <= 0.0 {
                    continue;
                }
                let wait = ((state.thresholds[c] - state.clocks[c]) / a).max(0.0);
                if wait < best {
                    best = wait;
                    winner = c;
                }
            }
            if winner == usize::MAX || t + best >= period_secs {
                // Advance every internal clock to the boundary and stop.
                let dt = period_secs - t;
                for c in 0..state.channels.len() {
                    state.clocks[c] += state.propensities[c] * dt;
                }
                break;
            }
            t += best;
            for c in 0..state.channels.len() {
                state.clocks[c] += state.propensities[c] * best;
            }
            state.channels[winner].apply(&mut state.x, &mut state.transitions_dense, num_states);
            // Only the firing channel consumes randomness.
            state.thresholds[winner] += state.inner.rng_mut().exponential(1.0);
        }

        // 3. Commit boundary counts back into the shared state.
        state.inner.rebase_alive(&state.x);
        debug_assert_eq!(
            state.inner.total_counts().iter().sum::<u64>(),
            state.inner.scenario().group_size() as u64,
            "an SSA period must conserve the population"
        );
        let next = state.inner.period() + 1;
        state.inner.set_period(next);
        super::render_sparse_transitions(
            &state.transitions_dense,
            num_states,
            &mut state.transitions,
        );
        state.messages = messages_f.round() as u64;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s SsaState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::fixtures::epidemic_protocol;
    use crate::runtime::{CountsRecorder, Observer, Simulation};
    use odekit::system::EquationSystemBuilder;

    fn decay_protocol() -> Protocol {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", 1.0, &[("x", 1)])
            .build()
            .unwrap();
        // A non-trivial per-period probability (q = 0.3): with the default
        // constant the Flip would fire with q = 1, a degenerate marginal.
        ProtocolCompiler::new("decay")
            .with_normalizing_constant(0.3)
            .compile(&sys)
            .unwrap()
    }

    #[test]
    fn epidemic_saturates_and_conserves_counts() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(500, 120).unwrap().with_seed(11);
        let runtime = SsaRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[495, 5]))
            .unwrap();
        for _ in 0..scenario.periods() {
            let events = runtime.step(&mut state).unwrap();
            assert_eq!(events.counts.iter().sum::<u64>(), 500);
            assert_eq!(events.alive, 500);
        }
        let events = runtime.snapshot(&state);
        assert!(
            events.counts[1] > 450,
            "epidemic should saturate, got {:?}",
            events.counts
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let scenario = Scenario::new(300, 60).unwrap().with_seed(99);
        let initial = InitialStates::counts(&[295, 5]);
        let run = || {
            SsaRuntime::new(epidemic_protocol())
                .run(&scenario, &initial)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.state_series("y").unwrap(), b.state_series("y").unwrap());
        assert_eq!(
            a.metrics.series("messages").unwrap(),
            b.metrics.series("messages").unwrap()
        );
        // A different seed produces a different path.
        let c = SsaRuntime::new(epidemic_protocol())
            .run(&scenario.clone().with_seed(100), &initial)
            .unwrap();
        assert_ne!(a.state_series("y").unwrap(), c.state_series("y").unwrap());
    }

    #[test]
    fn single_period_flip_marginal_is_exact() {
        // A Flip with per-period probability q embeds as hazard −ln(1−q):
        // over one period the per-process firing probability is exactly q,
        // so the one-period mean matches the synchronized tiers' binomial.
        let protocol = decay_protocol();
        let q = match protocol.actions(StateId::new(0))[0] {
            Action::Flip { prob, .. } => prob,
            ref other => panic!("expected Flip, got {other:?}"),
        };
        let n = 40_000u64;
        let scenario = Scenario::new(n as usize, 1).unwrap().with_seed(5);
        let result = SsaRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[n, 0]))
            .unwrap();
        let moved = result.final_counts().unwrap()[1];
        let expected = q * n as f64;
        let sd = (n as f64 * q * (1.0 - q)).sqrt();
        assert!(
            (moved - expected).abs() < 5.0 * sd,
            "moved {moved}, expected {expected:.0} ± {sd:.1}"
        );
    }

    #[test]
    fn virtual_time_lands_on_period_boundaries() {
        struct TimeProbe(Vec<f64>);
        impl Observer for TimeProbe {
            fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
                self.0.push(events.virtual_time.expect("continuous tier"));
            }
            fn finish(&mut self, _result: &mut RunResult) {}
        }
        let scenario = Scenario::new(100, 3).unwrap().with_seed(1);
        let runtime = SsaRuntime::new(epidemic_protocol());
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[99, 1]))
            .unwrap();
        let mut probe = TimeProbe(Vec::new());
        probe.on_period(runtime.protocol(), &runtime.snapshot(&state));
        for _ in 0..3 {
            probe.on_period(runtime.protocol(), &runtime.step(&mut state).unwrap());
        }
        let secs = scenario.clock().period_secs();
        assert_eq!(probe.0, vec![0.0, secs, 2.0 * secs, 3.0 * secs]);
    }

    #[test]
    fn boundary_failures_apply_like_batched() {
        let scenario = Scenario::new(1_000, 30)
            .unwrap()
            .with_massive_failure(10, 0.5)
            .unwrap()
            .with_seed(3);
        let result = SsaRuntime::new(epidemic_protocol())
            .run(&scenario, &InitialStates::counts(&[999, 1]))
            .unwrap();
        let alive = result.metrics.series("alive").unwrap();
        assert_eq!(alive.last().unwrap().1, 500.0);
    }

    #[test]
    fn rejects_incompatible_scenarios() {
        let runtime = SsaRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[99, 1]);
        let sharded = Scenario::new(100, 10)
            .unwrap()
            .with_topology(netsim::Topology::sharded(4, 0.05).unwrap());
        assert!(runtime.init(&sharded, &initial).is_err());
        let transported = Scenario::new(100, 10)
            .unwrap()
            .with_transport(netsim::TransportConfig::default())
            .unwrap();
        assert!(runtime.init(&transported, &initial).is_err());
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(5, netsim::FailureEvent::Crash(netsim::ProcessId(3)));
        let per_id = Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap();
        assert!(runtime.init(&per_id, &initial).is_err());
    }

    #[test]
    fn sample_epidemic_tracks_batched_closely_at_slow_rates() {
        // With a small normalizing constant the per-period rates are slow,
        // so the synchronized and continuous-time dynamics agree (the
        // within-period compounding gap is O(q²) per period): one seeded SSA
        // path stays close to the batched path all the way through takeoff.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.05)
            .compile(&sys)
            .unwrap();
        let n = 10_000u64;
        let scenario = Scenario::new(n as usize, 250).unwrap().with_seed(21);
        let initial = InitialStates::counts(&[n - 100, 100]);
        let ssa = SsaRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        let batched = BatchedRuntime::new(protocol)
            .run(&scenario, &initial)
            .unwrap();
        let (ya, yb) = (
            ssa.state_series("y").unwrap(),
            batched.state_series("y").unwrap(),
        );
        let max_gap = ya
            .iter()
            .zip(&yb)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Single paths, so allow generous noise — but they must share the
        // same takeoff (a compounding bug would shift it by many periods).
        assert!(max_gap < 0.15 * n as f64, "max gap {max_gap}");
    }

    #[test]
    fn observer_plumbing_matches_other_tiers() {
        let scenario = Scenario::new(200, 20).unwrap().with_seed(2);
        let result = Simulation::of(epidemic_protocol())
            .scenario(scenario)
            .initial(InitialStates::counts(&[199, 1]))
            .observe(CountsRecorder::new())
            .run::<SsaRuntime>()
            .unwrap();
        assert_eq!(result.counts.len(), 21);
        let total: f64 = result.final_counts().unwrap().iter().sum();
        assert_eq!(total, 200.0);
    }
}

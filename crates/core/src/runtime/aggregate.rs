//! The count-based (aggregate) protocol runtime.

use super::observer::default_observers;
use super::simulation::drive_periods;
use super::{InitialStates, PeriodEvents, RunConfig, RunResult, Runtime};
use crate::action::Action;
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::stochastic::{binomial, multinomial};
use netsim::{LossConfig, Rng, Scenario};

/// Executes a protocol tracking only the number of processes in each state.
///
/// Each period, for every state and in action order, the runtime computes the
/// per-process probability of each transition from the **start-of-period
/// counts** and draws the number of movers from the corresponding
/// binomial/multinomial distribution; all transitions are applied at the end
/// of the period (a synchronous-update approximation of the asynchronous
/// agent runtime). The approximation error vanishes as the per-period
/// transition probabilities shrink, and tests verify that agent and aggregate
/// runs agree within sampling noise on the paper's parameter settings.
///
/// Because processes are exchangeable in the paper's protocols, this runtime
/// is distribution-equivalent to the agent runtime for everything that only
/// depends on counts — at a cost of O(states × actions) per period instead of
/// O(N), which is what makes the large parameter sweeps (N = 100 000, tens of
/// thousands of periods, many repetitions) cheap.
///
/// Failure and churn events are not modelled here (they need host identity);
/// use [`AgentRuntime`](super::AgentRuntime) for those scenarios. A constant
/// message-loss configuration *is* supported — when driven through the
/// [`Runtime`](super::Runtime) trait the scenario's loss configuration is
/// used unless [`with_loss`](Self::with_loss) overrides it — as is an alive
/// fraction below 1.0 (contacts aimed at the dead fraction are fruitless).
#[derive(Debug, Clone)]
pub struct AggregateRuntime {
    protocol: Protocol,
    loss: Option<LossConfig>,
    alive_fraction: f64,
}

/// The mutable execution state of an [`AggregateRuntime`] run: per-state
/// counts, the PRNG and the current period's event buffers.
#[derive(Debug, Clone)]
pub struct AggregateState {
    n_f: f64,
    alive_n: u64,
    counts: Vec<u64>,
    rng: Rng,
    loss: LossConfig,
    period: u64,
    transitions_dense: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    messages: u64,
}

impl AggregateState {
    /// The next period to execute (also the number of periods executed).
    pub fn period(&self) -> u64 {
        self.period
    }
}

impl AggregateRuntime {
    /// Creates an aggregate runtime with a fully alive group. The network is
    /// reliable unless a scenario drives the run and specifies losses.
    pub fn new(protocol: Protocol) -> Self {
        AggregateRuntime {
            protocol,
            loss: None,
            alive_fraction: 1.0,
        }
    }

    /// Sets the message/connection loss configuration (overriding the
    /// scenario's, if any).
    #[must_use]
    pub fn with_loss(mut self, loss: LossConfig) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Sets the fraction of the maximal membership that is alive (contacts
    /// aimed at dead members fail). Counts are interpreted as alive processes.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < alive_fraction ≤ 1`.
    pub fn with_alive_fraction(mut self, alive_fraction: f64) -> Result<Self> {
        if !(alive_fraction.is_finite() && alive_fraction > 0.0 && alive_fraction <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "alive_fraction",
                reason: format!("must lie in (0, 1], got {alive_fraction}"),
            });
        }
        self.alive_fraction = alive_fraction;
        Ok(self)
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// Runs the protocol for `periods` periods on a maximal group of `n`
    /// processes with the given initial distribution and PRNG seed, recording
    /// the standard set (counts, transitions, alive counts, messages).
    ///
    /// For opt-in recording or scenario-driven runs use
    /// [`Simulation`](super::Simulation).
    ///
    /// # Errors
    ///
    /// Returns configuration errors (mismatched initial distribution, invalid
    /// protocol).
    pub fn run(
        &self,
        n: u64,
        periods: u64,
        initial: &InitialStates,
        seed: u64,
    ) -> Result<RunResult> {
        let loss = self.loss.unwrap_or_else(LossConfig::reliable);
        let mut state = self.init_raw(n, initial, seed, loss)?;
        drive_periods(self, &mut state, periods, &mut default_observers())
    }

    /// Builds the start-of-run state without a scenario.
    fn init_raw(
        &self,
        n: u64,
        initial: &InitialStates,
        seed: u64,
        loss: LossConfig,
    ) -> Result<AggregateState> {
        self.protocol.validate()?;
        let num_states = self.protocol.num_states();
        let alive_n = (n as f64 * self.alive_fraction).round() as u64;
        let counts = initial.resolve(num_states, alive_n)?;
        Ok(AggregateState {
            n_f: n as f64,
            alive_n,
            counts,
            rng: Rng::seed_from(seed),
            loss,
            period: 0,
            transitions_dense: vec![0; num_states * num_states],
            transitions: Vec::new(),
            messages: 0,
        })
    }

    fn events<'s>(&self, state: &'s AggregateState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.period,
            counts: &state.counts,
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.alive_n,
            counts_alive: None,
            membership: None,
            shard_counts_alive: None,
            transport: None,
            injections: &[],
            virtual_time: None,
        }
    }
}

impl Runtime for AggregateRuntime {
    type State = AggregateState;

    fn build(protocol: Protocol, _config: &RunConfig) -> Self {
        // The rejoin rule needs host identity and is a no-op here: the
        // aggregate runtime does not model failure events.
        AggregateRuntime::new(protocol)
    }

    fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<AggregateState> {
        // Failure and churn need host identity; silently dropping them would
        // make a fidelity swap produce wrong results, so reject loudly.
        if !scenario.failure_schedule().is_empty()
            || !scenario.churn_events().is_empty()
            || scenario.failure_model().crash_prob() > 0.0
            || scenario.failure_model().recover_prob() > 0.0
            || scenario.adversary().is_some()
        {
            return Err(CoreError::InvalidConfig {
                name: "scenario",
                reason: "the aggregate runtime does not model failures, churn \
                         or adversaries; \
                         use AgentRuntime for this scenario (or with_alive_fraction \
                         for a constant dead fraction)"
                    .into(),
            });
        }
        super::reject_sharded(scenario, "aggregate")?;
        super::reject_transport(scenario, "aggregate")?;
        let loss = self.loss.unwrap_or(*scenario.loss());
        self.init_raw(scenario.group_size() as u64, initial, scenario.seed(), loss)
    }

    fn step<'s>(&self, state: &'s mut AggregateState) -> Result<PeriodEvents<'s>> {
        let num_states = self.protocol.num_states();
        let period = state.period;
        let n_f = state.n_f;
        state.transitions_dense.fill(0);
        state.transitions.clear();
        state.messages = 0;

        let contact_ok = 1.0 - state.loss.effective_contact_failure(1);
        let start: Vec<u64> = state.counts.clone();
        let mut delta = vec![0i64; num_states];
        // Expected messages, matching the agent runtime's accounting: a
        // process pays for an action only if it has not already moved on an
        // earlier action this period (including the action that moves it).
        let mut messages_f = 0.0f64;

        for (s, &k_s) in start.iter().enumerate() {
            if k_s == 0 {
                continue;
            }
            let actions = self.protocol.actions(StateId::new(s));
            if actions.is_empty() {
                continue;
            }
            // Per-process probabilities of each *self-moving* outcome, in
            // action order; push/token actions affect other states and are
            // handled separately below.
            let mut outcome_probs: Vec<(usize, f64)> = Vec::new(); // (dest, prob)
            let mut survive = 1.0; // probability of not having moved yet
            for action in actions {
                messages_f += k_s as f64 * survive * f64::from(action.messages_per_period());
                let fire = super::fire_probability(action, &start, n_f, contact_ok);
                match action {
                    Action::Flip { to, .. }
                    | Action::Sample { to, .. }
                    | Action::SampleAny { to, .. } => {
                        outcome_probs.push((to.index(), survive * fire));
                        survive *= 1.0 - fire;
                    }
                    Action::PushSample {
                        target_state,
                        samples,
                        prob,
                        to,
                    } => {
                        // Executors do not move themselves, but only those no
                        // earlier self-moving action already moved reach this
                        // action — fold `survive` into the per-draw
                        // probability. Each surviving executor's samples
                        // convert alive members of target_state.
                        let per_draw = (start[target_state.index()] as f64 / n_f)
                            * prob
                            * contact_ok
                            * survive;
                        let draws = k_s.saturating_mul(u64::from(*samples));
                        let converted = binomial(&mut state.rng, draws, per_draw)
                            .min(start[target_state.index()]);
                        if converted > 0 {
                            delta[target_state.index()] -= converted as i64;
                            delta[to.index()] += converted as i64;
                            state.transitions_dense
                                [target_state.index() * num_states + to.index()] += converted;
                        }
                    }
                    Action::Tokenize {
                        token_state, to, ..
                    } => {
                        // Only executors that have not moved on an earlier
                        // action reach this one (probability `survive`).
                        let fired = binomial(&mut state.rng, k_s, survive * fire);
                        let consumed = fired.min(start[token_state.index()]);
                        if consumed > 0 {
                            delta[token_state.index()] -= consumed as i64;
                            delta[to.index()] += consumed as i64;
                            state.transitions_dense
                                [token_state.index() * num_states + to.index()] += consumed;
                        }
                    }
                }
            }

            if !outcome_probs.is_empty() {
                // Multinomial draw over (outcome_1, ..., outcome_m, stay).
                let mut weights: Vec<f64> = outcome_probs.iter().map(|(_, p)| *p).collect();
                let stay = (1.0 - weights.iter().sum::<f64>()).max(0.0);
                weights.push(stay);
                let draws = multinomial(&mut state.rng, k_s, &weights);
                for ((dest, _), &moved) in outcome_probs.iter().zip(&draws) {
                    if moved > 0 {
                        delta[s] -= moved as i64;
                        delta[*dest] += moved as i64;
                        state.transitions_dense[s * num_states + dest] += moved;
                    }
                }
            }
        }

        // Apply the deltas with saturation (clamping can only be triggered
        // by the push/token approximations racing each other in the same
        // period, which is statistically negligible).
        for (c, d) in state.counts.iter_mut().zip(&delta) {
            let new = *c as i64 + d;
            *c = new.max(0) as u64;
        }
        debug_assert_eq!(
            state.counts.iter().sum::<u64>(),
            state.alive_n,
            "an aggregate period must conserve the population"
        );

        super::render_sparse_transitions(
            &state.transitions_dense,
            num_states,
            &mut state.transitions,
        );

        state.messages = messages_f.round() as u64;
        state.period = period + 1;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s AggregateState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::fixtures::epidemic_protocol;
    use crate::runtime::AgentRuntime;
    use netsim::Scenario;
    use odekit::system::EquationSystemBuilder;

    // Endemic system with β=2, γ=0.1, α=0.01: a comfortable equilibrium
    // (y* ≈ 8.6 % of the group) far from the stochastic-extinction regime.
    const BETA: f64 = 2.0;
    const GAMMA: f64 = 0.1;
    const ALPHA: f64 = 0.01;

    fn endemic_protocol() -> Protocol {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -BETA, &[("x", 1), ("y", 1)])
            .term("x", ALPHA, &[("z", 1)])
            .term("y", BETA, &[("x", 1), ("y", 1)])
            .term("y", -GAMMA, &[("y", 1)])
            .term("z", GAMMA, &[("y", 1)])
            .term("z", -ALPHA, &[("z", 1)])
            .build()
            .unwrap();
        ProtocolCompiler::new("endemic").compile(&sys).unwrap()
    }

    /// Endemic equilibrium counts for a group of `n` alive processes under an
    /// effective infection rate `beta_eff` (eq. 2 of the paper, in fractions).
    fn endemic_equilibrium_counts(n: u64, beta_eff: f64) -> Vec<u64> {
        let x = GAMMA / beta_eff;
        let y = (1.0 - x) / (1.0 + GAMMA / ALPHA);
        let xc = (x * n as f64).round() as u64;
        let yc = (y * n as f64).round() as u64;
        let zc = n - xc - yc;
        vec![xc, yc, zc]
    }

    #[test]
    fn counts_are_conserved_without_push_or_token_actions() {
        let runtime = AggregateRuntime::new(epidemic_protocol());
        let result = runtime
            .run(10_000, 50, &InitialStates::counts(&[9_999, 1]), 1)
            .unwrap();
        for (_, s) in result.counts.iter() {
            assert_eq!(s.iter().sum::<f64>(), 10_000.0);
        }
        assert!(
            result.final_counts().unwrap()[1] > 9_900.0,
            "epidemic saturates"
        );
        // The aggregate runtime now reports message counts too: one sampling
        // message per susceptible process per period.
        assert!(result
            .metrics
            .series("messages")
            .unwrap()
            .iter()
            .any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn aggregate_and_agent_runtimes_agree_statistically() {
        // Same protocol, same horizon; the time-averaged receptive count over
        // a late window must agree within sampling noise (both runtimes
        // estimate the same ODE trajectory).
        let protocol = endemic_protocol();
        let n = 10_000u64;
        let periods = 800u64;
        // Start at the analytical equilibrium, as the paper's Figure 5 does.
        let initial = InitialStates::counts(&endemic_equilibrium_counts(n, BETA));

        let agg = AggregateRuntime::new(protocol.clone())
            .run(n, periods, &initial, 42)
            .unwrap();

        let scenario = Scenario::new(n as usize, periods).unwrap().with_seed(42);
        let agent = AgentRuntime::new(protocol)
            .run(&scenario, &initial)
            .unwrap();

        let window_mean = |result: &RunResult| {
            let xs = result.state_series("x").unwrap();
            let tail = &xs[400..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let agg_x = window_mean(&agg);
        let agent_x = window_mean(&agent);
        let rel = (agg_x - agent_x).abs() / agent_x.max(1.0);
        assert!(rel < 0.2, "aggregate {agg_x} vs agent {agent_x}");
    }

    #[test]
    fn alive_fraction_halves_effective_contact_rate() {
        // With only half the group alive, contacts succeed half as often, so
        // the receptive equilibrium *fraction* (γ/β_eff) doubles while the
        // receptive *count* stays put (the paper's explanation of Figure 5).
        // Both runs start at their respective analytical equilibria.
        let protocol = endemic_protocol();
        let full = AggregateRuntime::new(protocol.clone())
            .run(
                50_000,
                2_000,
                &InitialStates::counts(&endemic_equilibrium_counts(50_000, BETA)),
                7,
            )
            .unwrap();
        let half = AggregateRuntime::new(protocol)
            .with_alive_fraction(0.5)
            .unwrap()
            .run(
                50_000,
                2_000,
                &InitialStates::counts(&endemic_equilibrium_counts(25_000, BETA * 0.5)),
                7,
            )
            .unwrap();
        let mean_x = |r: &RunResult| {
            let xs = r.state_series("x").unwrap();
            xs[1_000..].iter().sum::<f64>() / (xs.len() - 1_000) as f64
        };
        let full_x = mean_x(&full);
        let half_x = mean_x(&half);
        let ratio = half_x / full_x;
        assert!(
            (0.8..1.2).contains(&ratio),
            "x_half/x_full = {ratio} (expected ≈ 1: same count, double fraction)"
        );
        assert!(AggregateRuntime::new(epidemic_protocol())
            .with_alive_fraction(0.0)
            .is_err());
    }

    #[test]
    fn push_actions_convert_targets() {
        // A protocol with only a push action: state a pushes members of b into c.
        let mut protocol = Protocol::new("push", vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let a = protocol.require_state("a").unwrap();
        let b = protocol.require_state("b").unwrap();
        let c = protocol.require_state("c").unwrap();
        protocol
            .add_action(
                a,
                Action::PushSample {
                    target_state: b,
                    samples: 2,
                    prob: 1.0,
                    to: c,
                },
            )
            .unwrap();
        let result = AggregateRuntime::new(protocol)
            .run(1_000, 30, &InitialStates::counts(&[500, 500, 0]), 3)
            .unwrap();
        let last = result.final_counts().unwrap();
        assert_eq!(last.iter().sum::<f64>(), 1_000.0);
        assert_eq!(last[0], 500.0, "pushers never move");
        assert!(
            last[1] < 50.0,
            "almost all b processes get converted, got {}",
            last[1]
        );
        assert!(result.total_transitions("b", "c") > 400.0);
    }

    #[test]
    fn token_actions_move_third_parties() {
        // x' = -0.5y, y' = +0.5y compiles to a Tokenize hosted by y moving x's.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -0.5, &[("y", 1)])
            .term("y", 0.5, &[("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("token").compile(&sys).unwrap();
        let result = AggregateRuntime::new(protocol)
            .run(10_000, 200, &InitialStates::counts(&[5_000, 5_000]), 11)
            .unwrap();
        // All x processes eventually get tokenized into y.
        let last = result.final_counts().unwrap();
        assert!(last[0] < 100.0);
        assert_eq!(last.iter().sum::<f64>(), 10_000.0);
    }

    #[test]
    fn initial_distribution_validation() {
        let runtime = AggregateRuntime::new(epidemic_protocol());
        assert!(runtime
            .run(100, 5, &InitialStates::counts(&[50, 49]), 0)
            .is_err());
        assert!(runtime
            .run(100, 5, &InitialStates::counts(&[50, 50, 0]), 0)
            .is_err());
    }

    #[test]
    fn message_loss_slows_convergence() {
        let protocol = epidemic_protocol();
        let reliable = AggregateRuntime::new(protocol.clone())
            .run(100_000, 12, &InitialStates::counts(&[99_999, 1]), 5)
            .unwrap();
        let lossy = AggregateRuntime::new(protocol)
            .with_loss(LossConfig::new(0.5, 0.2).unwrap())
            .run(100_000, 12, &InitialStates::counts(&[99_999, 1]), 5)
            .unwrap();
        assert!(reliable.final_counts().unwrap()[1] > lossy.final_counts().unwrap()[1]);
    }

    #[test]
    fn failure_and_churn_scenarios_are_rejected() {
        // Silently ignoring failure events would make a fidelity swap
        // produce wrong results, so init refuses such scenarios.
        let runtime = AggregateRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[99, 1]);
        let with_failure = Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(5, 0.5)
            .unwrap();
        assert!(matches!(
            runtime.init(&with_failure, &initial),
            Err(CoreError::InvalidConfig {
                name: "scenario",
                ..
            })
        ));
        let with_model = Scenario::new(100, 10)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.01, 0.0).unwrap());
        assert!(runtime.init(&with_model, &initial).is_err());
        assert!(runtime
            .init(&Scenario::new(100, 10).unwrap(), &initial)
            .is_ok());
    }

    #[test]
    fn scenario_driven_runs_take_loss_from_the_scenario() {
        // Driving the aggregate runtime through the Runtime trait picks up
        // group size, seed and losses from the scenario.
        let protocol = epidemic_protocol();
        let runtime = AggregateRuntime::new(protocol);
        let initial = InitialStates::counts(&[99_999, 1]);
        let reliable = Scenario::new(100_000, 12).unwrap().with_seed(5);
        let lossy = Scenario::new(100_000, 12)
            .unwrap()
            .with_seed(5)
            .with_loss(LossConfig::new(0.5, 0.2).unwrap());

        let run = |scenario: &Scenario| {
            let mut state = runtime.init(scenario, &initial).unwrap();
            for _ in 0..scenario.periods() {
                runtime.step(&mut state).unwrap();
            }
            state.counts[1]
        };
        assert!(run(&reliable) > run(&lossy));
    }
}

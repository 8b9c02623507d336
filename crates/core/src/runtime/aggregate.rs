//! The count-based (aggregate) protocol runtime.

use super::plan::{PlanAction, ProtocolPlan};
use super::{InitialStates, Needs, PeriodEvents, RunConfig, RunResult, Runtime};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::{LossConfig, Rng, Scenario};

/// Executes a protocol tracking only the number of processes in each state.
///
/// Each period, for every state and in action order, the runtime computes the
/// per-process probability of each transition from the **start-of-period
/// counts** and draws the number of movers from the corresponding
/// binomial/multinomial distribution — one multinomial cell per self-moving
/// action — and all transitions are applied at the end of the period (a
/// synchronous-update approximation of the asynchronous agent runtime).
/// Push/token conversions are drawn in action order and land after every
/// state's self-move draw, on members of their target state that did not
/// move themselves, so the population is conserved exactly (the
/// [`BatchedRuntime`](super::BatchedRuntime) rule). The approximation error
/// vanishes as the per-period
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
    plan: ProtocolPlan,
    loss: Option<LossConfig>,
    alive_fraction: f64,
}

/// The mutable execution state of an [`AggregateRuntime`] run: per-state
/// counts, the PRNG, the current period's event buffers and reusable
/// scratch, so the per-period step allocates nothing.
#[derive(Debug, Clone)]
pub struct AggregateState {
    n_f: f64,
    alive_n: u64,
    counts: Vec<u64>,
    rng: Rng,
    loss: LossConfig,
    period: u64,
    /// Per plan edge: the processes that crossed it this period.
    tallies: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    messages: u64,
    // Scratch buffers reused every period.
    start: Vec<u64>,
    /// Per state: the start-of-period members that have not left it yet.
    stayed: Vec<u64>,
    /// Per conversion row: the conversions its push/token action drew.
    pending: Vec<u64>,
    weights: Vec<f64>,
    draws: Vec<u64>,
}

impl AggregateState {}

impl AggregateRuntime {
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

    /// Runs the protocol for `periods` periods on a maximal group of `n`
    /// processes with the given initial distribution and PRNG seed, recording
    /// the standard set (counts, transitions, alive counts, messages).
    ///
    /// It is the run of the failure-free `Scenario::new(n, periods)` at
    /// `seed`; for opt-in recording or scenario-driven runs use
    /// [`Simulation`](super::Simulation).
    ///
    /// # Errors
    ///
    /// Returns configuration errors (mismatched initial distribution, invalid
    /// protocol, `n` or `periods` zero).
    pub fn run(
        &self,
        n: u64,
        periods: u64,
        initial: &InitialStates,
        seed: u64,
    ) -> Result<RunResult> {
        let scenario = Scenario::new(n as usize, periods)?.with_seed(seed);
        Runtime::run(self, &scenario, initial)
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

    /// A fully alive group; the network is the scenario's unless
    /// [`with_loss`](AggregateRuntime::with_loss) overrides it.
    fn build(protocol: Protocol, _config: &RunConfig) -> Self {
        // The rejoin rule needs host identity and is a no-op here: the
        // aggregate runtime does not model failure events.
        AggregateRuntime {
            plan: ProtocolPlan::new(protocol),
            loss: None,
            alive_fraction: 1.0,
        }
    }

    fn protocol(&self) -> &Protocol {
        self.plan.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<AggregateState> {
        // The aggregate runtime has no environment: silently dropping one
        // (failures, churn, a partial hour-0 availability, an adversary)
        // would make a fidelity swap produce wrong results, so reject loudly
        // (with_alive_fraction models a constant dead fraction).
        self.plan.protocol().validate()?;
        Needs::of(scenario).check(super::AGGREGATE)?;
        let n = scenario.group_size() as u64;
        let num_states = self.plan.num_states();
        let alive_n = (n as f64 * self.alive_fraction).round() as u64;
        let counts = initial.resolve(num_states, alive_n)?;
        Ok(AggregateState {
            n_f: n as f64,
            alive_n,
            counts,
            rng: Rng::seed_from(scenario.seed()),
            loss: self.loss.unwrap_or(*scenario.loss()),
            period: 0,
            tallies: vec![0; self.plan.edges.len()],
            transitions: Vec::new(),
            messages: 0,
            start: vec![0; num_states],
            stayed: vec![0; num_states],
            pending: vec![0; self.plan.conversion_edges.len()],
            weights: Vec::new(),
            draws: Vec::new(),
        })
    }

    fn step<'s>(&self, state: &'s mut AggregateState) -> Result<PeriodEvents<'s>> {
        let plan = &self.plan;
        let n_f = state.n_f;
        let contact_ok = 1.0 - state.loss.effective_contact_failure(1);
        let AggregateState {
            ref mut rng,
            ref mut counts,
            ref mut tallies,
            ref mut start,
            ref mut stayed,
            ref mut pending,
            ref mut weights,
            ref mut draws,
            ..
        } = *state;
        start.copy_from_slice(counts);
        stayed.copy_from_slice(counts);
        tallies.fill(0);
        pending.fill(0);
        // Expected messages, matching the agent runtime's accounting: a
        // process pays for an action only if it has not already moved on an
        // earlier action this period (including the action that moves it).
        let mut messages_f = 0.0f64;

        for (s, &k_s) in start.iter().enumerate() {
            if k_s == 0 {
                continue;
            }
            // Per-process probabilities of each *self-moving* outcome, in
            // action order; push/token actions affect other states and fill
            // their conversion rows instead.
            weights.clear();
            let mut survive = 1.0; // probability of not having moved yet
            for a in plan.range(s) {
                messages_f += k_s as f64 * survive * f64::from(plan.messages[a]);
                let fire = plan.fire_probability(a, |s| start[s], n_f, contact_ok);
                let row = plan.draw_slots[a] as usize;
                match plan.actions[a] {
                    PlanAction::Flip { .. }
                    | PlanAction::Sample { .. }
                    | PlanAction::SampleAny { .. } => {
                        weights.push(survive * fire);
                        survive *= 1.0 - fire;
                    }
                    PlanAction::PushSample {
                        target,
                        samples,
                        prob,
                        ..
                    } => {
                        // Executors do not move themselves, but only those no
                        // earlier self-moving action already moved reach this
                        // action — fold `survive` into the per-draw
                        // probability. Each surviving executor's samples
                        // convert alive members of the target state.
                        let per_draw =
                            (start[target as usize] as f64 / n_f) * prob * contact_ok * survive;
                        let trials = k_s.saturating_mul(u64::from(samples));
                        pending[row] = rng.binomial(trials, per_draw);
                    }
                    // Only executors that have not moved on an earlier
                    // action reach this one (probability `survive`).
                    PlanAction::Tokenize { .. } => {
                        pending[row] = rng.binomial(k_s, survive * fire);
                    }
                }
            }

            if !weights.is_empty() {
                // Multinomial draw over (outcome_1, ..., outcome_m, stay).
                let stay = (1.0 - weights.iter().sum::<f64>()).max(0.0);
                weights.push(stay);
                draws.resize(weights.len(), 0);
                rng.multinomial_into(k_s, weights, draws);
                let movers = plan.range(s).filter(|&a| plan.actions[a].moves_self());
                let mut left = 0;
                for (a, &moved) in movers.zip(&*draws) {
                    tallies[plan.moves[a].slot as usize] += moved;
                    left += moved;
                }
                stayed[s] = k_s - left;
            }
        }

        // Conversions land after every self-move draw, on members that
        // stayed; then everything moves along its edge.
        plan.land_conversions(pending, stayed, tallies, 1);
        plan.move_along_edges(tallies, counts, 1);
        debug_assert_eq!(
            counts.iter().sum::<u64>(),
            state.alive_n,
            "an aggregate period must conserve the population"
        );

        plan.render_transitions(&state.tallies, 1, &mut state.transitions);
        state.messages = messages_f.round() as u64;
        state.period += 1;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s AggregateState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::fixtures::epidemic_protocol;
    use crate::mapping::ProtocolCompiler;
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
    fn conversions_land_only_on_processes_that_stayed() {
        // Every b flips to c on its own, and the pushers aim at b as well:
        // a conversion capped at the start-of-period b count took the b's a
        // second time (a period read [500, 0, 985]). Conversions land on the
        // members of b that did not move themselves — none here.
        let mut protocol = Protocol::new("push", vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let [a, b, c] = [0, 1, 2].map(StateId::new);
        protocol
            .add_action(b, Action::Flip { prob: 1.0, to: c })
            .unwrap();
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
        let runtime = AggregateRuntime::new(protocol);
        let scenario = Scenario::new(1_000, 1).unwrap().with_seed(3);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[500, 500, 0]))
            .unwrap();
        let events = runtime.step(&mut state).unwrap();
        assert_eq!(events.counts, &[500, 0, 500]);
        assert_eq!(events.transitions, &[(b, c, 500)]);
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
    fn hour_zero_downtime_of_a_churn_trace_is_rejected() {
        // Host 1 is down for the whole trace: it spreads to no churn events,
        // so only the trace's hour-0 availability says so. Running it as
        // alive would be the silent drop the rejection exists to prevent.
        let trace = netsim::ChurnTrace::from_availability(vec![vec![true, false, true]; 4]);
        let mut rng = netsim::Rng::seed_from(1);
        let scenario = Scenario::new(3, 10)
            .unwrap()
            .with_churn_trace(&trace.unwrap(), &mut rng)
            .unwrap();
        assert!(scenario.churn_events().is_empty());
        let runtime = AggregateRuntime::new(epidemic_protocol());
        assert!(matches!(
            runtime.init(&scenario, &InitialStates::counts(&[2, 1])),
            Err(CoreError::InvalidConfig {
                name: "scenario",
                ..
            })
        ));
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

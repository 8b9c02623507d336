//! The hybrid fidelity runtime: count-batched while counts are large, exact
//! per-process when any state runs small.

use super::environment::Environment;
use super::plan::PlanAction;
use super::{
    AgentRuntime, AgentState, BatchedRuntime, BatchedState, InitialStates, Needs, PeriodEvents,
    RunConfig, Runtime,
};
use crate::state_machine::Protocol;
use crate::Result;
use netsim::Scenario;

/// Per-state alive-count threshold below which the hybrid runtime runs at
/// membership fidelity: [`netsim::stochastic::NORMAL_APPROX_CUTOFF`], not a
/// sampler limit (see [`HybridRuntime`], "Why").
pub const SMALL_COUNT_THRESHOLD: u64 = netsim::stochastic::NORMAL_APPROX_CUTOFF as u64;

/// Executes a protocol at the fastest fidelity that is trustworthy for the
/// *current* population: periods advance on the count-batched
/// [`BatchedRuntime`] while every per-state alive count is at or above
/// [`SMALL_COUNT_THRESHOLD`] (= 30, the normal-approximation cutoff of
/// `netsim`'s samplers), and hand their exact counts to the per-process
/// [`AgentRuntime`] whenever any count falls below it — switching back once
/// every count recovers.
///
/// # Why
///
/// Below the normal-approximation cutoff every binomial, hypergeometric and
/// Poisson draw of the batched runtime walks its exact inverse CDF; what
/// differs at small counts is the update: the batched runtime reads
/// start-of-period counts, the agent runtime sweeps its processes in id
/// order within a period. The phenomena that make small counts interesting
/// (LV majority tie-breaking, post-massive-failure recovery, endemic
/// extinction) live where some state's count is *small*, where per-process
/// execution is also cheap; the hybrid runtime pays for it only in the
/// periods that need it.
///
/// # The handoff keeps the counts exactly (exchangeability)
///
/// * **counts → membership.** Every count-level-compatible environment and
///   every compiled protocol treats processes exchangeably, so conditioned
///   on the per-state (alive, crashed) counts, the process-level
///   configuration is uniform over all assignments realizing those counts.
///   The handoff draws one such assignment uniformly at random (a joint
///   shuffle of the `(state, crashed)` labels over ids) holding exactly the
///   handed-off counts. The periods after it run under the agent runtime's
///   id-order sweep, not the batched runtime's synchronous law.
/// * **membership → counts.** The reverse direction is a projection: the
///   batched state *is* the per-state count vector, which the agent state
///   maintains incrementally anyway. Nothing is sampled; determinism per
///   seed is preserved across both directions.
///
/// Fidelity decisions are made at period boundaries on start-of-period
/// counts, so a failure event that empties a state is executed by the active
/// fidelity and triggers the handoff on the next period. Upgrades back to
/// count level use a hysteresis band (every count must reach **twice** the
/// threshold) so a count hovering at the boundary does not ping-pong the
/// run between fidelities every period.
///
/// **Permanently empty states are exempt.** The thresholds apply only to
/// states that can ever hold processes again, computed as a fixpoint over
/// the protocol's action graph: a state is *live* if it currently holds any
/// process (alive or crashed), is the rejoin target while anyone is
/// crashed, or is the destination of an action whose executor state and
/// sampled prerequisites are all live. A state outside the fixpoint — the
/// susceptible pool after an epidemic absorbs, the loser after an LV race
/// resolves — is pinned at an exact zero that count-level arithmetic
/// represents perfectly, so the long post-absorption tail upgrades back to
/// the batched engine instead of sweeping N processes forever.
///
/// # Observer stream
///
/// Observers see one coherent [`PeriodEvents`] stream across switches:
/// `period` keeps counting, `counts` are total per-state populations and
/// `counts_alive` the alive-only ones in both modes, and transition tallies
/// carry the same semantics. Two fields are fidelity-dependent:
/// [`PeriodEvents::membership`] is `Some` only during membership segments
/// (which is why [`Simulation::run_auto`](super::Simulation::run_auto) never
/// picks the hybrid tier for membership-needing observers), and `messages`
/// switches between the agent runtime's exact tally and the batched
/// runtime's expectation.
///
/// Scenarios that name specific processes (per-id failure schedules, churn
/// traces) force membership fidelity for the whole run — the hybrid runtime
/// accepts them but never batches, exactly like running [`AgentRuntime`]
/// directly.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{HybridRuntime, InitialStates, Runtime}};
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// // One initial infective at N = 100 000: the run starts at membership
/// // fidelity (y = 1 is far below the threshold), upgrades to count level
/// // once the epidemic takes off, downgrades for the susceptibles'
/// // extinction window, and batches the absorbed tail.
/// let scenario = Scenario::new(100_000, 40)?.with_seed(7);
/// let result = HybridRuntime::new(protocol)
///     .run(&scenario, &InitialStates::counts(&[99_999, 1]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 99_000.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridRuntime {
    agent: AgentRuntime,
    batched: BatchedRuntime,
}

/// Which fidelity a [`HybridState`] is currently executing at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridFidelity {
    /// Count-batched: per-state count vectors, cost independent of N.
    CountLevel,
    /// Per-process: explicit membership, exact small-count dynamics.
    Membership,
}

/// The mutable execution state of a [`HybridRuntime`] run: the active
/// fidelity's state plus handoff bookkeeping.
#[derive(Debug, Clone)]
pub struct HybridState {
    scenario: Scenario,
    mode: Mode,
    /// `true` when the scenario needs host identity throughout (per-id
    /// schedules, churn traces): the run never upgrades to count level.
    locked_membership: bool,
    /// Scratch for the per-period liveness fixpoint (states that can ever
    /// hold processes again).
    live: Vec<bool>,
    to_membership: u64,
    to_count_level: u64,
}

#[derive(Debug, Clone)]
enum Mode {
    // Both states are large (scratch buffers, scenario clones); boxing keeps
    // the enum small and handoffs are rare.
    Batched(Box<BatchedState>),
    Agent(Box<AgentState>),
}

impl Mode {
    /// The run's environment, which outlives every fidelity switch.
    fn env(&mut self) -> &mut Environment {
        match self {
            Mode::Batched(b) => &mut b.env,
            Mode::Agent(a) => &mut a.env,
        }
    }
}

impl HybridState {
    /// The fidelity the next period will start from.
    pub fn fidelity(&self) -> HybridFidelity {
        match &self.mode {
            Mode::Batched(_) => HybridFidelity::CountLevel,
            Mode::Agent(_) => HybridFidelity::Membership,
        }
    }

    /// Handoffs performed so far, as `(to_membership, to_count_level)` —
    /// both are non-zero in runs that cross the boundary in both directions.
    pub fn handoffs(&self) -> (u64, u64) {
        (self.to_membership, self.to_count_level)
    }
}

impl HybridRuntime {
    /// Marks which states can ever hold processes again given the current
    /// occupancy: the fixpoint of "currently occupied (alive or crashed), or
    /// the rejoin target while anyone is crashed, or the destination of an
    /// action whose executor state and sampled prerequisites are all
    /// marked". States outside the fixpoint are permanently empty — their
    /// zero count is exact at count level, so [`needs_membership`] and
    /// [`can_batch`] ignore them (an absorbed epidemic must not pin the rest
    /// of the run at membership fidelity).
    ///
    /// [`needs_membership`]: Self::needs_membership
    /// [`can_batch`]: Self::can_batch
    fn mark_live(&self, counts_alive: &[u64], counts_total: &[u64], live: &mut [bool]) {
        for (mark, &total) in live.iter_mut().zip(counts_total) {
            *mark = total > 0;
        }
        if let Some(rejoin) = self.batched.config().rejoin_state {
            let crashed_exist = counts_total.iter().sum::<u64>() > counts_alive.iter().sum::<u64>();
            if crashed_exist {
                live[rejoin.index()] = true;
            }
        }
        let plan = self.batched.plan();
        let all_live = |live: &[bool], start: u32, end: u32| {
            (plan.required[start as usize..end as usize].iter()).all(|&r| live[r as usize])
        };
        loop {
            let mut changed = false;
            for s in 0..live.len() {
                if !live[s] {
                    continue;
                }
                for a in plan.range(s) {
                    // A push or token moves members of its edge's source,
                    // which must be live too.
                    let (from, dest) = plan.edge(a);
                    let possible = live[from]
                        && match plan.actions[a] {
                            PlanAction::Sample {
                                req_start, req_end, ..
                            }
                            | PlanAction::Tokenize {
                                req_start, req_end, ..
                            } => all_live(live, req_start, req_end),
                            PlanAction::SampleAny { target, .. } => live[target as usize],
                            PlanAction::Flip { .. } | PlanAction::PushSample { .. } => true,
                        };
                    if possible && !live[dest] {
                        live[dest] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// `true` if any live state's alive count is below the threshold —
    /// membership fidelity is required.
    fn needs_membership(&self, counts_alive: &[u64], live: &[bool]) -> bool {
        counts_alive
            .iter()
            .zip(live)
            .any(|(&k, &l)| l && k < SMALL_COUNT_THRESHOLD)
    }

    /// `true` if every live state's alive count allows an upgrade back to
    /// count level (hysteresis: twice the threshold).
    fn can_batch(&self, counts_alive: &[u64], live: &[bool]) -> bool {
        let floor = 2 * SMALL_COUNT_THRESHOLD;
        counts_alive
            .iter()
            .zip(live)
            .all(|(&k, &l)| !l || k >= floor)
    }

    /// Performs a handoff if the start-of-period counts demand one.
    fn rebalance(&self, state: &mut HybridState) {
        if state.locked_membership {
            return;
        }
        let HybridState {
            ref scenario,
            ref mode,
            ref mut live,
            ..
        } = *state;
        let switched = match mode {
            Mode::Batched(b) => {
                self.mark_live(&b.counts_alive, &b.counts, live);
                self.needs_membership(&b.counts_alive, live).then(|| {
                    Mode::Agent(Box::new(self.agent.state_from_counts(
                        scenario,
                        &b.counts_alive,
                        &b.counts_crashed,
                        b.period,
                        b.rng.clone(),
                    )))
                })
            }
            Mode::Agent(a) => {
                self.mark_live(a.alive_counts(), a.total_counts(), live);
                self.can_batch(a.alive_counts(), live).then(|| {
                    // Crashed processes remember their state.
                    let totals = a.total_counts().iter().zip(a.alive_counts());
                    Mode::Batched(Box::new(self.batched.state_from_counts(
                        scenario,
                        a.alive_counts().to_vec(),
                        totals.map(|(total, alive)| total - alive).collect(),
                        a.period(),
                        a.rng.clone(),
                    )))
                })
            }
        };
        if let Some(mut mode) = switched {
            // The environment moves across the switch whole: the adversary's
            // strategy state, decision stream and log carry on.
            *mode.env() = std::mem::take(state.mode.env());
            match mode {
                Mode::Agent(_) => state.to_membership += 1,
                Mode::Batched(_) => state.to_count_level += 1,
            }
            state.mode = mode;
        }
    }
}

impl Runtime for HybridRuntime {
    type State = HybridState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        HybridRuntime {
            agent: AgentRuntime::build(protocol.clone(), config),
            batched: BatchedRuntime::build(protocol, config),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.agent.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<HybridState> {
        let needs = Needs::of(scenario);
        needs.check(super::HYBRID)?;
        let locked_membership = needs.has(Needs::HOST_IDENTITY);
        let counts = initial.resolve(self.protocol().num_states(), scenario.group_size() as u64)?;
        let mut live = vec![false; counts.len()];
        self.mark_live(&counts, &counts, &mut live);
        let mode = if locked_membership || self.needs_membership(&counts, &live) {
            Mode::Agent(Box::new(self.agent.init(scenario, initial)?))
        } else {
            Mode::Batched(Box::new(self.batched.init(scenario, initial)?))
        };
        Ok(HybridState {
            scenario: scenario.clone(),
            mode,
            locked_membership,
            live,
            to_membership: 0,
            to_count_level: 0,
        })
    }

    fn step<'s>(&self, state: &'s mut HybridState) -> Result<PeriodEvents<'s>> {
        self.rebalance(state);
        match &mut state.mode {
            Mode::Batched(b) => self.batched.step(b),
            Mode::Agent(a) => self.agent.step(a),
        }
    }

    fn snapshot<'s>(&self, state: &'s HybridState) -> PeriodEvents<'s> {
        match &state.mode {
            Mode::Batched(b) => self.batched.snapshot(b),
            Mode::Agent(a) => self.agent.snapshot(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::epidemic_protocol;
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::{CountsRecorder, Ensemble, Simulation};
    use odekit::system::EquationSystemBuilder;

    #[test]
    fn crosses_the_handoff_in_both_directions() {
        // One infective at N = 50 000: membership (y = 1) → count level
        // (both populations large) → membership again (x goes extinct).
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(50_000, 40).unwrap().with_seed(5);
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[49_999, 1]))
            .unwrap();
        assert_eq!(state.fidelity(), HybridFidelity::Membership);
        let mut fidelities = Vec::new();
        for _ in 0..scenario.periods() {
            runtime.step(&mut state).unwrap();
            fidelities.push(state.fidelity());
        }
        let (to_membership, to_count_level) = state.handoffs();
        assert!(
            to_count_level >= 1 && to_membership >= 1,
            "expected both handoff directions, got {to_membership} to membership, \
             {to_count_level} to count level (fidelities {fidelities:?})"
        );
        // The epidemic still saturates across the switches.
        let events = runtime.snapshot(&state);
        assert!(events.counts[1] > 49_000);
        assert_eq!(events.counts[0] + events.counts[1], 50_000);
    }

    #[test]
    fn fixed_seed_is_deterministic_across_handoffs() {
        let protocol = epidemic_protocol();
        // Crosses the boundary in both directions (see above), so the
        // determinism claim covers the handoff machinery itself.
        let scenario = Scenario::new(20_000, 60).unwrap().with_seed(11);
        let initial = InitialStates::counts(&[19_999, 1]);
        let build = || {
            Simulation::of(protocol.clone())
                .scenario(scenario.clone())
                .initial(initial.clone())
                .record_defaults()
                .run::<HybridRuntime>()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        // A different seed produces a different trajectory.
        let c = Simulation::of(protocol)
            .scenario(scenario.with_seed(12))
            .initial(initial)
            .record_defaults()
            .run::<HybridRuntime>()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn large_counts_stay_at_count_level() {
        // An inert protocol keeps both populations fixed and large: the run
        // must never leave count level.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(100_000, 30).unwrap().with_seed(3);
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[50_000, 50_000]))
            .unwrap();
        assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
        for _ in 0..30 {
            runtime.step(&mut state).unwrap();
            assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
        }
        assert_eq!(state.handoffs(), (0, 0));
    }

    #[test]
    fn absorbed_states_release_the_run_back_to_count_level() {
        // After the epidemic absorbs (susceptibles extinct), x can never
        // refill — the only edge into x is the identity and the only edge
        // out of y does not exist. Its pinned zero is exact at count level,
        // so the tail upgrades back to the batched engine instead of
        // sweeping all N processes every remaining period.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(50_000, 80).unwrap().with_seed(5);
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[49_999, 1]))
            .unwrap();
        for _ in 0..80 {
            runtime.step(&mut state).unwrap();
        }
        let events = runtime.snapshot(&state);
        assert_eq!(events.counts[0], 0, "epidemic absorbed");
        assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
        let (to_membership, to_count_level) = state.handoffs();
        assert!(
            to_membership >= 1 && to_count_level >= 2,
            "expected membership start, batched middle, membership extinction \
             window, batched tail; got {to_membership} to membership, \
             {to_count_level} to count level"
        );
    }

    #[test]
    fn structurally_dead_states_never_force_membership() {
        // y starts empty and the only infection route samples y itself, so
        // y can never fire: its zero is exact and the run stays batched.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(10_000, 20).unwrap().with_seed(6);
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[10_000, 0]))
            .unwrap();
        for _ in 0..20 {
            runtime.step(&mut state).unwrap();
            assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
        }
        assert_eq!(runtime.snapshot(&state).counts, &[10_000, 0]);
    }

    #[test]
    fn identity_scenarios_lock_membership_fidelity() {
        let protocol = epidemic_protocol();
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(2, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
        let scenario = Scenario::new(5_000, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap()
            .with_seed(2);
        let runtime = HybridRuntime::new(epidemic_protocol());
        // Counts are large, but the per-id schedule forces membership.
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[2_500, 2_500]))
            .unwrap();
        assert_eq!(state.fidelity(), HybridFidelity::Membership);
        for _ in 0..10 {
            runtime.step(&mut state).unwrap();
            assert_eq!(state.fidelity(), HybridFidelity::Membership);
        }
        let events = runtime.snapshot(&state);
        assert_eq!(events.alive, 4_999, "the scheduled crash was applied");
        assert_eq!(protocol.num_states(), runtime.protocol().num_states());
    }

    #[test]
    fn massive_failure_can_trigger_the_downgrade() {
        // A 99.9 % massive failure drops every state below the threshold:
        // the next period must run at membership fidelity.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(20_000, 10)
            .unwrap()
            .with_massive_failure(4, 0.999)
            .unwrap()
            .with_seed(9);
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[10_000, 10_000]))
            .unwrap();
        for _ in 0..6 {
            runtime.step(&mut state).unwrap();
        }
        // The failure executed during period 4; period 5's rebalance saw the
        // depleted alive counts and dropped to membership fidelity.
        assert_eq!(state.fidelity(), HybridFidelity::Membership);
        let events = runtime.snapshot(&state);
        assert_eq!(events.alive, 20);
        // Totals (alive + crashed, remembering their states) still conserve.
        assert_eq!(events.counts.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn ensemble_mean_matches_agent_under_massive_failure() {
        // Same regime as the batched-vs-agent test: ensemble means of hybrid
        // and agent track each other through a 50 % massive failure, with the
        // hybrid run crossing fidelities around it.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 20_000usize;
        let scenario = Scenario::new(n, 100)
            .unwrap()
            .with_massive_failure(60, 0.5)
            .unwrap();
        let ensemble = Ensemble::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[n as u64 - 200, 200]))
            .seed_range(300..308)
            .count_alive_only();
        let agent = ensemble.run::<AgentRuntime>().unwrap();
        let hybrid = ensemble.run::<HybridRuntime>().unwrap();
        let a = agent.mean_series("y").unwrap();
        let h = hybrid.mean_series("y").unwrap();
        for (period, (ya, yh)) in a.iter().zip(&h).enumerate() {
            assert!(
                (ya - yh).abs() < n as f64 * 0.15,
                "period {period}: agent {ya} vs hybrid {yh}"
            );
        }
        assert!(a[59] > n as f64 * 0.95 && h[59] > n as f64 * 0.95);
        assert!(a[65] < n as f64 * 0.55 && h[65] < n as f64 * 0.55);
    }

    #[test]
    fn rejoin_config_applies_at_both_fidelities() {
        // Inert protocol, crash/recovery model, rejoin into y: recoveries
        // convert x's to y's regardless of which fidelity executes them.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let y = protocol.require_state("y").unwrap();
        let scenario = Scenario::new(10_000, 200)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.05, 0.2).unwrap())
            .with_seed(4);
        let runtime = HybridRuntime::build(protocol, &RunConfig::rejoining_to(y));
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[10_000, 0]))
            .unwrap();
        for _ in 0..200 {
            runtime.step(&mut state).unwrap();
        }
        let events = runtime.snapshot(&state);
        assert_eq!(events.counts.iter().sum::<u64>(), 10_000);
        assert!(events.counts[1] > 9_000, "y = {}", events.counts[1]);
    }

    #[test]
    fn adversary_strategy_state_survives_the_handoff() {
        // A single-strike adversary fires at count level and knocks the
        // leading state below the fidelity threshold, forcing a downgrade to
        // membership. If the handoff installed a fresh strategy fork instead
        // of transferring the live injection point, the "spent" strike
        // counter would reset and the adversary would strike again.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(10_000, 10)
            .unwrap()
            .with_seed(21)
            .with_adversary(
                netsim::adversary::TargetLargestState::new(0.59765625, 2, 1, 1).unwrap(),
            );
        let runtime = HybridRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[6_000, 4_000]))
            .unwrap();
        assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
        for _ in 0..10 {
            runtime.step(&mut state).unwrap();
        }
        // The strike (~5976 of x's 6000) dropped x below the threshold.
        assert_eq!(state.fidelity(), HybridFidelity::Membership);
        assert_eq!(state.handoffs(), (1, 0));
        let events = runtime.snapshot(&state);
        // y was never struck: one strike total, budget spent on x. A reset
        // strike counter would have taken ~2400 more victims from y.
        assert_eq!(events.counts_alive.unwrap()[1], 4_000);
        assert!(
            events.alive > 4_000 && events.alive < 4_030,
            "alive = {}",
            events.alive
        );
    }

    #[test]
    fn simulation_drives_the_hybrid_runtime_via_the_trait() {
        let result = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(30_000, 40).unwrap().with_seed(8))
            .initial(InitialStates::counts(&[29_999, 1]))
            .observe(CountsRecorder::new())
            .run::<HybridRuntime>()
            .unwrap();
        // One count snapshot per period including period 0, conserved counts.
        assert_eq!(result.counts.len(), 41);
        for (_, s) in result.counts.iter() {
            assert_eq!(s.iter().sum::<f64>(), 30_000.0);
        }
        assert!(result.final_counts().unwrap()[1] > 29_000.0);
    }
}

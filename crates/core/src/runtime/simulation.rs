//! The drivers' shared core — the run spec both [`Simulation`] and
//! [`Ensemble`](super::Ensemble) hold, its one tier → runtime dispatch, and
//! the one step loop — plus the one-run [`Simulation`] itself.

use super::observer::default_observers;
use super::{
    AgentRuntime, AsyncRuntime, BatchedRuntime, ErrorBudget, FidelityTier, HybridRuntime,
    InitialStates, Needs, Observer, RunConfig, RunResult, RunStatus, Runtime, ShardedRuntime,
    SsaRuntime, TauLeapRuntime, SMALL_COUNT_THRESHOLD,
};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::{Scenario, Topology};
use std::borrow::Cow;

/// What both drivers are built from: the protocol, the scenario and its
/// topology override, the initial distribution, the run configuration and
/// the error budget. The spec resolves the scenario and initial
/// distribution to run, decides the tier, and builds the tier's runtime.
#[derive(Debug, Clone)]
pub(crate) struct RunSpec {
    /// The driver's name, for the errors about a missing input.
    driver: &'static str,
    pub(crate) protocol: Protocol,
    pub(crate) scenario: Option<Scenario>,
    pub(crate) topology: Option<Topology>,
    pub(crate) initial: Option<InitialStates>,
    pub(crate) config: RunConfig,
    pub(crate) budget: ErrorBudget,
}

impl RunSpec {
    pub(crate) fn new(driver: &'static str, protocol: Protocol) -> Self {
        RunSpec {
            driver,
            protocol,
            scenario: None,
            topology: None,
            initial: None,
            config: RunConfig::default(),
            budget: ErrorBudget::default(),
        }
    }

    /// The error for an input that was not set.
    pub(crate) fn missing(&self, input: &'static str) -> CoreError {
        CoreError::InvalidConfig {
            name: input,
            reason: format!("{}::{input} was not set", self.driver),
        }
    }

    /// `scenario` under the topology override, if one is set.
    pub(crate) fn with_topology(&self, scenario: Scenario) -> Scenario {
        match self.topology {
            Some(topology) => scenario.with_topology(topology),
            None => scenario,
        }
    }

    /// The scenario to run: the one set, under the topology override.
    pub(crate) fn scenario(&self) -> Result<Cow<'_, Scenario>> {
        let scenario = self
            .scenario
            .as_ref()
            .ok_or_else(|| self.missing("scenario"))?;
        Ok(match self.topology {
            Some(_) => Cow::Owned(self.with_topology(scenario.clone())),
            None => Cow::Borrowed(scenario),
        })
    }

    /// The initial distribution to run from.
    pub(crate) fn initial(&self) -> Result<&InitialStates> {
        self.initial.as_ref().ok_or_else(|| self.missing("initial"))
    }

    /// The tier the automatic selection runs on, by the policy documented
    /// on [`FidelityTier`]: the scenario's needs (plus host identity if an
    /// observer needs membership) in their order, then the budget, then the
    /// initial counts.
    pub(crate) fn tier(&self, needs_membership: bool) -> FidelityTier {
        let scenario = self.scenario().ok();
        let mut needs = scenario.as_deref().map_or(Needs::NONE, Needs::of);
        if needs_membership {
            needs = needs.or(Needs::HOST_IDENTITY);
        }
        if needs.has(Needs::LINK_MODELS) {
            return FidelityTier::Async;
        }
        if needs.has(Needs::SHARDING) {
            return FidelityTier::Sharded;
        }
        if needs.has(Needs::HOST_IDENTITY) {
            return FidelityTier::Agent;
        }
        match self.budget {
            ErrorBudget::Exact => return FidelityTier::Ssa,
            ErrorBudget::Bounded(_) => return FidelityTier::TauLeap,
            ErrorBudget::Fast => {}
        }
        let small_start = match (scenario, &self.initial) {
            (Some(sc), Some(init)) => init
                .resolve(self.protocol.num_states(), sc.group_size() as u64)
                .is_ok_and(|counts| counts.iter().any(|&k| k < SMALL_COUNT_THRESHOLD)),
            _ => false,
        };
        if small_start {
            FidelityTier::Hybrid
        } else {
            FidelityTier::Batched
        }
    }
}

/// The setters of the [`RunSpec`] inputs, the same on both drivers.
macro_rules! run_spec_setters {
    () => {
        /// Sets the environment (group size, horizon, failures, churn,
        /// losses, seed). Every run of an ensemble clones it and overrides
        /// the seed.
        #[must_use]
        pub fn scenario(mut self, scenario: Scenario) -> Self {
            self.spec.scenario = Some(scenario);
            self
        }

        /// Sets the population topology, overriding the scenario's own
        /// (whether the scenario is set before or after this call). A sharded
        /// topology makes [`run_auto`](Self::run_auto) select the
        /// [`ShardedRuntime`](super::ShardedRuntime) tier; an explicit
        /// [`Topology::WellMixed`] forces the single-group tiers even if the
        /// scenario was built sharded.
        #[must_use]
        pub fn topology(mut self, topology: Topology) -> Self {
            self.spec.topology = Some(topology);
            self
        }

        /// Sets the initial state distribution (shared by every run of an
        /// ensemble).
        #[must_use]
        pub fn initial(mut self, initial: InitialStates) -> Self {
            self.spec.initial = Some(initial);
            self
        }

        /// Sets the state recovering processes rejoin into (see
        /// [`RunConfig::rejoin_state`]).
        #[must_use]
        pub fn rejoin_state(mut self, state: StateId) -> Self {
            self.spec.config.rejoin_state = Some(state);
            self
        }

        /// Replaces the whole run configuration.
        #[must_use]
        pub fn config(mut self, config: RunConfig) -> Self {
            self.spec.config = config;
            self
        }

        /// Sets the [`ErrorBudget`] arbitrating which fidelity
        /// [`run_auto`](Self::run_auto) selects among the count-level tiers:
        /// [`ErrorBudget::Exact`] runs exact continuous-time sampling,
        /// [`ErrorBudget::Bounded`] runs tau-leaping at the given per-leap
        /// bound, and the default [`ErrorBudget::Fast`] keeps the historical
        /// count-threshold policy bit-for-bit. Scenario features that require
        /// a specific runtime (transport, sharding, host identity) still
        /// dominate.
        #[must_use]
        pub fn error_budget(mut self, budget: ErrorBudget) -> Self {
            self.spec.budget = budget;
            self
        }
    };
}
pub(crate) use run_spec_setters;

/// A run generic over its runtime, as a driver executes it on the runtime
/// [`dispatch`] builds for a tier.
pub(crate) trait OnTier {
    type Output;

    /// The spec the runtime is built from.
    fn spec(&self) -> &RunSpec;

    /// Executes the run on `runtime`.
    fn run<R: Runtime>(self, runtime: R) -> Self::Output;
}

/// Builds the runtime `tier` names from the spec's protocol and
/// configuration, and executes `on` on it. An [`ErrorBudget::Bounded`]
/// budget's `ε` is threaded into the tau-leap tier's configuration.
pub(crate) fn dispatch<T: OnTier>(on: T, tier: FidelityTier) -> T::Output {
    let spec = on.spec();
    let protocol = spec.protocol.clone();
    let mut config = spec.config.clone();
    if let (FidelityTier::TauLeap, ErrorBudget::Bounded(epsilon)) = (tier, spec.budget) {
        config.tau_epsilon = Some(epsilon);
    }
    match tier {
        FidelityTier::Batched => on.run(BatchedRuntime::build(protocol, &config)),
        FidelityTier::Hybrid => on.run(HybridRuntime::build(protocol, &config)),
        FidelityTier::Agent => on.run(AgentRuntime::build(protocol, &config)),
        FidelityTier::Sharded => on.run(ShardedRuntime::build(protocol, &config)),
        FidelityTier::Async => on.run(AsyncRuntime::build(protocol, &config)),
        FidelityTier::Ssa => on.run(SsaRuntime::build(protocol, &config)),
        FidelityTier::TauLeap => on.run(TauLeapRuntime::build(protocol, &config)),
    }
}

/// A wall-clock budget for a single run.
///
/// When the budget runs out before the scenario's horizon, the run stops
/// early and degrades to a *partial* [`RunResult`]: everything the observers
/// recorded up to that point is returned, with
/// [`RunStatus::Interrupted`] making the truncation explicit. Interrupted
/// results never masquerade as completed runs — check
/// [`RunResult::status`] (or [`RunStatus::is_completed`]) before comparing
/// trajectories across runs.
///
/// The budget bounds real elapsed time, checked at every period boundary:
/// however wedged the medium underneath gets (a dead socket, a
/// pathological observer), the run returns within roughly one period of
/// the limit instead of hanging a CI job. The completed-period count then
/// depends on machine speed, so deadlined trajectories are *not*
/// replayable prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDeadline {
    wall: std::time::Duration,
}

impl RunDeadline {
    /// A deadline allowing at most `limit` of real elapsed time.
    pub fn wall_clock(limit: std::time::Duration) -> Self {
        RunDeadline { wall: limit }
    }
}

/// Builder for a single simulation run.
///
/// A `Simulation` bundles everything one run needs — the compiled protocol,
/// the [`Scenario`] (environment), the initial state distribution, the shared
/// [`RunConfig`] and the set of [`Observer`]s — and then executes it on any
/// [`Runtime`] implementation. Recording is opt-in: only the attached
/// observers do work, and a run with no observers attaches the standard set
/// (counts, transitions, alive counts, messages) so `run` always returns a
/// usable [`RunResult`].
///
/// # Examples
///
/// ```
/// use dpde_core::runtime::{AgentRuntime, CountsRecorder, InitialStates, Simulation};
/// use dpde_core::ProtocolCompiler;
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// let result = Simulation::of(protocol)
///     .scenario(Scenario::new(1_000, 30)?.with_seed(7))
///     .initial(InitialStates::counts(&[999, 1]))
///     .observe(CountsRecorder::new())
///     .run::<AgentRuntime>()?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 990.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulation {
    spec: RunSpec,
    observers: Vec<Box<dyn Observer>>,
    deadline: Option<RunDeadline>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("protocol", &self.spec.protocol.name())
            .field("scenario", &self.spec.scenario)
            .field("initial", &self.spec.initial)
            .field("config", &self.spec.config)
            .field("budget", &self.spec.budget)
            .field("observers", &self.observers.len())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl Simulation {
    /// Starts a simulation of the given protocol.
    pub fn of(protocol: Protocol) -> Self {
        Simulation {
            spec: RunSpec::new("Simulation", protocol),
            observers: Vec::new(),
            deadline: None,
        }
    }

    run_spec_setters!();

    /// Caps the run's wall-clock time (see [`RunDeadline`]). A run that
    /// exhausts the budget returns a partial [`RunResult`] with
    /// [`RunStatus::Interrupted`].
    #[must_use]
    pub fn deadline(mut self, deadline: RunDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an observer. Observers run in attachment order on every
    /// period.
    #[must_use]
    pub fn observe(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attaches the standard recording set (counts of every process,
    /// transitions, alive counts, messages) in addition to whatever is
    /// already attached.
    #[must_use]
    pub fn record_defaults(mut self) -> Self {
        self.observers.extend(default_observers());
        self
    }

    /// Builds a runtime of type `R` from the protocol and configuration, and
    /// executes the run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the scenario or initial
    /// distribution is missing, plus anything the runtime reports.
    pub fn run<R: Runtime>(self) -> Result<RunResult> {
        let runtime = R::build(self.spec.protocol.clone(), &self.spec.config);
        self.execute(&runtime)
    }

    /// The fidelity tier [`run_auto`](Self::run_auto) would execute this
    /// simulation on, given the current scenario, initial distribution and
    /// observers (see [`FidelityTier`] for the policy).
    pub fn selected_tier(&self) -> FidelityTier {
        (self.spec).tier(self.observers.iter().any(|o| o.needs_membership()))
    }

    /// Executes the run on the fastest fidelity that can serve it
    /// ([`selected_tier`](Self::selected_tier)), chosen by the
    /// [`FidelityTier`] policy; an [`ErrorBudget::Bounded`] budget's `ε` is
    /// threaded into the tau-leap runtime automatically.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_auto(self) -> Result<RunResult> {
        let tier = self.selected_tier();
        dispatch(self, tier)
    }

    /// Executes the run on a pre-built runtime, which keeps whatever
    /// runtime-specific knobs it was built with (such as
    /// [`TauLeapRuntime::with_epsilon`]).
    ///
    /// The runtime's protocol and configuration are used for execution: the
    /// runtime's protocol should match the one the simulation was built
    /// with, and a [`RunConfig`] set through this builder would be silently
    /// ignored — so combining builder-level configuration (e.g.
    /// [`rejoin_state`](Self::rejoin_state)) with `run_on` is rejected;
    /// configure the runtime directly instead.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run), plus [`CoreError::InvalidConfig`] if a
    /// non-default [`RunConfig`] was set on the builder.
    pub fn run_on<R: Runtime>(self, runtime: &R) -> Result<RunResult> {
        if self.spec.config != RunConfig::default() {
            return Err(CoreError::InvalidConfig {
                name: "config",
                reason: "run_on uses the pre-built runtime's configuration; \
                         set RunConfig on the runtime itself (or use run::<R>())"
                    .into(),
            });
        }
        self.execute(runtime)
    }

    fn execute<R: Runtime>(mut self, runtime: &R) -> Result<RunResult> {
        let scenario = self.spec.scenario()?;
        let initial = self.spec.initial()?;
        if self.observers.is_empty() {
            self.observers = default_observers();
        }
        drive(
            runtime,
            &scenario,
            initial,
            &mut self.observers,
            self.deadline,
        )
    }
}

impl OnTier for Simulation {
    type Output = Result<RunResult>;

    fn spec(&self) -> &RunSpec {
        &self.spec
    }

    fn run<R: Runtime>(self, runtime: R) -> Result<RunResult> {
        self.execute(&runtime)
    }
}

/// The one step loop: `init`, then one `step` per scenario period until the
/// horizon or the [`RunDeadline`] (its wall-clock budget is checked at every
/// period boundary), the observers after the initial snapshot and after
/// every period, and the result they assemble — marked
/// [`RunStatus::Interrupted`] if the deadline stopped the run short.
pub(crate) fn drive<R: Runtime>(
    runtime: &R,
    scenario: &Scenario,
    initial: &InitialStates,
    observers: &mut [Box<dyn Observer>],
    deadline: Option<RunDeadline>,
) -> Result<RunResult> {
    let mut state = runtime.init(scenario, initial)?;
    let started = std::time::Instant::now();
    let scheduled = scenario.periods();
    let wall = deadline.map(|d| d.wall);
    let protocol = runtime.protocol();
    let events = runtime.snapshot(&state);
    for obs in observers.iter_mut() {
        obs.on_period(protocol, &events);
    }
    let mut completed = 0;
    while completed < scheduled && !wall.is_some_and(|limit| started.elapsed() >= limit) {
        let events = runtime.step(&mut state)?;
        for obs in observers.iter_mut() {
            obs.on_period(protocol, &events);
        }
        completed += 1;
    }
    let mut result = RunResult::new(protocol);
    for obs in observers.iter_mut() {
        obs.finish(&mut result);
    }
    if completed < scheduled {
        result.status = RunStatus::Interrupted {
            completed_periods: completed,
        };
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::super::{
        AgentRuntime, AggregateRuntime, CountsRecorder, PeriodEvents, TransitionRecorder,
    };
    use super::*;
    use crate::fixtures::epidemic_protocol;

    #[test]
    fn missing_scenario_or_initial_is_an_error() {
        let err = Simulation::of(epidemic_protocol())
            .initial(InitialStates::counts(&[99, 1]))
            .run::<AgentRuntime>()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "scenario",
                ..
            }
        ));
        let err = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(100, 5).unwrap())
            .run::<AgentRuntime>()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "initial",
                ..
            }
        ));
    }

    #[test]
    fn run_on_rejects_builder_config_and_honors_runtime_knobs() {
        let protocol = epidemic_protocol();
        let y = protocol.require_state("y").unwrap();
        // A builder-level RunConfig would be silently ignored by run_on, so
        // the combination is rejected.
        let err = Simulation::of(protocol.clone())
            .scenario(Scenario::new(100, 5).unwrap())
            .initial(InitialStates::counts(&[99, 1]))
            .rejoin_state(y)
            .run_on(&AgentRuntime::new(protocol.clone()))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig { name: "config", .. }
        ));
        // Without builder config, run_on drives the pre-built runtime.
        let runtime = AggregateRuntime::new(protocol.clone())
            .with_alive_fraction(0.5)
            .unwrap();
        let result = Simulation::of(protocol)
            .scenario(Scenario::new(1_000, 5).unwrap())
            .initial(InitialStates::counts(&[499, 1]))
            .observe(CountsRecorder::new())
            .run_on(&runtime)
            .unwrap();
        assert_eq!(
            result.final_counts().unwrap().iter().sum::<f64>(),
            500.0,
            "alive fraction applied"
        );
    }

    #[test]
    fn default_observers_reproduce_the_legacy_recording() {
        let scenario = Scenario::new(256, 10).unwrap().with_seed(3);
        let initial = InitialStates::counts(&[255, 1]);
        let via_runtime = AgentRuntime::new(epidemic_protocol())
            .run(&scenario, &initial)
            .unwrap();
        let via_simulation = Simulation::of(epidemic_protocol())
            .scenario(scenario)
            .initial(initial)
            .run::<AgentRuntime>()
            .unwrap();
        assert_eq!(via_runtime, via_simulation);
    }

    #[test]
    fn opt_in_recording_skips_everything_else() {
        let result = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(128, 8).unwrap().with_seed(1))
            .initial(InitialStates::counts(&[127, 1]))
            .observe(TransitionRecorder::new())
            .run::<AgentRuntime>()
            .unwrap();
        // Only transitions were recorded: no counts, no metrics.
        assert!(result.counts.is_empty());
        assert_eq!(result.final_counts(), None);
        assert!(result.metrics.series_names().is_empty());
        assert!(result.total_transitions("x", "y") > 0.0);
    }

    #[test]
    fn the_same_simulation_runs_on_both_fidelities() {
        let build = || {
            Simulation::of(epidemic_protocol())
                .scenario(Scenario::new(20_000, 30).unwrap().with_seed(9))
                .initial(InitialStates::counts(&[19_990, 10]))
                .observe(CountsRecorder::new())
        };
        let agent = build().run::<AgentRuntime>().unwrap();
        let aggregate = build().run::<AggregateRuntime>().unwrap();
        let a = agent.final_counts().unwrap()[1];
        let b = aggregate.final_counts().unwrap()[1];
        assert!(a > 19_000.0 && b > 19_000.0, "both saturate: {a} vs {b}");
    }

    #[test]
    fn auto_tier_selection_policy() {
        use super::super::MembershipTracker;
        let protocol = epidemic_protocol();
        let y = protocol.require_state("y").unwrap();
        let scenario = || Scenario::new(10_000, 10).unwrap();

        // Regression: a *missing* scenario is trivially exchangeable (a
        // failure-free run) and must select the batched tier — it used to be
        // treated as incompatible and silently fell back to the slow agent
        // runtime.
        let no_scenario =
            Simulation::of(protocol.clone()).initial(InitialStates::counts(&[5_000, 5_000]));
        assert_eq!(no_scenario.selected_tier(), FidelityTier::Batched);

        // Exchangeable scenario, large balanced populations → batched.
        let large = Simulation::of(protocol.clone())
            .scenario(scenario())
            .initial(InitialStates::counts(&[5_000, 5_000]));
        assert_eq!(large.selected_tier(), FidelityTier::Batched);

        // A small initial population → the hybrid tier serves the
        // small-count regime without paying per-process cost throughout.
        let small = Simulation::of(protocol.clone())
            .scenario(scenario())
            .initial(InitialStates::counts(&[9_999, 1]));
        assert_eq!(small.selected_tier(), FidelityTier::Hybrid);

        // Fractions resolve against the group size: 0.1 % of 10 000 is 10,
        // below the threshold → hybrid.
        let fractions = Simulation::of(protocol.clone())
            .scenario(scenario())
            .initial(InitialStates::fractions(&[0.999, 0.001]));
        assert_eq!(fractions.selected_tier(), FidelityTier::Hybrid);

        // A missing initial distribution skips the small-count refinement.
        let no_initial = Simulation::of(protocol.clone()).scenario(scenario());
        assert_eq!(no_initial.selected_tier(), FidelityTier::Batched);

        // Membership-needing observers force the agent tier regardless.
        let tracked = Simulation::of(protocol.clone())
            .scenario(scenario())
            .initial(InitialStates::counts(&[9_999, 1]))
            .observe(MembershipTracker::of(y));
        assert_eq!(tracked.selected_tier(), FidelityTier::Agent);

        // Per-id failure schedules need host identity → agent.
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
        let per_id = Simulation::of(protocol.clone())
            .scenario(scenario().with_failure_schedule(schedule).unwrap())
            .initial(InitialStates::counts(&[5_000, 5_000]));
        assert_eq!(per_id.selected_tier(), FidelityTier::Agent);

        // A sharded topology — whether baked into the scenario or set on the
        // builder — selects the sharded tier, even in the small-count regime.
        let baked = Simulation::of(protocol.clone())
            .scenario(scenario().with_topology(netsim::Topology::sharded(8, 0.01).unwrap()))
            .initial(InitialStates::counts(&[9_999, 1]));
        assert_eq!(baked.selected_tier(), FidelityTier::Sharded);
        let via_builder = Simulation::of(protocol.clone())
            .scenario(scenario())
            .initial(InitialStates::counts(&[5_000, 5_000]))
            .topology(netsim::Topology::sharded(4, 0.0).unwrap());
        assert_eq!(via_builder.selected_tier(), FidelityTier::Sharded);
        // ... and an explicit well-mixed builder topology overrides a sharded
        // scenario back onto the single-group tiers.
        let overridden = Simulation::of(protocol.clone())
            .scenario(scenario().with_topology(netsim::Topology::sharded(8, 0.01).unwrap()))
            .initial(InitialStates::counts(&[5_000, 5_000]))
            .topology(netsim::Topology::WellMixed);
        assert_eq!(overridden.selected_tier(), FidelityTier::Batched);

        // A transport model (link latency / drops / partitions) dominates
        // every other criterion: only the async runtime delivers messages,
        // so even the small-count and membership-tracking regimes yield.
        let transported = || {
            scenario()
                .with_transport(netsim::TransportConfig::default())
                .unwrap()
        };
        let asynchronous = Simulation::of(protocol.clone())
            .scenario(transported())
            .initial(InitialStates::counts(&[5_000, 5_000]));
        assert_eq!(asynchronous.selected_tier(), FidelityTier::Async);
        let small_async = Simulation::of(protocol.clone())
            .scenario(transported())
            .initial(InitialStates::counts(&[9_999, 1]));
        assert_eq!(small_async.selected_tier(), FidelityTier::Async);
        let tracked_async = Simulation::of(protocol)
            .scenario(transported())
            .initial(InitialStates::counts(&[9_999, 1]))
            .observe(MembershipTracker::of(y));
        assert_eq!(tracked_async.selected_tier(), FidelityTier::Async);
    }

    #[test]
    fn error_budget_tier_selection() {
        use super::super::{SsaRuntime, TauLeapRuntime};
        let protocol = epidemic_protocol();
        let build = |budget| {
            Simulation::of(protocol.clone())
                .scenario(Scenario::new(10_000, 10).unwrap())
                .initial(InitialStates::counts(&[5_000, 5_000]))
                .error_budget(budget)
        };
        // The default budget reproduces today's count-threshold policy.
        assert_eq!(
            build(ErrorBudget::Fast).selected_tier(),
            FidelityTier::Batched
        );
        assert_eq!(
            build(ErrorBudget::Fast)
                .initial(InitialStates::counts(&[9_999, 1]))
                .selected_tier(),
            FidelityTier::Hybrid
        );
        // Exact / bounded budgets select the continuous-time tiers,
        // regardless of population sizes.
        assert_eq!(build(ErrorBudget::Exact).selected_tier(), FidelityTier::Ssa);
        assert_eq!(
            build(ErrorBudget::Exact)
                .initial(InitialStates::counts(&[9_999, 1]))
                .selected_tier(),
            FidelityTier::Ssa
        );
        assert_eq!(
            build(ErrorBudget::Bounded(0.05)).selected_tier(),
            FidelityTier::TauLeap
        );
        // Feature-requiring scenarios dominate the budget: only their tier
        // can serve them.
        let transported = Simulation::of(protocol.clone())
            .scenario(
                Scenario::new(10_000, 10)
                    .unwrap()
                    .with_transport(netsim::TransportConfig::default())
                    .unwrap(),
            )
            .initial(InitialStates::counts(&[5_000, 5_000]))
            .error_budget(ErrorBudget::Exact);
        assert_eq!(transported.selected_tier(), FidelityTier::Async);
        let sharded = Simulation::of(protocol.clone())
            .scenario(
                Scenario::new(10_000, 10)
                    .unwrap()
                    .with_topology(netsim::Topology::sharded(4, 0.01).unwrap()),
            )
            .initial(InitialStates::counts(&[5_000, 5_000]))
            .error_budget(ErrorBudget::Bounded(0.05));
        assert_eq!(sharded.selected_tier(), FidelityTier::Sharded);

        // And the losers reject those scenarios cleanly rather than
        // silently simulating a different network.
        let transported_scenario = Scenario::new(100, 5)
            .unwrap()
            .with_transport(netsim::TransportConfig::default())
            .unwrap();
        let err = Simulation::of(protocol.clone())
            .scenario(transported_scenario)
            .initial(InitialStates::counts(&[99, 1]))
            .run::<SsaRuntime>()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "scenario",
                ..
            }
        ));
        let sharded_scenario = Scenario::new(100, 5)
            .unwrap()
            .with_topology(netsim::Topology::sharded(4, 0.01).unwrap());
        let err = Simulation::of(protocol)
            .scenario(sharded_scenario)
            .initial(InitialStates::counts(&[99, 1]))
            .run::<TauLeapRuntime>()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "scenario",
                ..
            }
        ));
    }

    #[test]
    fn combined_features_pick_one_winner_and_losers_reject() {
        use super::super::{AsyncRuntime, BatchedRuntime, ShardedRuntime};
        let protocol = epidemic_protocol();
        let initial = || InitialStates::counts(&[990, 10]);
        let adversary = || netsim::adversary::ObliviousSchedule::new();

        // Transport + adversary → async wins; the period-synchronized tiers
        // reject the transport model.
        let transport_adversary = || {
            Scenario::new(1_000, 10)
                .unwrap()
                .with_transport(netsim::TransportConfig::default())
                .unwrap()
                .with_adversary(adversary())
        };
        let sim = Simulation::of(protocol.clone())
            .scenario(transport_adversary())
            .initial(initial());
        assert_eq!(sim.selected_tier(), FidelityTier::Async);
        sim.run::<AsyncRuntime>().unwrap();
        assert!(Simulation::of(protocol.clone())
            .scenario(transport_adversary())
            .initial(initial())
            .run::<BatchedRuntime>()
            .is_err());
        assert!(Simulation::of(protocol.clone())
            .scenario(transport_adversary())
            .initial(initial())
            .run::<ShardedRuntime>()
            .is_err());

        // Sharded + adversary → sharded wins; single-group tiers reject the
        // topology.
        let sharded_adversary = || {
            Scenario::new(1_000, 10)
                .unwrap()
                .with_topology(netsim::Topology::sharded(4, 0.05).unwrap())
                .with_adversary(adversary())
        };
        let sim = Simulation::of(protocol.clone())
            .scenario(sharded_adversary())
            .initial(initial());
        assert_eq!(sim.selected_tier(), FidelityTier::Sharded);
        sim.run::<ShardedRuntime>().unwrap();
        assert!(Simulation::of(protocol.clone())
            .scenario(sharded_adversary())
            .initial(initial())
            .run::<BatchedRuntime>()
            .is_err());

        // Transport + sharded topology: transport dominates (checked first),
        // and the sharded runtime rejects the transport model it cannot
        // honour (the async runtime in turn rejects sharded topologies, so
        // the combination is not silently servable by either alone — the
        // winner reports the conflict loudly at run time).
        let transport_sharded = || {
            Scenario::new(1_000, 10)
                .unwrap()
                .with_topology(netsim::Topology::sharded(4, 0.05).unwrap())
                .with_transport(netsim::TransportConfig::default())
                .unwrap()
        };
        let sim = Simulation::of(protocol.clone())
            .scenario(transport_sharded())
            .initial(initial());
        assert_eq!(sim.selected_tier(), FidelityTier::Async);
        assert!(Simulation::of(protocol)
            .scenario(transport_sharded())
            .initial(initial())
            .run::<ShardedRuntime>()
            .is_err());
    }

    #[test]
    fn run_auto_threads_the_bounded_epsilon_and_default_is_bit_for_bit() {
        // Bounded budget: run_auto executes on the tau-leap tier (smoke: the
        // run completes and conserves counts).
        let bounded = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(5_000, 15).unwrap().with_seed(8))
            .initial(InitialStates::counts(&[4_000, 1_000]))
            .error_budget(ErrorBudget::Bounded(0.05))
            .observe(CountsRecorder::new())
            .run_auto()
            .unwrap();
        assert_eq!(bounded.final_counts().unwrap().iter().sum::<f64>(), 5_000.0);
        // The default budget reproduces the historical selection exactly:
        // same seeds, same tier, same draws — bit-for-bit equal results.
        let build = || {
            Simulation::of(epidemic_protocol())
                .scenario(Scenario::new(5_000, 15).unwrap().with_seed(8))
                .initial(InitialStates::counts(&[4_000, 1_000]))
                .observe(CountsRecorder::new())
        };
        let auto = build().run_auto().unwrap();
        let batched = build().run::<super::super::BatchedRuntime>().unwrap();
        assert_eq!(auto, batched);
    }

    #[test]
    fn run_auto_without_scenario_reports_the_missing_scenario() {
        // The batched tier is selected (see above), and the run itself still
        // fails loudly on the absent scenario rather than panicking.
        let err = Simulation::of(epidemic_protocol())
            .initial(InitialStates::counts(&[99, 1]))
            .run_auto()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "scenario",
                ..
            }
        ));
    }

    #[test]
    fn run_auto_picks_a_fidelity_that_serves_the_observers() {
        use super::super::MembershipTracker;
        let protocol = epidemic_protocol();
        let y = protocol.require_state("y").unwrap();
        // Exchangeable scenario + counts only → batched (no membership view,
        // so a MembershipTracker-free run records everything it asked for).
        let counts_only = Simulation::of(protocol.clone())
            .scenario(Scenario::new(50_000, 25).unwrap().with_seed(1))
            .initial(InitialStates::counts(&[49_990, 10]))
            .observe(CountsRecorder::new())
            .run_auto()
            .unwrap();
        assert!(counts_only.final_counts().unwrap()[1] > 49_000.0);

        // A membership-needing observer forces the agent fidelity: snapshots
        // are recorded, which the batched runtime could never produce.
        let tracked = Simulation::of(protocol.clone())
            .scenario(Scenario::new(500, 10).unwrap().with_seed(2))
            .initial(InitialStates::counts(&[499, 1]))
            .observe(CountsRecorder::new())
            .observe(MembershipTracker::of(y))
            .run_auto()
            .unwrap();
        assert_eq!(tracked.tracked_members.len(), 11);

        // A per-id failure schedule forces the agent fidelity too.
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
        let per_id = Simulation::of(protocol)
            .scenario(
                Scenario::new(500, 10)
                    .unwrap()
                    .with_failure_schedule(schedule)
                    .unwrap()
                    .with_seed(3),
            )
            .initial(InitialStates::counts(&[499, 1]))
            .observe(CountsRecorder::alive_only())
            .run_auto()
            .unwrap();
        assert_eq!(
            per_id.final_counts().unwrap().iter().sum::<f64>(),
            499.0,
            "the scheduled per-id crash was applied"
        );
    }

    #[test]
    fn a_wall_clock_deadline_stops_a_slow_run_at_a_period_boundary() {
        use super::super::RunStatus;
        // The observer makes every period take ≥ 20 ms, so a 50 ms wall
        // budget must stop the 100-period run after a handful of them —
        // with everything recorded so far kept and the truncation explicit.
        struct Molasses;
        impl Observer for Molasses {
            fn on_period(&mut self, _protocol: &Protocol, _events: &PeriodEvents<'_>) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            fn finish(&mut self, _result: &mut RunResult) {}
        }
        let result = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(128, 100).unwrap().with_seed(6))
            .initial(InitialStates::counts(&[127, 1]))
            .observe(CountsRecorder::new())
            .observe(Molasses)
            .deadline(RunDeadline::wall_clock(std::time::Duration::from_millis(
                50,
            )))
            .run::<AgentRuntime>()
            .unwrap();
        let RunStatus::Interrupted { completed_periods } = result.status else {
            panic!("a 2-second run must blow a 50 ms wall budget");
        };
        assert!(
            completed_periods < 100,
            "interrupted well short of the horizon"
        );
        assert_eq!(
            result.counts.len() as u64,
            completed_periods + 1,
            "snapshot plus every completed period was recorded"
        );
    }

    #[test]
    fn custom_observers_can_record_into_metrics() {
        struct PeakInfected(f64);
        impl Observer for PeakInfected {
            fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
                self.0 = self.0.max(events.counts[1] as f64);
            }
            fn finish(&mut self, result: &mut RunResult) {
                result.metrics.record("peak_infected", 0, self.0);
            }
        }
        let result = Simulation::of(epidemic_protocol())
            .scenario(Scenario::new(512, 20).unwrap().with_seed(2))
            .initial(InitialStates::counts(&[511, 1]))
            .observe(PeakInfected(0.0))
            .run::<AgentRuntime>()
            .unwrap();
        assert!(result.metrics.last("peak_infected").unwrap() > 500.0);
    }

    #[test]
    fn debug_formats() {
        let sim = Simulation::of(epidemic_protocol()).record_defaults();
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("Simulation") && dbg.contains("observers"));
    }
}

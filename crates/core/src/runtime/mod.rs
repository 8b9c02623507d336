//! Protocol runtimes: execute a compiled [`Protocol`] in simulation.
//!
//! # Architecture
//!
//! Execution is split into four orthogonal pieces:
//!
//! * **Runtimes** — the [`Runtime`] trait exposes an incremental step
//!   interface (`init` → repeated `step`) over a
//!   [`Scenario`]. Every runtime compiles its protocol once, at
//!   construction, into the same crate-private plan: the actions flattened
//!   in state order with their firing probabilities, hazards and message
//!   bills, and the sorted `(from, to)` edge table every tier tallies its
//!   moves on — so all of them read one transition structure and report
//!   transitions in one order. Seven runtimes are provided.
//!   [`AgentRuntime`] keeps one state per process (failures, churn, host
//!   identity), [`BatchedRuntime`] advances whole state-count vectors with
//!   binomial/multinomial draws — O(actions) arithmetic plus one draw per
//!   distinct transition edge per period, independent of N, while still
//!   modelling exchangeable failures; its period kernel is written over
//!   `states × W` column blocks (one PRNG per column, column loop
//!   innermost), so a single run is the `W = 1` case, an [`Ensemble`]
//!   advances 64 seeds per sweep, each bit-for-bit the run of its seed,
//!   and a [`ShardedRuntime`] advances its S shards as one block.
//!   [`HybridRuntime`] batches while every per-state count is large and
//!   hands the exact counts to per-process execution when any count runs
//!   small (extinction, tie-breaking, post-failure recovery).
//!   [`AsyncRuntime`] turns every contact into a queued message over a
//!   virtual-time transport. Two continuous-time
//!   fidelities complement them: [`SsaRuntime`] executes every reaction
//!   individually at exponentially distributed virtual times (exact
//!   Gillespie sampling), and [`TauLeapRuntime`] advances the same event
//!   clock in Poisson-batched leaps under a per-leap error bound. Drivers
//!   and tests are generic over
//!   the trait, so the same experiment can be replayed at any fidelity (or
//!   let [`Simulation::run_auto`] pick one — see [`FidelityTier`] and
//!   [`ErrorBudget`]).
//! * **The environment** — one crate-private layer applies the scenario's
//!   scheduled failures, crash/recovery model and churn, then adversary
//!   injections, at every period boundary of every runtime, to count
//!   columns, a sharded run's whole population or per-process ids.
//! * **Observers** — recording is opt-in: an [`Observer`] receives
//!   [`PeriodEvents`] after every protocol period and folds whatever it
//!   recorded into the final [`RunResult`]. Built-ins cover the standard
//!   bookkeeping ([`CountsRecorder`], [`TransitionRecorder`],
//!   [`MembershipTracker`], [`AliveTracker`], [`MessageCounter`]); the hot
//!   loop does no work for observers that are not attached.
//! * **Drivers** — [`Simulation`] is the one-run builder
//!   (`Simulation::of(protocol).scenario(s).initial(i).run::<AgentRuntime>()`)
//!   and [`Ensemble`] fans a seed range across threads and
//!   aggregates per-period mean/std envelopes into an [`EnsembleResult`],
//!   merged in seed order so the result does not depend on the thread count.
//!   Both hold one crate-private run spec that makes the one tier decision
//!   and builds the tier's runtime, and every run steps through one loop,
//!   the one [`Runtime::run`] uses. Which scenario needs each tier serves is
//!   one crate-private table: every `init` checks it, the decision reads it.

mod agent;
mod async_runtime;
mod batched;
mod ensemble;
mod environment;
mod hybrid;
mod observer;
mod plan;
mod sharded;
mod simulation;
mod ssa;
mod tau_leap;

pub use agent::{AgentRuntime, AgentState, MembershipView};
pub use async_runtime::{AsyncRuntime, AsyncState};
pub use batched::{BatchedRuntime, BatchedState};
pub use ensemble::{Ensemble, EnsembleResult, SeedFailure};
pub use hybrid::{HybridFidelity, HybridRuntime, HybridState, SMALL_COUNT_THRESHOLD};
pub use observer::{
    AliveTracker, CountsRecorder, LiveMetrics, LiveMetricsHandle, MembershipTracker,
    MessageCounter, Observer, PeriodEvents, ResilienceReport, ShardCountsRecorder,
    TransitionRecorder, TransportProbe,
};
pub use sharded::{ShardedRuntime, ShardedState};
pub use simulation::{RunDeadline, Simulation};
pub use ssa::{SsaRuntime, SsaState};
pub use tau_leap::{TauLeapRuntime, TauLeapState, DEFAULT_TAU_EPSILON};

/// [`BatchedRuntime`] under the name of the retired aggregate tier, whose
/// kernel copied its period arithmetic. It exists only because
/// `benchmark/src/layers.rs` names it for the row `core.aggregate.step_ns.s3`;
/// the next `benchmark` change removes the row and this alias together.
pub type AggregateRuntime = BatchedRuntime;

use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::{MetricsRecorder, ProcessId, Scenario};
use observer::default_observers;
use odekit::integrate::Trajectory;

/// A protocol execution engine with an incremental step interface.
///
/// A runtime is a pure state-transition function over its
/// [`State`](Runtime::State): `init`
/// builds the start-of-run state from a scenario and an initial distribution,
/// and every `step` executes one protocol period, returning the
/// [`PeriodEvents`] observers consume. Drivers ([`Simulation`], [`Ensemble`])
/// and tests are generic over this trait, so the same experiment runs per
/// process ([`AgentRuntime`]), per message ([`AsyncRuntime`]), per count
/// vector ([`BatchedRuntime`]) or per reaction ([`SsaRuntime`]) without
/// changing driver code; every runtime executes the one plan its
/// constructor compiles from the protocol. A runtime owns its protocol
/// (`'static`). Only [`BatchedRuntime`] has a column-block kernel
/// ([`block_kernel`](Runtime::block_kernel)), which [`Ensemble`] hands whole
/// blocks of seeds.
pub trait Runtime: Sized + Send + Sync + 'static {
    /// The mutable per-run execution state.
    type State: Send;

    /// Constructs a runtime for `protocol` from the shared [`RunConfig`]
    /// (used by the generic drivers; runtime-specific knobs keep their
    /// dedicated builder methods).
    fn build(protocol: Protocol, config: &RunConfig) -> Self;

    /// [`build`](Runtime::build) with the default [`RunConfig`].
    fn new(protocol: Protocol) -> Self {
        Self::build(protocol, &RunConfig::default())
    }

    /// The protocol being executed.
    fn protocol(&self) -> &Protocol;

    /// Builds the start-of-run state for `scenario` with the given initial
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (invalid protocol, mismatched initial
    /// distribution, a scenario need this runtime does not serve — see
    /// [`FidelityTier`]).
    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<Self::State>;

    /// Executes one protocol period and returns the events it produced.
    ///
    /// # Errors
    ///
    /// Propagates scenario errors (invalid failure schedules etc.).
    fn step<'s>(&self, state: &'s mut Self::State) -> Result<PeriodEvents<'s>>;

    /// The events view of the current state without stepping — used by
    /// drivers to show observers the initial configuration (period 0).
    fn snapshot<'s>(&self, state: &'s Self::State) -> PeriodEvents<'s>;

    /// Runs the protocol under `scenario` from `initial` with the standard
    /// recording set (counts, transitions, alive counts, messages); use
    /// [`Simulation`] for opt-in recording or custom observers.
    ///
    /// # Errors
    ///
    /// Same as [`init`](Runtime::init) and [`step`](Runtime::step).
    fn run(&self, scenario: &Scenario, initial: &InitialStates) -> Result<RunResult> {
        simulation::drive(self, scenario, initial, &mut default_observers(), None)
    }

    /// The kernel that advances a whole block of seeds side by side, if this
    /// runtime has one: [`BatchedRuntime`] returns itself, and [`Ensemble`]
    /// then hands it 64 seeds at a time. Every other runtime runs seed by
    /// seed.
    fn block_kernel(&self) -> Option<&BatchedRuntime> {
        None
    }
}

/// The runtime fidelity the automatic selection
/// ([`Simulation::run_auto`], [`Ensemble::run_auto`]) executes a run on.
///
/// The selection picks the fastest fidelity that can serve the run:
///
/// * a scenario with a [`TransportConfig`](netsim::TransportConfig) selects
///   [`FidelityTier::Async`] — explicit link models (latency distributions,
///   drops, partition windows) only exist at the message layer, so no
///   period-synchronized runtime can serve them; this dominates every other
///   criterion and is checked first;
/// * a scenario with a sharded [`Topology`](netsim::Topology) or
///   shard-targeted events selects [`FidelityTier::Sharded`] — sharding is
///   count-level only, so it is checked first and membership observers are
///   inert under it (exactly as under the batched tier);
/// * an observer that needs per-process identity, a per-id failure schedule
///   or a churn trace forces [`FidelityTier::Agent`];
/// * otherwise the [`ErrorBudget`] arbitrates among the count-level
///   fidelities: [`ErrorBudget::Exact`] selects [`FidelityTier::Ssa`] and
///   [`ErrorBudget::Bounded`] selects [`FidelityTier::TauLeap`] — the
///   continuous-time tiers serve any exchangeable count-level run,
///   regardless of population sizes;
/// * otherwise (the default [`ErrorBudget::Fast`]), if any resolved initial
///   per-state count is below
///   [`SMALL_COUNT_THRESHOLD`] the run starts in the small-count regime,
///   where the agent runtime's per-process semantics are the reference, so
///   the [`FidelityTier::Hybrid`] tier serves it (count-batched whenever
///   populations allow, per-process when they don't — and, once selected,
///   the hybrid runtime also covers late-run small-count regimes);
/// * otherwise [`FidelityTier::Batched`]. The selection is static: a run
///   that starts with every population large is assumed to stay batchable,
///   matching the batched tier's prior behaviour and cost. Callers that
///   expect an initially-large run to decay into small-count dynamics
///   (e.g. a long subcritical decay toward extinction) should run
///   [`HybridRuntime`] explicitly via [`Simulation::run`].
///
/// A *missing* scenario is trivially exchangeable (no environment events at
/// all), so it must select the batched tier — treating `None` as
/// incompatible would silently fall back to the 10⁴×-slower agent runtime.
/// Likewise a missing or unresolvable initial distribution simply skips the
/// small-count refinement (the eventual `run` reports the real error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityTier {
    /// Count-batched throughout ([`BatchedRuntime`]): exchangeable
    /// environment, no membership observers, all populations large.
    Batched,
    /// Count-batched with a per-process fallback for small-count segments
    /// ([`HybridRuntime`]).
    Hybrid,
    /// Per-process throughout ([`AgentRuntime`]): the environment or an
    /// observer needs host identity.
    Agent,
    /// Count-batched per shard ([`ShardedRuntime`]): the scenario carries a
    /// sharded [`Topology`](netsim::Topology) or shard-targeted events, so
    /// the population advances as `S` locally-mixed count vectors exchanging
    /// processes through per-period migration.
    Sharded,
    /// Asynchronous message passing ([`AsyncRuntime`]): the scenario carries
    /// a [`TransportConfig`](netsim::TransportConfig), so every protocol
    /// contact becomes an actual queued message subject to sampled latency,
    /// drops and partition windows, scheduled in virtual time.
    Async,
    /// Exact continuous-time stochastic simulation ([`SsaRuntime`]): every
    /// reaction fires individually at an exponentially distributed virtual
    /// time (Gillespie's stochastic simulation algorithm, next-reaction
    /// form). Selected by [`ErrorBudget::Exact`].
    Ssa,
    /// Tau-leaping ([`TauLeapRuntime`]): continuous-time dynamics advanced
    /// in Poisson-batched leaps whose size is chosen from a per-leap error
    /// bound, with automatic fallback to exact SSA steps at small counts.
    /// Selected by [`ErrorBudget::Bounded`].
    TauLeap,
}

/// How much sampling error the caller will trade for speed — the knob that
/// generalizes the automatic tier policy beyond its count-threshold
/// heuristics (see [`Simulation::error_budget`] and
/// [`Ensemble::error_budget`]).
///
/// The period-synchronized tiers evaluate every firing probability against
/// start-of-period populations, so within one period the dynamics cannot
/// compound — an approximation that is excellent for slow per-period rates
/// and visibly biased for fast ones (see the `exp_ssa_burst` experiment).
/// The budget names the caller's position on that trade:
///
/// * [`Exact`](ErrorBudget::Exact) — no within-period approximation at all:
///   run the continuous-time exact sampler ([`FidelityTier::Ssa`]),
///   whatever it costs (`O(events)` per period, i.e. proportional to `N`
///   times the mean per-period rate).
/// * [`Bounded`](ErrorBudget::Bounded)`(ε)` — continuous-time dynamics with
///   a per-leap relative error bound of `ε` ([`FidelityTier::TauLeap`]):
///   leaps are sized so no propensity changes by more than a factor `ε`
///   within a leap, and the runtime drops to exact SSA steps whenever a
///   population is too small for leaping to respect the bound.
/// * [`Fast`](ErrorBudget::Fast) — the default: today's count-threshold
///   policy, bit-for-bit ([`FidelityTier::Batched`] or
///   [`FidelityTier::Hybrid`] by initial counts).
///
/// Scenario features that *require* a specific runtime (transport models →
/// async, sharded topologies → sharded, host identity → agent) dominate the
/// budget: those tiers are the only ones that can serve such runs, so the
/// budget only arbitrates among the count-level, well-mixed fidelities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ErrorBudget {
    /// Exact continuous-time sampling ([`FidelityTier::Ssa`]).
    Exact,
    /// Continuous-time leaping with per-leap relative error at most the
    /// given `ε` ([`FidelityTier::TauLeap`]). At runtime construction a
    /// finite `ε` is clamped to `[1e-4, 0.5]` and a non-finite one is
    /// replaced by [`DEFAULT_TAU_EPSILON`].
    Bounded(f64),
    /// The period-synchronized count-threshold policy — the historical
    /// default, unchanged bit-for-bit.
    #[default]
    Fast,
}

/// What a run asks of the runtime that executes it: a set of the four
/// needs below. The tier policy of [`FidelityTier`] reads them in this order,
/// and every runtime's `init` checks the scenario's needs against its row of
/// the table that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Needs(u8);

impl Needs {
    pub(crate) const NONE: Needs = Needs(0);
    /// Per-link latency, drops or partition windows: a transport model.
    pub(crate) const LINK_MODELS: Needs = Needs(1);
    /// A sharded topology or shard-targeted events.
    pub(crate) const SHARDING: Needs = Needs(1 << 1);
    /// Per-id failure events, a churn trace or an hour-0 availability (and,
    /// for the tier policy, an observer that needs membership).
    pub(crate) const HOST_IDENTITY: Needs = Needs(1 << 2);
    /// Anything that can change liveness, or an adversary.
    pub(crate) const ENVIRONMENT: Needs = Needs(1 << 3);

    /// What an error calls each need, in bit order, and the runtime that
    /// serves it.
    const NAMED: [(&'static str, &'static str); 4] = [
        (
            "a transport model (link latency / drops / partitions)",
            "AsyncRuntime",
        ),
        (
            "a sharded topology (or shard-targeted events)",
            "ShardedRuntime",
        ),
        (
            "host identity (per-id failure schedules, churn traces)",
            "AgentRuntime",
        ),
        (
            "an environment (failures, churn, an adversary)",
            "BatchedRuntime",
        ),
    ];

    /// The needs of `scenario`.
    pub(crate) fn of(scenario: &Scenario) -> Needs {
        let environment = scenario.has_liveness_events() || scenario.adversary().is_some();
        Needs(
            u8::from(scenario.has_link_models())
                | u8::from(scenario.needs_sharding()) << 1
                | u8::from(!scenario.count_level_compatible()) << 2
                | u8::from(environment) << 3,
        )
    }

    pub(crate) const fn or(self, other: Needs) -> Needs {
        Needs(self.0 | other.0)
    }

    pub(crate) fn has(self, need: Needs) -> bool {
        self.0 & need.0 != 0
    }

    /// `Ok` if the runtime of `row` serves every need; otherwise an error
    /// that names the first unmet need and the runtime that serves it.
    pub(crate) fn check(self, row: Serves) -> Result<()> {
        let Serves(runtime, served) = row;
        let unmet = self.0 & !served.0;
        if unmet == 0 {
            return Ok(());
        }
        let (what, serving) = Needs::NAMED[unmet.trailing_zeros() as usize];
        Err(CoreError::InvalidConfig {
            name: "scenario",
            reason: format!(
                "the scenario needs {what}, which the {runtime} runtime cannot \
                 serve — use {serving} (or Simulation::run_auto, which selects \
                 the tier that serves it)"
            ),
        })
    }
}

/// A row of the table below: a runtime, as errors name it, and the needs
/// it serves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Serves(&'static str, Needs);

// Which needs each runtime serves: one row per tier (README's "Failures"
// row). The count-level tiers serve exchangeable environments; the tiers
// that can hold per-process state serve host identity too.
const ENV: Needs = Needs::ENVIRONMENT;
const PER_PROCESS: Needs = Needs::HOST_IDENTITY.or(ENV);
pub(crate) const BATCHED: Serves = Serves("batched", ENV);
pub(crate) const HYBRID: Serves = Serves("hybrid", PER_PROCESS);
pub(crate) const AGENT: Serves = Serves("agent", PER_PROCESS);
pub(crate) const SHARDED: Serves = Serves("sharded", Needs::SHARDING.or(ENV));
pub(crate) const ASYNC: Serves = Serves("async", Needs::LINK_MODELS.or(PER_PROCESS));
pub(crate) const SSA: Serves = Serves("SSA", ENV);
pub(crate) const TAU_LEAP: Serves = Serves("tau-leap", ENV);

/// How the initial protocol states are assigned to processes.
#[derive(Debug, Clone, PartialEq)]
pub enum InitialStates {
    /// Explicit number of processes per state; must sum to the group size.
    Counts(Vec<u64>),
    /// Fractions per state (must sum to ~1); converted to counts by largest-
    /// remainder rounding.
    Fractions(Vec<f64>),
}

impl InitialStates {
    /// Convenience constructor from counts.
    pub fn counts(counts: &[u64]) -> Self {
        InitialStates::Counts(counts.to_vec())
    }

    /// Convenience constructor from fractions.
    pub fn fractions(fractions: &[f64]) -> Self {
        InitialStates::Fractions(fractions.to_vec())
    }

    /// Resolves the specification into per-state counts for a group of `n`
    /// processes distributed over `num_states` states.
    ///
    /// # Errors
    ///
    /// Returns an error if the length does not match `num_states`, counts do
    /// not sum to `n`, or fractions are negative / do not sum to ~1.
    pub(crate) fn resolve(&self, num_states: usize, n: u64) -> Result<Vec<u64>> {
        match self {
            InitialStates::Counts(counts) => {
                if counts.len() != num_states {
                    return Err(CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: format!("expected {num_states} counts, got {}", counts.len()),
                    });
                }
                let total: u64 = counts.iter().sum();
                if total != n {
                    return Err(CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: format!("counts sum to {total}, expected {n}"),
                    });
                }
                Ok(counts.clone())
            }
            InitialStates::Fractions(fracs) => {
                if fracs.len() != num_states {
                    return Err(CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: format!("expected {num_states} fractions, got {}", fracs.len()),
                    });
                }
                if fracs.iter().any(|f| !f.is_finite() || *f < 0.0) {
                    return Err(CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: "fractions must be non-negative and finite".into(),
                    });
                }
                let sum: f64 = fracs.iter().sum();
                if (sum - 1.0).abs() > 1e-6 {
                    return Err(CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: format!("fractions sum to {sum}, expected 1"),
                    });
                }
                // A sum off 1 by more than rounding can put the floors of
                // `f · n` over n, or more than one unit per state short of
                // it; then the fractions are scaled by their actual sum.
                let scaled = |scale: f64| largest_remainder(fracs.iter().map(|f| f * scale), n);
                (scaled(n as f64).or_else(|| scaled(n as f64 / sum))).ok_or_else(|| {
                    CoreError::InvalidConfig {
                        name: "initial_states",
                        reason: format!("fractions cannot be rounded to {n} processes"),
                    }
                })
            }
        }
    }
}

/// Largest-remainder rounding of `raw` to counts that sum to exactly `n`:
/// the floors, plus one for each of the largest remainders. `None` if the
/// floors exceed `n` or fall short of it by more than one per entry.
fn largest_remainder(raw: impl Iterator<Item = f64>, n: u64) -> Option<Vec<u64>> {
    let raw: Vec<f64> = raw.collect();
    let mut counts: Vec<u64> = raw.iter().map(|r| r.floor() as u64).collect();
    let leftover = n.checked_sub(counts.iter().sum())?;
    if leftover > counts.len() as u64 {
        return None;
    }
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|a, b| {
        let ra = raw[*a] - raw[*a].floor();
        let rb = raw[*b] - raw[*b].floor();
        rb.partial_cmp(&ra).unwrap()
    });
    for &i in &order[..leftover as usize] {
        counts[i] += 1;
    }
    Some(counts)
}

/// Configuration knobs shared by the runtimes.
///
/// Recording used to be configured here (`track_members_of`,
/// `count_alive_only`); it is now expressed by attaching [`Observer`]s to a
/// [`Simulation`] ([`MembershipTracker`], [`CountsRecorder::alive_only`]), so
/// the only remaining knob is protocol semantics: what happens on rejoin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunConfig {
    /// State a process is placed in when it recovers / rejoins (`None` keeps
    /// its previous state). The endemic replication protocol sets this to the
    /// receptive state: a host that lost its disk rejoins without replicas.
    pub rejoin_state: Option<StateId>,
    /// Per-leap relative error bound for [`TauLeapRuntime`] (`None` uses
    /// [`DEFAULT_TAU_EPSILON`]). Set automatically by the drivers when an
    /// [`ErrorBudget::Bounded`] selects the tau-leap tier; ignored by every
    /// other runtime.
    pub tau_epsilon: Option<f64>,
}

impl RunConfig {
    /// A configuration that moves recovering processes into `state`.
    pub fn rejoining_to(state: StateId) -> Self {
        RunConfig {
            rejoin_state: Some(state),
            ..RunConfig::default()
        }
    }
}

/// Whether a run executed its full scheduled horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunStatus {
    /// Every scheduled period executed.
    #[default]
    Completed,
    /// A [`RunDeadline`] stopped the run early; the result covers only the
    /// periods that completed.
    Interrupted {
        /// Number of protocol periods that executed before the deadline hit.
        completed_periods: u64,
    },
}

impl RunStatus {
    /// `true` if the run executed its full horizon.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// The output of one simulation run, assembled by the attached observers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    protocol_states: Vec<String>,
    /// Per-period state counts; time is the period index, one component per
    /// protocol state. Filled by [`CountsRecorder`].
    pub counts: Trajectory,
    /// Per-period transition counts, one series per `from->to` edge. Filled
    /// by [`TransitionRecorder`].
    pub transitions: MetricsRecorder,
    /// Auxiliary series: `alive` ([`AliveTracker`]), `messages`
    /// ([`MessageCounter`]), and anything a custom observer adds.
    pub metrics: MetricsRecorder,
    /// `(period, members)` snapshots of a tracked state, filled by
    /// [`MembershipTracker`].
    pub tracked_members: Vec<(u64, Vec<ProcessId>)>,
    /// ODE time advanced per protocol period (the protocol's normalizing
    /// constant), recorded so trajectories can be compared against
    /// integrations of the source equations.
    pub time_scale: f64,
    /// Whether the run completed its horizon or was interrupted by a
    /// [`RunDeadline`].
    pub status: RunStatus,
}

impl RunResult {
    /// Total number of transitions along a given edge over the whole run.
    #[cfg(test)]
    pub(crate) fn total_transitions(&self, from: &str, to: &str) -> f64 {
        self.transitions
            .series(&format!("{from}->{to}"))
            .map(|s| s.iter().map(|(_, v)| v).sum())
            .unwrap_or(0.0)
    }

    pub(crate) fn new(protocol: &Protocol) -> Self {
        RunResult {
            protocol_states: protocol.state_names().to_vec(),
            counts: Trajectory::new(),
            transitions: MetricsRecorder::new(),
            metrics: MetricsRecorder::new(),
            tracked_members: Vec::new(),
            time_scale: protocol.time_scale(),
            status: RunStatus::Completed,
        }
    }

    /// The count series of one state (by name).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownState`] if the name is not a protocol state.
    pub fn state_series(&self, name: &str) -> Result<Vec<f64>> {
        let idx = self
            .protocol_states
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| CoreError::UnknownState(name.to_string()))?;
        Ok(self.counts.component(idx))
    }

    /// The final per-state counts, or `None` if the run recorded no periods
    /// (for instance when no [`CountsRecorder`] was attached).
    pub fn final_counts(&self) -> Option<&[f64]> {
        self.counts.states().last().map(Vec::as_slice)
    }

    /// The per-period counts re-timed to ODE time (period × time-scale),
    /// normalized by `n` — directly comparable to an integration of the
    /// source equations over fractions.
    pub fn as_ode_trajectory(&self, n: f64) -> Trajectory {
        let mut out = Trajectory::with_capacity(self.counts.len());
        for (t, s) in self.counts.iter() {
            out.push(t * self.time_scale, s.iter().map(|c| c / n).collect());
        }
        out
    }
}

/// Name used for transition series: `from->to`.
pub(crate) fn edge_name(protocol: &Protocol, from: StateId, to: StateId) -> String {
    format!("{}->{}", protocol.state_name(from), protocol.state_name(to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::epidemic_protocol as protocol;

    #[test]
    fn initial_states_counts_validation() {
        assert_eq!(
            InitialStates::counts(&[60, 40]).resolve(2, 100).unwrap(),
            vec![60, 40]
        );
        assert!(InitialStates::counts(&[60, 40]).resolve(3, 100).is_err());
        assert!(InitialStates::counts(&[60, 41]).resolve(2, 100).is_err());
    }

    #[test]
    fn initial_states_fraction_rounding() {
        let counts = InitialStates::fractions(&[0.6, 0.4])
            .resolve(2, 101)
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 101);
        assert_eq!(counts, vec![61, 40]);
        // Thirds still sum exactly.
        let counts = InitialStates::fractions(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
            .resolve(3, 1000)
            .unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(InitialStates::fractions(&[0.6, 0.6])
            .resolve(2, 10)
            .is_err());
        assert!(InitialStates::fractions(&[-0.1, 1.1])
            .resolve(2, 10)
            .is_err());
        assert!(InitialStates::fractions(&[1.0]).resolve(2, 10).is_err());
    }

    /// Regression: a fraction sum within the tolerance but off 1 by more
    /// than rounding used to leave the counts short of N, or (sum above 1)
    /// underflow the leftover.
    #[test]
    fn fractions_off_one_within_tolerance_still_sum_to_n() {
        let n = 10_000_000;
        for fractions in [[0.4999995, 0.5], [0.5000005, 0.5]] {
            let counts = InitialStates::fractions(&fractions).resolve(2, n).unwrap();
            assert_eq!(counts.iter().sum::<u64>(), n, "{fractions:?} → {counts:?}");
        }
    }

    #[test]
    fn run_result_accessors() {
        let p = protocol();
        let mut r = RunResult::new(&p);
        // Empty run: no final counts, no panic.
        assert_eq!(r.final_counts(), None);
        r.counts.push(0.0, vec![90.0, 10.0]);
        r.counts.push(1.0, vec![50.0, 50.0]);
        r.transitions.record("x->y", 1, 40.0);
        assert_eq!(r.state_series("y").unwrap(), vec![10.0, 50.0]);
        assert!(r.state_series("q").is_err());
        assert_eq!(r.final_counts(), Some(&[50.0, 50.0][..]));
        assert_eq!(r.total_transitions("x", "y"), 40.0);
        assert_eq!(r.total_transitions("y", "x"), 0.0);
        let ode = r.as_ode_trajectory(100.0);
        assert_eq!(ode.times()[1], p.time_scale());
    }

    #[test]
    fn run_config_constructor() {
        let p = protocol();
        let y = p.require_state("y").unwrap();
        assert_eq!(RunConfig::rejoining_to(y).rejoin_state, Some(y));
        assert_eq!(RunConfig::default().rejoin_state, None);
    }

    #[test]
    fn edge_name_uses_state_names() {
        let p = protocol();
        let x = p.require_state("x").unwrap();
        let y = p.require_state("y").unwrap();
        assert_eq!(edge_name(&p, x, y), "x->y");
    }
}

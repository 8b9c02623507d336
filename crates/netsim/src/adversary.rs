//! Adaptive adversaries: fault injection driven by the live run state.
//!
//! Every failure mechanism elsewhere in this crate is *oblivious* — schedules,
//! probabilistic models, churn traces and partition windows are all fixed
//! before the run starts. The paper's thesis is that protocols derived from
//! differential equations inherit the ODE's stability, and an honest stress
//! test of that claim needs an adversary that can *watch* the run and strike
//! where it hurts: kill whichever state currently leads, kill the worker
//! holding the most processes, or let failures cascade.
//!
//! The model:
//!
//! * an [`Adversary`] is an immutable, shareable strategy attached to a
//!   [`Scenario`](crate::Scenario) via
//!   [`Scenario::with_adversary`](crate::Scenario::with_adversary);
//! * at run start every runtime [`fork`](Adversary::fork)s a per-run
//!   [`AdversaryState`] and gives it its own decision PRNG (derived from the
//!   scenario seed on a separate stream, so adversary *decisions* never
//!   perturb the run's main random stream);
//! * once per protocol period — immediately after the scenario's own
//!   scheduled events — the runtime shows the state an [`AdversaryView`]
//!   (per-state alive counts, per-shard counts when sharded, transport
//!   gauges when asynchronous) and applies the [`Injection`]s it returns;
//! * count-level runtimes apply injections exchangeably (hypergeometric
//!   victim draws), per-id runtimes pick uniform victims — the same
//!   semantics as the scenario's own massive-failure events, which is what
//!   lets property tests pin an oblivious adversary bit-for-bit to the
//!   scheduled-event path.
//!
//! Shipped strategies:
//!
//! * [`ObliviousSchedule`] — a fixed injection list that ignores the view;
//!   the bridge between the adversary path and classic scenario events.
//! * [`TargetLargestState`] — repeatedly kills a budgeted fraction of the
//!   population, always drawn from whichever state currently leads.
//! * [`CascadingFailure`] — a correlated model: each period's observed
//!   crashes raise the next period's crash hazard, which decays
//!   exponentially when the system is quiet.

use crate::error::{check_probability, SimError};
use crate::rng::Rng;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// Transport gauges exposed to adversaries on asynchronous runs (cumulative
/// counters plus the instantaneous queue depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportGauges {
    /// Messages currently queued for delivery.
    pub queue_depth: u64,
    /// Messages sent since the run started.
    pub sent: u64,
    /// Messages delivered since the run started.
    pub delivered: u64,
    /// Messages dropped (loss or partitions) since the run started.
    pub dropped: u64,
}

/// The live run state an adversary observes once per period, immediately
/// after the scenario's own scheduled events have been applied.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// The period about to execute.
    pub period: u64,
    /// Alive processes per protocol state (summed over shards when sharded).
    pub counts_alive: &'a [u64],
    /// Total alive processes.
    pub alive: u64,
    /// Per-shard alive counts (`[shard][state]`), present on sharded runs.
    pub shard_counts_alive: Option<&'a [Vec<u64>]>,
    /// Transport gauges, present on asynchronous runs.
    pub transport: Option<TransportGauges>,
    /// Alive processes per transport segment, present on asynchronous runs
    /// (the population blocks that map to worker processes on the socket
    /// backend — the targets of [`Injection::KillWorker`]).
    pub segments_alive: Option<&'a [u64]>,
}

impl AdversaryView<'_> {
    /// The index of the state with the most alive processes (ties break
    /// toward the lower index), or `None` if nobody is alive.
    pub(crate) fn leading_state(&self) -> Option<usize> {
        if self.alive == 0 {
            return None;
        }
        self.counts_alive
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// The transport segment holding the most alive processes (ties break
    /// toward the lower index), or `None` without segment visibility / when
    /// every segment is empty.
    pub(crate) fn densest_segment(&self) -> Option<usize> {
        let segments = self.segments_alive?;
        segments
            .iter()
            .enumerate()
            .filter(|(_, alive)| **alive > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }
}

/// One fault injected mid-run by an adversary. Fractions follow the same
/// floor semantics as scheduled massive failures: a `fraction` of the target
/// population means exactly `floor(fraction · population)` victims, chosen
/// uniformly (exchangeably on count-level runtimes, per-id otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Injection {
    /// Crash a uniform fraction of all currently alive processes — the
    /// injected twin of [`FailureEvent::MassiveFailure`](crate::FailureEvent).
    CrashUniform {
        /// Fraction of the alive population to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Crash a fraction of the alive processes currently in one state.
    CrashState {
        /// The targeted protocol state.
        state: usize,
        /// Fraction of that state's alive processes to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Crash a fraction of one shard's alive processes (sharded runs only).
    CrashShard {
        /// The targeted shard.
        shard: usize,
        /// Fraction of that shard's alive processes to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Recover a uniform fraction of the currently crashed processes.
    RecoverUniform {
        /// Fraction of the crashed population to recover, in `[0, 1]`.
        fraction: f64,
    },
    /// Kill the worker owning one transport segment (asynchronous runs
    /// only). Every alive process in the segment crashes at once; on the
    /// socket backend the worker *process* is SIGKILLed too — real death,
    /// not simulated. With supervision enabled
    /// ([`TransportConfig::with_supervision`](crate::TransportConfig::with_supervision))
    /// the segment is later restored from the last period-boundary
    /// checkpoint; without it, the segment stays parked and the run degrades
    /// gracefully.
    KillWorker {
        /// The targeted transport segment (== worker index).
        segment: usize,
    },
}

impl Injection {
    /// Validates the injection's fraction.
    ///
    /// # Errors
    ///
    /// Returns an error if the fraction lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        match self {
            Injection::CrashUniform { fraction }
            | Injection::CrashState { fraction, .. }
            | Injection::CrashShard { fraction, .. }
            | Injection::RecoverUniform { fraction } => check_probability("fraction", *fraction),
            Injection::KillWorker { .. } => Ok(()),
        }
    }
}

/// The record of one applied injection, reported through the observer layer
/// (`PeriodEvents::injections` in `dpde-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// The period the injection was applied at.
    pub period: u64,
    /// The injection as emitted by the strategy.
    pub injection: Injection,
    /// Processes actually crashed (or recovered) by it.
    pub victims: u64,
}

/// An adaptive fault-injection strategy. Implementations are immutable and
/// shareable; per-run mutable state lives in the [`AdversaryState`] returned
/// by [`fork`](Self::fork).
pub trait Adversary: fmt::Debug + Send + Sync {
    /// Creates the per-run mutable strategy state.
    fn fork(&self) -> Box<dyn AdversaryState>;
}

/// The per-run mutable half of an [`Adversary`]. `plan` is called once per
/// protocol period with the live view; the returned injections are applied
/// immediately, in order. `rng` is the adversary's private decision stream —
/// derived from the scenario seed but separate from the run's main stream,
/// so a strategy that ignores the view consumes nothing from the run.
pub trait AdversaryState: fmt::Debug + Send {
    /// Observes the current period and emits the injections to apply.
    fn plan(&mut self, view: &AdversaryView<'_>, rng: &mut Rng) -> Vec<Injection>;

    /// Clones the strategy state into a fresh box (runtime execution states
    /// are `Clone`, and the strategy state rides inside them).
    fn clone_box(&self) -> Box<dyn AdversaryState>;
}

impl Clone for Box<dyn AdversaryState> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A cloneable, `Debug`-friendly handle wrapping a shared [`Adversary`] so
/// it can ride on a [`Scenario`](crate::Scenario) (which is `Clone`).
#[derive(Clone)]
pub struct AdversaryHandle(Arc<dyn Adversary>);

impl AdversaryHandle {
    /// Wraps a strategy.
    pub(crate) fn new(adversary: impl Adversary + 'static) -> Self {
        AdversaryHandle(Arc::new(adversary))
    }

    /// Forks the per-run strategy state.
    pub fn fork(&self) -> Box<dyn AdversaryState> {
        self.0.fork()
    }
}

impl fmt::Debug for AdversaryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AdversaryHandle").field(&self.0).finish()
    }
}

// ---------------------------------------------------------------------------
// ObliviousSchedule
// ---------------------------------------------------------------------------

/// A fixed injection schedule that ignores the live view — the oblivious
/// baseline every adaptive strategy is compared against, and the bridge used
/// by property tests to pin the injection path bit-for-bit to the classic
/// scenario-event path (a `CrashUniform` here consumes the run's random
/// stream exactly like a scheduled massive failure).
#[derive(Debug, Clone, Default)]
pub struct ObliviousSchedule {
    events: Vec<(u64, Injection)>,
}

impl ObliviousSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an injection at the given period.
    ///
    /// # Errors
    ///
    /// Returns an error if the injection's fraction lies outside `[0, 1]`.
    pub fn inject_at(mut self, period: u64, injection: Injection) -> Result<Self> {
        injection.validate()?;
        self.events.push((period, injection));
        Ok(self)
    }

    /// Convenience: a uniform crash of `fraction` of the alive population at
    /// `period` — the injected twin of
    /// [`Scenario::with_massive_failure`](crate::Scenario::with_massive_failure).
    ///
    /// # Errors
    ///
    /// Returns an error if the fraction lies outside `[0, 1]`.
    pub fn crash_uniform_at(self, period: u64, fraction: f64) -> Result<Self> {
        self.inject_at(period, Injection::CrashUniform { fraction })
    }

    /// Convenience: kill the worker owning `segment` at `period` — real
    /// process death on the socket backend, a whole-segment crash on the
    /// in-process one.
    ///
    /// # Errors
    ///
    /// Never fails today; kept fallible for uniformity with the other
    /// builders.
    pub fn kill_worker_at(self, period: u64, segment: usize) -> Result<Self> {
        self.inject_at(period, Injection::KillWorker { segment })
    }
}

impl Adversary for ObliviousSchedule {
    fn fork(&self) -> Box<dyn AdversaryState> {
        Box::new(ObliviousScheduleState {
            events: self.events.clone(),
        })
    }
}

#[derive(Debug, Clone)]
struct ObliviousScheduleState {
    events: Vec<(u64, Injection)>,
}

impl AdversaryState for ObliviousScheduleState {
    fn clone_box(&self) -> Box<dyn AdversaryState> {
        Box::new(self.clone())
    }

    fn plan(&mut self, view: &AdversaryView<'_>, _rng: &mut Rng) -> Vec<Injection> {
        self.events
            .iter()
            .filter(|(p, _)| *p == view.period)
            .map(|(_, inj)| *inj)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// TargetLargestState
// ---------------------------------------------------------------------------

/// Kills a budgeted fraction of the population, always drawn from whichever
/// state currently leads.
///
/// Each strike spends `budget_fraction` of the *total* alive population, all
/// taken from the leading state (capped at that state's size). That makes
/// the strategy budget-comparable with an oblivious uniform crash of the
/// same fraction: both kill `floor(budget_fraction · alive)` processes per
/// strike — the adaptive one just concentrates every casualty on the
/// current winner.
#[derive(Debug, Clone, Copy)]
pub struct TargetLargestState {
    budget_fraction: f64,
    start_period: u64,
    every: u64,
    strikes: u32,
    kill_workers: bool,
}

impl TargetLargestState {
    /// A strategy striking every `every` periods from `start_period`, at
    /// most `strikes` times, spending `budget_fraction` of the alive
    /// population per strike.
    ///
    /// # Errors
    ///
    /// Returns an error if the fraction lies outside `[0, 1]` or `every` is
    /// zero.
    pub fn new(budget_fraction: f64, start_period: u64, every: u64, strikes: u32) -> Result<Self> {
        check_probability("budget_fraction", budget_fraction)?;
        if every == 0 {
            return Err(SimError::InvalidConfig {
                name: "every",
                reason: "strike interval must be at least one period".into(),
            });
        }
        Ok(TargetLargestState {
            budget_fraction,
            start_period,
            every,
            strikes,
            kill_workers: false,
        })
    }

    /// Strike by killing whole workers instead of budgeted state fractions:
    /// each strike emits [`Injection::KillWorker`] against the densest
    /// transport segment — on the socket backend, a real SIGKILL. On runs
    /// without segment visibility the strategy falls back to its budgeted
    /// `CrashState` strike, so it stays usable on every tier.
    pub fn striking_workers(mut self) -> Self {
        self.kill_workers = true;
        self
    }
}

impl Adversary for TargetLargestState {
    fn fork(&self) -> Box<dyn AdversaryState> {
        Box::new(TargetLargestStateRun {
            config: *self,
            remaining: self.strikes,
        })
    }
}

#[derive(Debug, Clone)]
struct TargetLargestStateRun {
    config: TargetLargestState,
    remaining: u32,
}

impl AdversaryState for TargetLargestStateRun {
    fn clone_box(&self) -> Box<dyn AdversaryState> {
        Box::new(self.clone())
    }

    fn plan(&mut self, view: &AdversaryView<'_>, _rng: &mut Rng) -> Vec<Injection> {
        let c = &self.config;
        if self.remaining == 0
            || view.period < c.start_period
            || (view.period - c.start_period) % c.every != 0
        {
            return Vec::new();
        }
        if self.config.kill_workers {
            if let Some(segment) = view.densest_segment() {
                self.remaining -= 1;
                return vec![Injection::KillWorker { segment }];
            }
        }
        let Some(state) = view.leading_state() else {
            return Vec::new();
        };
        let in_state = view.counts_alive[state];
        if in_state == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        // Spend the budget (a fraction of *total* alive) inside the leading
        // state: floor parity with CrashUniform{budget_fraction} holds as
        // long as the leader is big enough to absorb the strike.
        let fraction = (c.budget_fraction * view.alive as f64 / in_state as f64).min(1.0);
        vec![Injection::CrashState { state, fraction }]
    }
}

// ---------------------------------------------------------------------------
// CascadingFailure
// ---------------------------------------------------------------------------

/// A correlated failure model: every observed crash raises the next
/// period's crash hazard, and the hazard decays exponentially while the
/// system is quiet. A single spark can therefore snowball — each wave of
/// victims feeds the hazard that kills the next wave — until the decay wins.
///
/// The hazard update per period is
/// `h ← decay · h + gain · (observed crashed fraction)`, seeded by
/// `h = spark_fraction` at `spark_period`; while `h` exceeds a small cutoff
/// the strategy emits `CrashUniform { fraction: h }`.
#[derive(Debug, Clone, Copy)]
pub struct CascadingFailure {
    spark_period: u64,
    spark_fraction: f64,
    gain: f64,
    decay: f64,
}

/// Hazards below this are treated as extinguished (no injection emitted).
const HAZARD_CUTOFF: f64 = 1e-4;

impl CascadingFailure {
    /// A cascade sparked at `spark_period` with initial hazard
    /// `spark_fraction`; each period's crashed fraction is fed back with
    /// `gain`, and the hazard decays by `decay` per period.
    ///
    /// # Errors
    ///
    /// Returns an error if `spark_fraction` or `decay` lies outside
    /// `[0, 1]`, or `gain` is negative or not finite.
    pub fn new(spark_period: u64, spark_fraction: f64, gain: f64, decay: f64) -> Result<Self> {
        check_probability("spark_fraction", spark_fraction)?;
        check_probability("decay", decay)?;
        if !gain.is_finite() || gain < 0.0 {
            return Err(SimError::InvalidConfig {
                name: "gain",
                reason: format!("hazard gain must be finite and non-negative, got {gain}"),
            });
        }
        Ok(CascadingFailure {
            spark_period,
            spark_fraction,
            gain,
            decay,
        })
    }
}

impl Adversary for CascadingFailure {
    fn fork(&self) -> Box<dyn AdversaryState> {
        Box::new(CascadingFailureRun {
            config: *self,
            hazard: 0.0,
            last_alive: None,
        })
    }
}

#[derive(Debug, Clone)]
struct CascadingFailureRun {
    config: CascadingFailure,
    hazard: f64,
    last_alive: Option<u64>,
}

impl AdversaryState for CascadingFailureRun {
    fn clone_box(&self) -> Box<dyn AdversaryState> {
        Box::new(self.clone())
    }

    fn plan(&mut self, view: &AdversaryView<'_>, _rng: &mut Rng) -> Vec<Injection> {
        // Feed back the crashes observed since the previous period (from any
        // source: our own injections, scheduled events, the failure model).
        if let Some(last) = self.last_alive {
            let crashed = last.saturating_sub(view.alive);
            let crashed_fraction = if last > 0 {
                crashed as f64 / last as f64
            } else {
                0.0
            };
            self.hazard =
                (self.config.decay * self.hazard + self.config.gain * crashed_fraction).min(1.0);
        }
        if view.period == self.config.spark_period {
            self.hazard = self.hazard.max(self.config.spark_fraction);
        }
        self.last_alive = Some(view.alive);
        if self.hazard < HAZARD_CUTOFF || view.alive == 0 {
            return Vec::new();
        }
        vec![Injection::CrashUniform {
            fraction: self.hazard,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(
        period: u64,
        counts: &'a [u64],
        shards: Option<&'a [Vec<u64>]>,
    ) -> AdversaryView<'a> {
        AdversaryView {
            period,
            counts_alive: counts,
            alive: counts.iter().sum(),
            shard_counts_alive: shards,
            transport: None,
            segments_alive: None,
        }
    }

    #[test]
    fn view_helpers() {
        let counts = [10u64, 30, 20];
        let v = view(0, &counts, None);
        assert_eq!(v.leading_state(), Some(1));
        let empty = [0u64, 0];
        assert_eq!(view(0, &empty, None).leading_state(), None);
        // Ties break toward the lower index.
        let tied = [5u64, 5];
        assert_eq!(view(0, &tied, None).leading_state(), Some(0));
    }

    #[test]
    fn segment_helpers_and_kill_worker() {
        let counts = [10u64, 30];
        let v = view(0, &counts, None);
        assert_eq!(v.densest_segment(), None, "no segment visibility");
        let segments = [3u64, 25, 25, 0];
        let v = AdversaryView {
            segments_alive: Some(&segments),
            ..view(0, &counts, None)
        };
        assert_eq!(v.densest_segment(), Some(1), "tie breaks low");
        let empty = [0u64, 0];
        let v = AdversaryView {
            segments_alive: Some(&empty),
            ..view(0, &counts, None)
        };
        assert_eq!(v.densest_segment(), None, "all segments empty");

        assert!(Injection::KillWorker { segment: 2 }.validate().is_ok());
        let schedule = ObliviousSchedule::new().kill_worker_at(4, 1).unwrap();
        let mut run = schedule.fork();
        let mut rng = Rng::seed_from(0);
        assert!(run.plan(&view(3, &counts, None), &mut rng).is_empty());
        assert_eq!(
            run.plan(&view(4, &counts, None), &mut rng),
            vec![Injection::KillWorker { segment: 1 }]
        );

        // The worker-striking variant of TargetLargestState hits the
        // densest segment when it can see segments, and falls back to its
        // budgeted CrashState strike when it cannot.
        let adv = TargetLargestState::new(0.2, 0, 5, 2)
            .unwrap()
            .striking_workers();
        let mut run = adv.fork();
        let segments = [10u64, 30];
        let v = AdversaryView {
            segments_alive: Some(&segments),
            ..view(0, &counts, None)
        };
        assert_eq!(
            run.plan(&v, &mut rng),
            vec![Injection::KillWorker { segment: 1 }]
        );
        let got = run.plan(&view(5, &counts, None), &mut rng);
        assert!(
            matches!(got[..], [Injection::CrashState { state: 1, .. }]),
            "fallback without segment visibility, got {got:?}"
        );
        assert!(
            run.plan(&v, &mut rng).is_empty(),
            "strike budget is shared across both modes"
        );
    }

    #[test]
    fn injection_validation() {
        assert!(Injection::CrashUniform { fraction: 0.5 }.validate().is_ok());
        assert!(Injection::CrashUniform { fraction: 1.5 }
            .validate()
            .is_err());
        assert!(Injection::CrashState {
            state: 0,
            fraction: -0.1
        }
        .validate()
        .is_err());
        assert!(Injection::RecoverUniform { fraction: 1.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn oblivious_schedule_fires_at_its_periods_only() {
        let schedule = ObliviousSchedule::new()
            .crash_uniform_at(3, 0.5)
            .unwrap()
            .inject_at(7, Injection::RecoverUniform { fraction: 1.0 })
            .unwrap();
        assert!(ObliviousSchedule::new().crash_uniform_at(1, 2.0).is_err());
        let handle = AdversaryHandle::new(schedule);
        assert!(format!("{handle:?}").contains("AdversaryHandle"));
        let mut run = handle.fork();
        let counts = [50u64, 50];
        let mut rng = Rng::seed_from(0);
        assert!(run.plan(&view(2, &counts, None), &mut rng).is_empty());
        assert_eq!(
            run.plan(&view(3, &counts, None), &mut rng),
            vec![Injection::CrashUniform { fraction: 0.5 }]
        );
        assert_eq!(
            run.plan(&view(7, &counts, None), &mut rng),
            vec![Injection::RecoverUniform { fraction: 1.0 }]
        );
    }

    #[test]
    fn target_largest_state_spends_total_budget_on_the_leader() {
        let adv = TargetLargestState::new(0.2, 10, 5, 2).unwrap();
        assert!(TargetLargestState::new(1.5, 0, 1, 1).is_err());
        assert!(TargetLargestState::new(0.5, 0, 0, 1).is_err());
        let mut run = adv.fork();
        let counts = [550u64, 450];
        let mut rng = Rng::seed_from(0);
        assert!(run.plan(&view(9, &counts, None), &mut rng).is_empty());
        let got = run.plan(&view(10, &counts, None), &mut rng);
        // 20 % of 1000 alive = 200 victims, all from state 0 (550 strong):
        // fraction 200/550.
        match got[..] {
            [Injection::CrashState { state: 0, fraction }] => {
                assert!((fraction - 200.0 / 550.0).abs() < 1e-12);
            }
            _ => panic!("unexpected plan {got:?}"),
        }
        // Off-cadence periods are quiet; the second strike follows the
        // current leader, and the budget is capped at the leader's size.
        assert!(run.plan(&view(11, &counts, None), &mut rng).is_empty());
        let flipped = [100u64, 900];
        let got = run.plan(&view(15, &flipped, None), &mut rng);
        match got[..] {
            [Injection::CrashState { state: 1, fraction }] => {
                assert!((fraction - 200.0 / 900.0).abs() < 1e-12);
            }
            _ => panic!("unexpected plan {got:?}"),
        }
        // Strike budget exhausted.
        assert!(run.plan(&view(20, &counts, None), &mut rng).is_empty());
    }

    #[test]
    fn cascading_failure_snowballs_and_decays() {
        let adv = CascadingFailure::new(5, 0.1, 2.0, 0.5).unwrap();
        assert!(CascadingFailure::new(0, 1.5, 1.0, 0.5).is_err());
        assert!(CascadingFailure::new(0, 0.5, -1.0, 0.5).is_err());
        assert!(CascadingFailure::new(0, 0.5, 1.0, 1.5).is_err());
        let mut run = adv.fork();
        let mut rng = Rng::seed_from(0);
        let counts = [1000u64];
        assert!(run.plan(&view(0, &counts, None), &mut rng).is_empty());
        // Spark fires.
        let got = run.plan(&view(5, &counts, None), &mut rng);
        assert_eq!(got, vec![Injection::CrashUniform { fraction: 0.1 }]);
        // 10 % died: hazard = 0.5·0.1 + 2·0.1 = 0.25 — the cascade grows.
        let after = [900u64];
        let got = run.plan(&view(6, &after, None), &mut rng);
        match got[..] {
            [Injection::CrashUniform { fraction }] => {
                assert!((fraction - 0.25).abs() < 1e-12)
            }
            _ => panic!("unexpected plan {got:?}"),
        }
        // If nothing dies, the hazard halves each period and eventually
        // extinguishes.
        let mut fractions = Vec::new();
        for p in 7..30 {
            let got = run.plan(&view(p, &after, None), &mut rng);
            match got[..] {
                [Injection::CrashUniform { fraction }] => fractions.push(fraction),
                [] => break,
                _ => panic!("unexpected plan {got:?}"),
            }
        }
        assert!(fractions.windows(2).all(|w| w[1] < w[0]));
        assert!(run.plan(&view(40, &after, None), &mut rng).is_empty());
    }
}

//! Failure injection: scheduled events and probabilistic crash/recovery models.

use crate::error::check_probability;
use crate::group::{Group, ProcessId};
use crate::rng::Rng;
use crate::Result;

/// A failure event scheduled for a specific protocol period.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FailureEvent {
    /// Crash a uniformly random fraction of the currently alive processes
    /// (the paper's Figures 5, 6 and 12: "massive failure of 50 % of hosts").
    MassiveFailure {
        /// Fraction of the alive processes to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Crash one specific process.
    Crash(ProcessId),
    /// Recover one specific process.
    Recover(ProcessId),
}

/// A time-ordered schedule of failure events.
///
/// # Examples
///
/// ```
/// use netsim::{FailureEvent, FailureSchedule, Scenario};
///
/// // Crash half of the alive hosts at period 50; every runtime applies the
/// // schedule at its period boundaries.
/// let mut schedule = FailureSchedule::new();
/// schedule.add(50, FailureEvent::MassiveFailure { fraction: 0.5 });
/// let scenario = Scenario::new(1000, 100)?.with_failure_schedule(schedule)?;
/// assert_eq!(scenario.failure_schedule().events().len(), 1);
/// # Ok::<(), netsim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FailureSchedule {
    events: Vec<(u64, FailureEvent)>,
}

impl FailureSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event at the given protocol period.
    pub fn add(&mut self, period: u64, event: FailureEvent) -> &mut Self {
        self.events.push((period, event));
        self
    }

    /// `true` if no events are scheduled.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events (period, event), in insertion order.
    pub fn events(&self) -> &[(u64, FailureEvent)] {
        &self.events
    }

    /// `true` if any scheduled event names a specific process id — such
    /// events need per-host identity and cannot be applied by count-level
    /// runtimes (massive failures can: they hit a uniformly random subset).
    pub(crate) fn has_identity_events(&self) -> bool {
        self.events
            .iter()
            .any(|(_, e)| matches!(e, FailureEvent::Crash(_) | FailureEvent::Recover(_)))
    }
}

/// A probabilistic crash / recovery model applied every protocol period:
/// each alive process crashes with probability `crash_prob`, and each crashed
/// process recovers with probability `recover_prob` (crash-recovery failures
/// in the paper's system model).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FailureModel {
    crash_prob: f64,
    recover_prob: f64,
}

impl FailureModel {
    /// No background failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Creates a model with the given per-period crash and recovery
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error if either probability lies outside `[0, 1]`.
    pub fn new(crash_prob: f64, recover_prob: f64) -> Result<Self> {
        check_probability("crash_prob", crash_prob)?;
        check_probability("recover_prob", recover_prob)?;
        Ok(FailureModel {
            crash_prob,
            recover_prob,
        })
    }

    /// Per-period crash probability of an alive process.
    pub fn crash_prob(&self) -> f64 {
        self.crash_prob
    }

    /// Per-period recovery probability of a crashed process.
    pub fn recover_prob(&self) -> f64 {
        self.recover_prob
    }

    /// Applies one period of the model to the group, returning the ids that
    /// crashed and the ids that recovered.
    ///
    /// # Errors
    ///
    /// This cannot fail for ids drawn from the group itself; errors are
    /// propagated defensively.
    pub fn step(
        &self,
        group: &mut Group,
        rng: &mut Rng,
    ) -> Result<(Vec<ProcessId>, Vec<ProcessId>)> {
        if self.crash_prob == 0.0 && self.recover_prob == 0.0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let mut crashed = Vec::new();
        let mut recovered = Vec::new();
        for id in group.all_ids() {
            if group.is_alive(id)? {
                if rng.chance(self.crash_prob) {
                    crashed.push(id);
                }
            } else if rng.chance(self.recover_prob) {
                recovered.push(id);
            }
        }
        for id in &crashed {
            group.crash(*id)?;
        }
        for id in &recovered {
            group.recover(*id)?;
        }
        Ok((crashed, recovered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_records_events_in_insertion_order() {
        let mut s = FailureSchedule::new();
        assert!(s.is_empty());
        s.add(10, FailureEvent::Crash(ProcessId(3)))
            .add(10, FailureEvent::Crash(ProcessId(4)))
            .add(20, FailureEvent::Recover(ProcessId(3)));
        assert_eq!(s.events().len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.events()[2], (20, FailureEvent::Recover(ProcessId(3))));
        assert!(s.has_identity_events());
    }

    #[test]
    fn failure_model_statistics() {
        let model = FailureModel::new(0.01, 0.04).unwrap();
        assert_eq!(model.crash_prob(), 0.01);
        assert_eq!(model.recover_prob(), 0.04);
        assert!(FailureModel::new(1.5, 0.0).is_err());

        // Run the model to steady state and measure availability against
        // recover / (crash + recover) = 0.8.
        let mut group = Group::new(2_000);
        let mut rng = Rng::seed_from(4);
        for _ in 0..600 {
            model.step(&mut group, &mut rng).unwrap();
        }
        let availability = group.alive_count() as f64 / 2_000.0;
        assert!(
            (availability - 0.8).abs() < 0.05,
            "availability {availability}"
        );
    }

    #[test]
    fn none_model_is_a_noop() {
        let mut group = Group::new(50);
        let mut rng = Rng::seed_from(5);
        let (c, r) = FailureModel::none().step(&mut group, &mut rng).unwrap();
        assert!(c.is_empty() && r.is_empty());
        assert_eq!(group.alive_count(), 50);
    }
}

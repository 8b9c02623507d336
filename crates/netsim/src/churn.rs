//! Host churn: availability traces and a synthetic Overnet-like generator.
//!
//! The paper's churn experiments (Figures 9 and 10) inject hourly
//! join/leave events taken from Overnet availability traces into a 2000-host
//! system, with hourly churn rates of 10–25 % of the system size, and spread
//! each hour's changes uniformly over that hour (the protocol period being 6
//! minutes). Real traces are not redistributable, so this module provides:
//!
//! * [`ChurnTrace`] — an hourly availability matrix, loadable from a simple
//!   text format so real traces *can* be replayed if available,
//! * [`SyntheticChurnConfig`] — a generator producing traces with a target
//!   mean availability and hourly churn band, matching the statistics the
//!   paper quotes,
//! * [`ChurnEvent`] — per-protocol-period join/leave events obtained by
//!   spreading each hour's changes across the hour.

use crate::error::{check_probability, SimError};
use crate::group::ProcessId;
use crate::rng::Rng;
use crate::Result;

/// Join/leave events to apply at the start of one protocol period.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChurnEvent {
    /// The protocol period at which these events fire.
    pub period: u64,
    /// Hosts that join (become alive) at this period.
    pub joins: Vec<ProcessId>,
    /// Hosts that leave (crash / depart) at this period.
    pub leaves: Vec<ProcessId>,
}

/// An hourly host-availability trace: `availability[hour][host]`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChurnTrace {
    availability: Vec<Vec<bool>>,
    hosts: usize,
}

impl ChurnTrace {
    /// Builds a trace from an availability matrix (`matrix[hour][host]`).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is empty or rows have differing lengths.
    pub fn from_availability(matrix: Vec<Vec<bool>>) -> Result<Self> {
        let hosts = matrix.first().map(Vec::len).unwrap_or(0);
        if matrix.is_empty() || hosts == 0 {
            return Err(SimError::InvalidConfig {
                name: "availability",
                reason: "trace must cover at least one hour and one host".into(),
            });
        }
        if matrix.iter().any(|row| row.len() != hosts) {
            return Err(SimError::InvalidConfig {
                name: "availability",
                reason: "all hours must cover the same number of hosts".into(),
            });
        }
        Ok(ChurnTrace {
            availability: matrix,
            hosts,
        })
    }

    /// Parses the simple text format: one line per hour, one `0`/`1` character
    /// per host (whitespace ignored). This is the format real traces can be
    /// converted into for replay.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown characters or ragged lines.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut matrix = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut row = Vec::new();
            for c in line.chars().filter(|c| !c.is_whitespace()) {
                match c {
                    '0' => row.push(false),
                    '1' => row.push(true),
                    other => {
                        return Err(SimError::InvalidConfig {
                            name: "trace",
                            reason: format!("unexpected character `{other}` in trace"),
                        })
                    }
                }
            }
            matrix.push(row);
        }
        Self::from_availability(matrix)
    }

    /// Renders the trace in the text format accepted by [`from_text`](Self::from_text).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for row in &self.availability {
            for &a in row {
                out.push(if a { '1' } else { '0' });
            }
            out.push('\n');
        }
        out
    }

    /// Number of hours covered by the trace.
    pub fn hours(&self) -> usize {
        self.availability.len()
    }

    /// Number of hosts covered by the trace.
    pub(crate) fn hosts(&self) -> usize {
        self.hosts
    }

    /// Converts the hourly trace into per-period [`ChurnEvent`]s, spreading
    /// each hour's changes uniformly at random over that hour's
    /// `periods_per_hour` protocol periods (as the paper does).
    ///
    /// Hour `h` occupies periods `[h·periods_per_hour, (h+1)·periods_per_hour)`.
    /// The initial availability (hour 0) is *not* emitted as events; apply it
    /// directly to the group before starting the run.
    pub(crate) fn spread_over_periods(
        &self,
        periods_per_hour: u64,
        rng: &mut Rng,
    ) -> Vec<ChurnEvent> {
        let periods_per_hour = periods_per_hour.max(1);
        let mut events: Vec<ChurnEvent> = Vec::new();
        for hour in 1..self.hours() {
            let base_period = hour as u64 * periods_per_hour;
            let mut per_period: Vec<ChurnEvent> = (0..periods_per_hour)
                .map(|k| ChurnEvent {
                    period: base_period + k,
                    ..Default::default()
                })
                .collect();
            for host in 0..self.hosts {
                let before = self.availability[hour - 1][host];
                let after = self.availability[hour][host];
                if before == after {
                    continue;
                }
                let slot = rng.index(periods_per_hour as usize);
                if after {
                    per_period[slot].joins.push(ProcessId(host));
                } else {
                    per_period[slot].leaves.push(ProcessId(host));
                }
            }
            events.extend(
                per_period
                    .into_iter()
                    .filter(|e| !e.joins.is_empty() || !e.leaves.is_empty()),
            );
        }
        events
    }

    /// Initial availability (hour 0) as a boolean vector indexed by host.
    pub(crate) fn initial_availability(&self) -> &[bool] {
        &self.availability[0]
    }
}

/// Configuration for the synthetic Overnet-like churn generator.
///
/// Each hour, an available host departs with probability `churn/2·availability`
/// and an unavailable host joins with probability `churn/2·(1−availability)`,
/// where `churn` is drawn uniformly from the configured hourly band — this
/// keeps mean availability stationary while producing the target hourly churn
/// (10–25 % of the system in the paper's experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SyntheticChurnConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Number of hours to generate.
    pub hours: usize,
    /// Long-run fraction of hosts that are available.
    pub mean_availability: f64,
    /// Lower bound of the hourly churn rate (fraction of the system).
    pub churn_min: f64,
    /// Upper bound of the hourly churn rate (fraction of the system).
    pub churn_max: f64,
}

impl Default for SyntheticChurnConfig {
    fn default() -> Self {
        // The paper's Figure 9/10 setting: 2000 hosts, hourly churn 10–25 %.
        SyntheticChurnConfig {
            hosts: 2000,
            hours: 200,
            mean_availability: 0.7,
            churn_min: 0.10,
            churn_max: 0.25,
        }
    }
}

impl SyntheticChurnConfig {
    /// Generates a trace from this configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if sizes are zero or probabilities are out of range.
    pub fn generate(&self, rng: &mut Rng) -> Result<ChurnTrace> {
        if self.hosts == 0 || self.hours == 0 {
            return Err(SimError::InvalidConfig {
                name: "hosts/hours",
                reason: "must be positive".into(),
            });
        }
        check_probability("mean_availability", self.mean_availability)?;
        check_probability("churn_min", self.churn_min)?;
        check_probability("churn_max", self.churn_max)?;
        if self.churn_min > self.churn_max {
            return Err(SimError::InvalidConfig {
                name: "churn_min",
                reason: "churn_min must not exceed churn_max".into(),
            });
        }
        let a = self.mean_availability.clamp(0.01, 0.99);
        let mut matrix = Vec::with_capacity(self.hours);
        let mut current: Vec<bool> = (0..self.hosts).map(|_| rng.chance(a)).collect();
        matrix.push(current.clone());
        for _ in 1..self.hours {
            let churn = rng.uniform(self.churn_min, self.churn_max);
            let p_leave = (churn / (2.0 * a)).min(1.0);
            let p_join = (churn / (2.0 * (1.0 - a))).min(1.0);
            for state in current.iter_mut() {
                if *state {
                    if rng.chance(p_leave) {
                        *state = false;
                    }
                } else if rng.chance(p_join) {
                    *state = true;
                }
            }
            matrix.push(current.clone());
        }
        ChurnTrace::from_availability(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of hosts whose availability changed between `hour - 1` and
    /// `hour`; hour 0 has churn 0 by definition.
    fn hourly_churn(t: &ChurnTrace, hour: usize) -> f64 {
        if hour == 0 {
            return 0.0;
        }
        let (prev, cur) = (&t.availability[hour - 1], &t.availability[hour]);
        let changes = prev.iter().zip(cur).filter(|(a, b)| a != b).count();
        changes as f64 / t.hosts as f64
    }

    #[test]
    fn trace_construction_and_validation() {
        assert!(ChurnTrace::from_availability(vec![]).is_err());
        assert!(ChurnTrace::from_availability(vec![vec![]]).is_err());
        assert!(ChurnTrace::from_availability(vec![vec![true], vec![true, false]]).is_err());
        let t = ChurnTrace::from_availability(vec![vec![true, false], vec![false, false]]).unwrap();
        assert_eq!(t.hours(), 2);
        assert_eq!(t.hosts(), 2);
        assert!(t.availability[0][0]);
        assert!(!t.availability[1][0]);
        assert_eq!(hourly_churn(&t, 0), 0.0);
        assert_eq!(hourly_churn(&t, 1), 0.5);
        assert_eq!(t.initial_availability(), &[true, false]);
    }

    #[test]
    fn a_changeless_trace_spreads_to_no_events() {
        // Constant availability means zero churn: spreading must emit an
        // empty event list (not empty per-period placeholders), for any
        // periods-per-hour granularity including the degenerate 0 → 1 clamp.
        let t = ChurnTrace::from_availability(vec![vec![true, false, true]; 4]).unwrap();
        for periods_per_hour in [0, 1, 7] {
            let mut rng = Rng::seed_from(11);
            assert!(t.spread_over_periods(periods_per_hour, &mut rng).is_empty());
        }
    }

    #[test]
    fn an_all_leave_hour_empties_the_group_and_nobody_joins() {
        // Hour 1 takes every host down at once — the heaviest churn spike the
        // format can express. Every change must surface as a leave, none as a
        // join, and the leave set must cover each host exactly once.
        let t = ChurnTrace::from_availability(vec![vec![true; 5], vec![false; 5]]).unwrap();
        assert_eq!(hourly_churn(&t, 1), 1.0);
        let mut rng = Rng::seed_from(3);
        let events = t.spread_over_periods(4, &mut rng);
        assert!(events.iter().all(|e| e.joins.is_empty()));
        let mut left: Vec<usize> = events
            .iter()
            .flat_map(|e| e.leaves.iter().map(|p| p.index()))
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![0, 1, 2, 3, 4]);
        // All leaves land inside hour 1's period window.
        assert!(events.iter().all(|e| (4..8).contains(&e.period)));
    }

    #[test]
    fn spreading_is_deterministic_under_a_fixed_seed() {
        // Replay guarantee: the same trace spread with the same seed yields
        // the identical event list, bit for bit; a different seed moves the
        // events to different slots within the same hour windows.
        let cfg = SyntheticChurnConfig {
            hosts: 60,
            hours: 6,
            mean_availability: 0.7,
            churn_min: 0.2,
            churn_max: 0.4,
        };
        let trace = cfg.generate(&mut Rng::seed_from(9)).unwrap();
        let spread = |seed: u64| trace.spread_over_periods(10, &mut Rng::seed_from(seed));
        assert_eq!(spread(21), spread(21));
        assert_ne!(spread(21), spread(22), "different seeds should differ");
    }

    #[test]
    fn text_round_trip() {
        let text = "# two hosts\n10\n01\n11\n";
        let t = ChurnTrace::from_text(text).unwrap();
        assert_eq!(t.hours(), 3);
        assert_eq!(t.hosts(), 2);
        let t2 = ChurnTrace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, t2);
        assert!(ChurnTrace::from_text("1x\n").is_err());
        assert!(ChurnTrace::from_text("").is_err());
    }

    #[test]
    fn synthetic_trace_matches_target_statistics() {
        let cfg = SyntheticChurnConfig {
            hosts: 2000,
            hours: 100,
            mean_availability: 0.7,
            churn_min: 0.10,
            churn_max: 0.25,
        };
        let mut rng = Rng::seed_from(42);
        let trace = cfg.generate(&mut rng).unwrap();
        assert_eq!(trace.hours(), 100);
        assert_eq!(trace.hosts(), 2000);
        // Mean availability stays near the target.
        let up = trace.availability.iter().flatten().filter(|&&a| a).count();
        let mean_avail = up as f64 / (100.0 * 2000.0);
        assert!((mean_avail - 0.7).abs() < 0.05, "availability {mean_avail}");
        // Mean hourly churn falls inside the configured band (generously).
        let churn = (1..trace.hours())
            .map(|h| hourly_churn(&trace, h))
            .sum::<f64>()
            / 99.0;
        assert!(churn > 0.08 && churn < 0.30, "churn {churn}");
        // Every individual hour stays within a loose band too.
        for h in 1..trace.hours() {
            assert!(hourly_churn(&trace, h) < 0.4);
        }
    }

    #[test]
    fn synthetic_config_validation() {
        let mut rng = Rng::seed_from(1);
        let bad = SyntheticChurnConfig {
            hosts: 0,
            ..Default::default()
        };
        assert!(bad.generate(&mut rng).is_err());
        let bad = SyntheticChurnConfig {
            churn_min: 0.5,
            churn_max: 0.2,
            ..Default::default()
        };
        assert!(bad.generate(&mut rng).is_err());
        let bad = SyntheticChurnConfig {
            mean_availability: 1.5,
            ..Default::default()
        };
        assert!(bad.generate(&mut rng).is_err());
    }

    #[test]
    fn spreading_preserves_all_changes() {
        let cfg = SyntheticChurnConfig {
            hosts: 500,
            hours: 10,
            mean_availability: 0.6,
            churn_min: 0.1,
            churn_max: 0.2,
        };
        let mut rng = Rng::seed_from(7);
        let trace = cfg.generate(&mut rng).unwrap();
        let events = trace.spread_over_periods(10, &mut rng);
        // Total joins/leaves across events equals total hourly changes.
        let mut total_changes = 0usize;
        for h in 1..trace.hours() {
            total_changes += (hourly_churn(&trace, h) * trace.hosts() as f64).round() as usize;
        }
        let event_changes: usize = events.iter().map(|e| e.joins.len() + e.leaves.len()).sum();
        assert_eq!(event_changes, total_changes);
        // Events fall within the trace's period range and are tagged per hour.
        for e in &events {
            assert!(e.period >= 10 && e.period < 100);
        }
        // periods_per_hour of 0 is clamped.
        let ev0 = trace.spread_over_periods(0, &mut rng);
        assert!(!ev0.is_empty());
    }
}

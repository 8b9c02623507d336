//! Protocol-period bookkeeping.
//!
//! The paper's protocols execute their actions once per *protocol period*
//! (6 minutes in the endemic experiments, ~1 s in the LV discussion). The
//! analysis only depends on the average period across the group, so the
//! simulator advances in whole periods of one nominal length; this module
//! converts between period indices and wall-clock time.

/// Converts between protocol periods and wall-clock seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PeriodClock {
    period_secs: f64,
}

impl PeriodClock {
    /// The paper's endemic-experiment setting: a 6-minute protocol period.
    pub fn six_minutes() -> Self {
        PeriodClock { period_secs: 360.0 }
    }

    /// The nominal period length in seconds.
    pub fn period_secs(&self) -> f64 {
        self.period_secs
    }

    /// Wall-clock time (seconds) at the start of period `period`.
    pub fn period_to_secs(&self, period: u64) -> f64 {
        period as f64 * self.period_secs
    }

    /// Number of whole protocol periods per hour (at least 1).
    pub fn periods_per_hour(&self) -> u64 {
        ((3600.0 / self.period_secs).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_minute_period_conversions() {
        let c = PeriodClock::six_minutes();
        assert_eq!(c.period_secs(), 360.0);
        assert_eq!(c.periods_per_hour(), 10);
        assert_eq!(c.period_to_secs(10), 3600.0);
    }
}

//! Protocol-period bookkeeping.
//!
//! The paper's protocols execute their actions once per *protocol period*
//! (6 minutes in the endemic experiments, ~1 s in the LV discussion). The
//! analysis only depends on the average period across the group, so the
//! simulator advances in whole periods of one nominal length: the paper's
//! endemic-experiment setting of six minutes.

/// The nominal protocol period in seconds (six minutes). Continuous-time
/// runtimes measure virtual time in these seconds: period `p` starts at
/// `p as f64 * PERIOD_SECS`.
pub const PERIOD_SECS: f64 = 360.0;

/// Whole protocol periods per hour of wall-clock time; hourly churn traces
/// spread each hour's events over this many periods.
pub const PERIODS_PER_HOUR: u64 = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_minute_period_conversions() {
        assert_eq!(PERIODS_PER_HOUR as f64 * PERIOD_SECS, 3600.0);
    }
}

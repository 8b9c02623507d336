//! The calibrated micro-probe: repeat an operation until one timed sample
//! lasts at least a floor, then take a fixed number of samples and report
//! the median with its MAD.
//!
//! The operation is a closure `run(iters) -> Duration` that performs `iters`
//! repetitions and returns the time *it* attributes to them, so a probe can
//! keep its own set-up (building a state, refilling a queue) out of the
//! measurement. That also makes the scaler testable against a fake cost
//! model without sleeping.

use crate::stats::{mad, median};
use std::time::Duration;

/// How long one sample must last, and how many samples are taken.
#[derive(Debug, Clone, Copy)]
pub struct ProbePlan {
    /// Minimum duration of one timed sample.
    pub floor: Duration,
    /// Samples taken after calibration (the calibration runs are the
    /// warm-up).
    pub samples: usize,
}

/// One probe's result, per repetition of the operation.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResult {
    /// Repetitions per sample the scaler settled on.
    pub iters: u64,
    /// Median nanoseconds per repetition.
    pub ns: f64,
    /// MAD of the per-sample values, nanoseconds per repetition.
    pub mad_ns: f64,
    /// Fastest sample, nanoseconds per repetition.
    pub min_ns: f64,
    /// Samples taken.
    pub samples: usize,
}

/// Upper bound on the repetition count, so a closure that reports zero time
/// cannot send the scaler to infinity.
const MAX_ITERS: u64 = 1 << 40;

/// Grows the repetition count until `run(iters)` reports at least `floor`.
/// Far below the floor the count jumps by the measured ratio (capped at
/// ×100 a step, since a tiny first reading is mostly timer noise); near it,
/// by the ratio plus a tenth.
pub fn calibrate(floor: Duration, run: &mut impl FnMut(u64) -> Duration) -> u64 {
    let mut iters = 1u64;
    loop {
        let took = run(iters);
        if took >= floor || iters >= MAX_ITERS {
            return iters;
        }
        let ratio = if took.is_zero() {
            100.0
        } else {
            (floor.as_secs_f64() / took.as_secs_f64() * 1.1).clamp(1.1, 100.0)
        };
        iters = ((iters as f64 * ratio).ceil() as u64).clamp(iters + 1, MAX_ITERS);
    }
}

/// Calibrates, then takes `plan.samples` samples.
pub fn measure(plan: ProbePlan, mut run: impl FnMut(u64) -> Duration) -> ProbeResult {
    let iters = calibrate(plan.floor, &mut run);
    let per_iter: Vec<f64> = (0..plan.samples.max(1))
        .map(|_| run(iters).as_nanos() as f64 / iters as f64)
        .collect();
    ProbeResult {
        iters,
        ns: median(&per_iter),
        mad_ns: mad(&per_iter),
        min_ns: per_iter.iter().copied().fold(f64::INFINITY, f64::min),
        samples: per_iter.len(),
    }
}

/// Times `iters` back-to-back calls of `op` on the wall clock — the common
/// probe body when the operation needs no untimed set-up between calls.
pub fn time_loop(iters: u64, mut op: impl FnMut()) -> Duration {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake clock: every repetition costs `per_iter`, every call `fixed`.
    fn fake(per_iter: Duration, fixed: Duration) -> impl FnMut(u64) -> Duration {
        move |iters| fixed + per_iter * u32::try_from(iters).expect("test iteration counts fit")
    }

    #[test]
    fn scaler_reaches_the_floor_on_a_fake_clock() {
        let floor = Duration::from_millis(50);
        for per_iter_ns in [3u64, 250, 40_000, 9_000_000] {
            let mut run = fake(Duration::from_nanos(per_iter_ns), Duration::from_nanos(30));
            let iters = calibrate(floor, &mut run);
            let took = run(iters);
            assert!(took >= floor, "{per_iter_ns} ns/iter: {took:?}");
            // ... without overshooting by more than the ×1.1 step allows
            // (a slow operation may already exceed the floor at 1).
            assert!(
                took <= floor.mul_f64(1.3) || iters == 1,
                "{per_iter_ns} ns/iter overshot: {took:?} at {iters}"
            );
        }
    }

    #[test]
    fn an_operation_slower_than_the_floor_runs_once() {
        let mut run = fake(Duration::from_millis(80), Duration::ZERO);
        assert_eq!(calibrate(Duration::from_millis(50), &mut run), 1);
    }

    #[test]
    fn a_zero_cost_closure_cannot_spin_forever() {
        let mut calls = 0u32;
        let iters = calibrate(Duration::from_millis(50), &mut |_| {
            calls += 1;
            Duration::ZERO
        });
        assert_eq!(iters, MAX_ITERS);
        assert!(calls < 16);
    }

    #[test]
    fn measure_reports_per_iteration_cost() {
        let plan = ProbePlan {
            floor: Duration::from_millis(50),
            samples: 11,
        };
        let r = measure(plan, fake(Duration::from_nanos(200), Duration::ZERO));
        assert_eq!(r.samples, 11);
        assert!((r.ns - 200.0).abs() < 1e-6);
        assert_eq!(r.mad_ns, 0.0);
        assert!(r.iters >= 250_000);
    }
}

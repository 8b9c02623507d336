//! Equivalence checking: does the protocol behave like its source equations?
//!
//! Theorem 1 of the paper states that the compiled protocol has "equivalent
//! behavior in infinite sized groups" to the source equation system. In a
//! finite group the protocol trajectory is a stochastic perturbation of the
//! ODE trajectory; this module quantifies the gap so tests (and the
//! experiment harness) can assert that it is small and shrinks with group
//! size.

use crate::error::CoreError;
use crate::Result;
use odekit::integrate::{Integrator, Rk4, Trajectory};
use odekit::system::EquationSystem;

/// The deviation between a protocol run and its source ODE.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Largest absolute deviation over all times and state components
    /// (fractions, so values are in `[0, 1]`).
    pub max_abs_error: f64,
    /// Mean absolute deviation over all compared samples.
    pub mean_abs_error: f64,
    /// Per-state maximum absolute deviation.
    pub per_state_max: Vec<f64>,
    /// Number of `(time, state)` samples compared.
    pub samples: usize,
}

impl EquivalenceReport {}

/// Compares a protocol trajectory (already expressed in fractions and ODE
/// time, e.g. from
/// [`RunResult::as_ode_trajectory`](crate::runtime::RunResult::as_ode_trajectory))
/// against the given trajectory of the source system, interpolating the
/// reference at the protocol's sample times.
///
/// # Errors
///
/// Returns an error if the trajectories have different dimensions or do not
/// overlap in time.
pub fn compare_trajectories(
    protocol: &Trajectory,
    reference: &Trajectory,
) -> Result<EquivalenceReport> {
    if protocol.is_empty() || reference.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "trajectory",
            reason: "cannot compare empty trajectories".into(),
        });
    }
    if protocol.dim() != reference.dim() {
        return Err(CoreError::InvalidConfig {
            name: "trajectory",
            reason: format!(
                "dimension mismatch: protocol has {}, reference has {}",
                protocol.dim(),
                reference.dim()
            ),
        });
    }
    let dim = protocol.dim();
    let mut max_abs = 0.0_f64;
    let mut sum_abs = 0.0_f64;
    let mut per_state = vec![0.0_f64; dim];
    let mut samples = 0usize;
    for (t, state) in protocol.iter() {
        let Some(reference_state) = reference.state_at(t) else {
            continue;
        };
        for (i, (p, r)) in state.iter().zip(&reference_state).enumerate() {
            let err = (p - r).abs();
            max_abs = max_abs.max(err);
            per_state[i] = per_state[i].max(err);
            sum_abs += err;
            samples += 1;
        }
    }
    if samples == 0 {
        return Err(CoreError::InvalidConfig {
            name: "trajectory",
            reason: "the trajectories do not overlap in time".into(),
        });
    }
    Ok(EquivalenceReport {
        max_abs_error: max_abs,
        mean_abs_error: sum_abs / samples as f64,
        per_state_max: per_state,
        samples,
    })
}

/// Integrates `sys` (over fractions) with RK4 and compares the given protocol
/// trajectory against it. The protocol trajectory must already be expressed
/// in fractions and ODE time.
///
/// # Errors
///
/// Propagates integration and comparison errors.
pub fn compare_to_system(
    protocol: &Trajectory,
    sys: &EquationSystem,
    step: f64,
) -> Result<EquivalenceReport> {
    if protocol.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "trajectory",
            reason: "protocol trajectory is empty".into(),
        });
    }
    let y0 = protocol.states()[0].clone();
    let t0 = protocol.times()[0];
    let t_end = protocol.last_time();
    let reference = Rk4::new(step).integrate(sys, t0, &y0, t_end)?;
    compare_trajectories(protocol, &reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::{BatchedRuntime, InitialStates, Runtime};
    use netsim::Scenario;
    use odekit::system::EquationSystemBuilder;

    fn epidemic() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn identical_trajectories_have_zero_error() {
        let mut t = Trajectory::new();
        t.push(0.0, vec![1.0, 0.0]);
        t.push(1.0, vec![0.5, 0.5]);
        let report = compare_trajectories(&t, &t).unwrap();
        assert_eq!(report.max_abs_error, 0.0);
        assert_eq!(report.mean_abs_error, 0.0);
        assert_eq!(report.per_state_max, vec![0.0, 0.0]);
        assert_eq!(report.samples, 4);
    }

    #[test]
    fn dimension_and_overlap_errors() {
        let mut a = Trajectory::new();
        a.push(0.0, vec![1.0]);
        let mut b = Trajectory::new();
        b.push(0.0, vec![1.0, 0.0]);
        assert!(compare_trajectories(&a, &b).is_err());
        assert!(compare_trajectories(&Trajectory::new(), &a).is_err());
        // Non-overlapping times.
        let mut c = Trajectory::new();
        c.push(100.0, vec![1.0]);
        assert!(compare_trajectories(&c, &a).is_err());
        assert!(compare_to_system(&Trajectory::new(), &epidemic(), 0.01).is_err());
    }

    #[test]
    fn protocol_tracks_ode_and_error_shrinks_with_group_size() {
        // Theorem 1, quantitatively: the epidemic protocol follows ẋ = -xy
        // and the deviation shrinks as N grows (law of large numbers).
        // A small normalizing constant keeps the per-period probabilities
        // small, so the discrete-time protocol closely tracks the continuous
        // ODE (bias O(p)); the remaining gap is stochastic and shrinks with N.
        let sys = epidemic();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.1)
            .compile(&sys)
            .unwrap();
        let mut errors = Vec::new();
        for &n in &[1_000u64, 100_000u64] {
            let tenth = n / 10;
            let scenario = Scenario::new(n as usize, 150).unwrap().with_seed(17);
            let result = BatchedRuntime::new(protocol.clone())
                .run(&scenario, &InitialStates::counts(&[n - tenth, tenth]))
                .unwrap();
            let report =
                compare_to_system(&result.as_ode_trajectory(n as f64), &sys, 0.01).unwrap();
            errors.push(report.max_abs_error);
            assert!(report.mean_abs_error <= report.max_abs_error);
        }
        assert!(errors[0] < 0.25, "N=1000 error {}", errors[0]);
        assert!(errors[1] < 0.06, "N=100000 error {}", errors[1]);
        assert!(
            errors[1] <= errors[0] + 0.02,
            "error should not grow with N: {errors:?}"
        );
    }
}

//! Phase portraits: trajectories from many initial points, projected to 2-d.
//!
//! The paper's Figures 2 and 4 are phase portraits of the endemic and LV
//! systems; the same structure is reused by the experiment harness to plot
//! the *protocol* runs, so [`PhasePortrait`] only depends on
//! [`Trajectory`], not on where the points came
//! from.

use crate::error::OdeError;
use crate::integrate::{Integrator, OdeSystem, Trajectory};
use crate::Result;

/// A labelled trajectory inside a phase portrait.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PortraitTrajectory {
    /// Human-readable label, typically the initial point.
    pub(crate) label: String,
    /// The initial state.
    pub(crate) initial: Vec<f64>,
    /// The recorded trajectory.
    pub(crate) trajectory: Trajectory,
}

/// A collection of trajectories of the same system started from different
/// initial points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhasePortrait {
    trajectories: Vec<PortraitTrajectory>,
}

impl PhasePortrait {
    /// Creates an empty phase portrait.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a labelled trajectory.
    pub(crate) fn push(
        &mut self,
        label: impl Into<String>,
        initial: Vec<f64>,
        trajectory: Trajectory,
    ) {
        self.trajectories.push(PortraitTrajectory {
            label: label.into(),
            initial,
            trajectory,
        });
    }

    /// Projects every trajectory onto components `(a, b)`, producing one
    /// series of `(x_a, x_b)` points per trajectory (the format of the
    /// paper's Figures 2 and 4).
    pub fn projection(&self, a: usize, b: usize) -> Vec<(String, Vec<(f64, f64)>)> {
        self.trajectories
            .iter()
            .map(|t| (t.label.clone(), t.trajectory.projection(a, b)))
            .collect()
    }
}

/// Integrates `sys` from each of `initial_points` and assembles a phase
/// portrait. Labels are generated from the initial points.
///
/// # Errors
///
/// Propagates integration errors; all points must have the system dimension.
pub fn phase_portrait<S, I>(
    sys: &S,
    integrator: &I,
    initial_points: &[Vec<f64>],
    t_end: f64,
) -> Result<PhasePortrait>
where
    S: OdeSystem,
    I: Integrator,
{
    let mut portrait = PhasePortrait::new();
    for point in initial_points {
        if point.len() != sys.dim() {
            return Err(OdeError::DimensionMismatch {
                expected: sys.dim(),
                actual: point.len(),
            });
        }
        let traj = integrator.integrate(sys, 0.0, point, t_end)?;
        let label = format!(
            "({})",
            point
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        portrait.push(label, point.clone(), traj);
    }
    Ok(portrait)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::Rk4;
    use crate::system::EquationSystemBuilder;

    fn epidemic() -> EquationSystemBuilder {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
    }

    #[test]
    fn portrait_from_multiple_initial_points() {
        let sys = epidemic().build().unwrap();
        let points = vec![vec![0.99, 0.01], vec![0.5, 0.5], vec![0.1, 0.9]];
        let portrait = phase_portrait(&sys, &Rk4::new(0.05), &points, 20.0).unwrap();
        // All trajectories converge to y ≈ 1.
        let proj = portrait.projection(0, 1);
        assert_eq!(proj.len(), 3);
        for (_, series) in &proj {
            assert!(series.len() > 10);
            assert!(series.last().unwrap().1 > 0.95);
        }
    }

    #[test]
    fn wrong_dimension_rejected() {
        let sys = epidemic().build().unwrap();
        let err = phase_portrait(&sys, &Rk4::new(0.05), &[vec![0.5]], 1.0);
        assert!(err.is_err());
    }

    #[test]
    fn manual_push_and_accessors() {
        let mut p = PhasePortrait::new();
        let mut t = Trajectory::new();
        t.push(0.0, vec![1.0, 0.0]);
        t.push(1.0, vec![0.5, 0.5]);
        p.push("start", vec![1.0, 0.0], t);
        assert_eq!(p.trajectories[0].label, "start");
        assert_eq!(p.trajectories[0].initial, vec![1.0, 0.0]);
        assert_eq!(p.projection(0, 1)[0].1, vec![(1.0, 0.0), (0.5, 0.5)]);
    }
}

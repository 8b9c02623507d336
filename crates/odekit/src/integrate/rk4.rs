//! Classic fixed-step fourth-order Runge–Kutta.

use super::{check_initial, check_step, Integrator, OdeSystem, Trajectory};
use crate::error::OdeError;
use crate::Result;

/// The classic fourth-order Runge–Kutta method with a fixed step size.
///
/// Global error is `O(h⁴)`. This is the integrator used throughout the
/// experiment harness to produce the ODE ("analysis") curves that protocol
/// simulations are compared against.
///
/// # Examples
///
/// ```
/// use odekit::integrate::{Integrator, Rk4};
/// use odekit::EquationSystemBuilder;
///
/// // Simple harmonic oscillator: x'' = -x as a 2-d system.
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "v"])
///     .term("x", 1.0, &[("v", 1)])
///     .term("v", -1.0, &[("x", 1)])
///     .build()?;
/// let traj = Rk4::new(1e-3).integrate(&sys, 0.0, &[1.0, 0.0], std::f64::consts::PI)?;
/// // After half a period x ≈ -1.
/// assert!((traj.last_state()[0] + 1.0).abs() < 1e-8);
/// # Ok::<(), odekit::OdeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    step: f64,
}

impl Rk4 {
    /// Creates an RK4 integrator with the given step size.
    pub fn new(step: f64) -> Self {
        Rk4 { step }
    }

    /// Performs a single RK4 step in place, using the provided scratch buffers.
    fn step_once<S: OdeSystem>(sys: &S, t: f64, h: f64, y: &mut [f64], scratch: &mut Scratch) {
        let Scratch {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = scratch;
        sys.rhs(t, y, k1);
        for i in 0..y.len() {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        sys.rhs(t + 0.5 * h, tmp, k2);
        for i in 0..y.len() {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        sys.rhs(t + 0.5 * h, tmp, k3);
        for i in 0..y.len() {
            tmp[i] = y[i] + h * k3[i];
        }
        sys.rhs(t + h, tmp, k4);
        for i in 0..y.len() {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

/// Scratch buffers for one RK4 step, allocated once per integration.
struct Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Scratch {
    fn new(dim: usize) -> Self {
        Scratch {
            k1: vec![0.0; dim],
            k2: vec![0.0; dim],
            k3: vec![0.0; dim],
            k4: vec![0.0; dim],
            tmp: vec![0.0; dim],
        }
    }
}

impl Integrator for Rk4 {
    fn integrate<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<Trajectory> {
        check_step("step", self.step)?;
        check_initial(sys, y0, t0, t_end)?;

        let dim = sys.dim();
        let mut traj = Trajectory::with_capacity(((t_end - t0) / self.step) as usize + 2);
        let mut y = y0.to_vec();
        let mut t = t0;
        let mut scratch = Scratch::new(dim);
        traj.push(t, y.clone());

        while t < t_end {
            let h = self.step.min(t_end - t);
            Self::step_once(sys, t, h, &mut y, &mut scratch);
            t += h;
            if !y.iter().all(|v| v.is_finite()) {
                return Err(OdeError::NonFiniteState { time: t });
            }
            traj.push(t, y.clone());
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::FnSystem;
    use crate::system::EquationSystemBuilder;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], out: &mut [f64]| out[0] = -y[0])
    }

    #[test]
    fn fourth_order_accuracy() {
        let exact = (-1.0_f64).exp();
        let coarse = Rk4::new(0.1).integrate(&decay(), 0.0, &[1.0], 1.0).unwrap();
        let fine = Rk4::new(0.05)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .unwrap();
        let e_coarse = (coarse.last_state()[0] - exact).abs();
        let e_fine = (fine.last_state()[0] - exact).abs();
        // Halving h should reduce the error by ~16x (order 4).
        let ratio = e_coarse / e_fine;
        assert!(
            ratio > 10.0 && ratio < 25.0,
            "error ratio {ratio} not consistent with order 4"
        );
    }

    #[test]
    fn time_dependent_rhs() {
        // ẏ = t → y(t) = t²/2
        let sys = FnSystem::new(1, |t, _y: &[f64], out: &mut [f64]| out[0] = t);
        let traj = Rk4::new(1e-3).integrate(&sys, 0.0, &[0.0], 2.0).unwrap();
        assert!((traj.last_state()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn epidemic_reaches_saturation() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let traj = Rk4::new(0.01)
            .integrate(&sys, 0.0, &[0.999, 0.001], 40.0)
            .unwrap();
        let last = traj.last_state();
        assert!(last[1] > 0.99);
        // Conservation: x + y = 1 throughout.
        for (_, s) in traj.iter() {
            assert!((s[0] + s[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let res = Rk4::new(0.1).integrate(&decay(), 0.0, &[1.0, 2.0], 1.0);
        assert!(matches!(res, Err(OdeError::DimensionMismatch { .. })));
    }
}

//! Numerical integration of ODE systems.
//!
//! [`Rk4`] — the classic fixed-step fourth-order Runge–Kutta method — is the
//! integrator that produces the paper's "analysis" curves.
//!
//! Integrators consume anything implementing [`OdeSystem`] — in
//! particular [`EquationSystem`] — and produce a [`Trajectory`].

mod rk4;
mod trajectory;

pub use rk4::Rk4;
pub use trajectory::Trajectory;

use crate::error::OdeError;
use crate::system::EquationSystem;
use crate::Result;

/// A first-order ODE system `ẏ = f(t, y)` that integrators can drive.
///
/// Implemented by [`EquationSystem`] (autonomous polynomial systems).
pub trait OdeSystem {
    /// Number of state components.
    fn dim(&self) -> usize;

    /// Writes `f(t, state)` into `out`.
    ///
    /// Implementations may assume `state.len() == out.len() == self.dim()`.
    fn rhs(&self, t: f64, state: &[f64], out: &mut [f64]);
}

impl OdeSystem for EquationSystem {
    fn dim(&self) -> usize {
        EquationSystem::dim(self)
    }

    fn rhs(&self, _t: f64, state: &[f64], out: &mut [f64]) {
        self.eval_rhs_into(state, out);
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn rhs(&self, t: f64, state: &[f64], out: &mut [f64]) {
        (**self).rhs(t, state, out);
    }
}

/// Adapter turning a closure `f(t, y, out)` into an [`OdeSystem`]: the
/// closed-form references of the integrator tests.
#[cfg(test)]
pub(crate) struct FnSystem<F> {
    dim: usize,
    f: F,
}

#[cfg(test)]
impl<F> FnSystem<F>
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    /// Wraps the closure `f(t, state, out)` as a `dim`-dimensional system.
    pub(crate) fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

#[cfg(test)]
impl<F> OdeSystem for FnSystem<F>
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn rhs(&self, t: f64, state: &[f64], out: &mut [f64]) {
        (self.f)(t, state, out);
    }
}

/// A numerical integration scheme.
pub trait Integrator {
    /// Integrates `sys` from `(t0, y0)` until `t_end`, returning the full
    /// trajectory including the initial point.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::DimensionMismatch`] if `y0.len() != sys.dim()`,
    /// [`OdeError::InvalidParameter`] for an invalid interval or step, and
    /// [`OdeError::NonFiniteState`] if the state diverges.
    fn integrate<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<Trajectory>;
}

/// Validates initial conditions shared by all integrators.
pub(crate) fn check_initial<S: OdeSystem>(sys: &S, y0: &[f64], t0: f64, t_end: f64) -> Result<()> {
    if y0.len() != sys.dim() {
        return Err(OdeError::DimensionMismatch {
            expected: sys.dim(),
            actual: y0.len(),
        });
    }
    if !y0.iter().all(|v| v.is_finite()) {
        return Err(OdeError::NonFiniteState { time: t0 });
    }
    if !t0.is_finite() || !t_end.is_finite() || t_end < t0 {
        return Err(OdeError::InvalidParameter {
            name: "t_end",
            reason: format!("integration interval [{t0}, {t_end}] is invalid"),
        });
    }
    Ok(())
}

/// Validates a step size parameter.
pub(crate) fn check_step(name: &'static str, h: f64) -> Result<()> {
    if !h.is_finite() || h <= 0.0 {
        return Err(OdeError::InvalidParameter {
            name,
            reason: format!("step size must be finite and positive, got {h}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;

    #[test]
    fn equation_system_implements_ode_system() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let mut out = vec![0.0; 2];
        OdeSystem::rhs(&sys, 0.0, &[0.5, 0.5], &mut out);
        assert!((out[0] + 0.25).abs() < 1e-12);
        assert_eq!(OdeSystem::dim(&sys), 2);
        // Blanket impl for references:
        assert_eq!(OdeSystem::dim(&&sys), 2);
    }

    #[test]
    fn fn_system_dim() {
        let f = FnSystem::new(3, |_t, _y: &[f64], out: &mut [f64]| out.fill(0.0));
        assert_eq!(f.dim(), 3);
    }

    #[test]
    fn initial_condition_validation() {
        let sys = FnSystem::new(2, |_t, _y: &[f64], out: &mut [f64]| out.fill(0.0));
        assert!(check_initial(&sys, &[1.0], 0.0, 1.0).is_err());
        assert!(check_initial(&sys, &[1.0, f64::NAN], 0.0, 1.0).is_err());
        assert!(check_initial(&sys, &[1.0, 1.0], 0.0, -1.0).is_err());
        assert!(check_initial(&sys, &[1.0, 1.0], 0.0, 1.0).is_ok());
        assert!(check_step("h", 0.0).is_err());
        assert!(check_step("h", 0.1).is_ok());
    }
}

//! Equilibrium (fixed-point) finding for polynomial ODE systems.

use super::linalg::Matrix;
use crate::error::OdeError;
use crate::system::EquationSystem;
use crate::Result;

/// Newton-based equilibrium finder with multi-start search helpers.
///
/// An equilibrium of `Ẋ = f(X)` is a point where `f(X) = 0`. The finder runs
/// damped Newton iteration using the system's symbolic Jacobian; the
/// [`search_simplex`](Self::search_simplex) helper seeds Newton from a grid
/// over the probability simplex `Σx = 1, x ≥ 0` (where the paper's fraction
/// variables live) and de-duplicates the results.
///
/// # Examples
///
/// ```
/// use odekit::EquationSystemBuilder;
/// use odekit::analysis::EquilibriumFinder;
///
/// // Endemic system (eq. 1), fractions, β=4, γ=1, α=0.01.
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y", "z"])
///     .term("x", -4.0, &[("x", 1), ("y", 1)])
///     .term("x", 0.01, &[("z", 1)])
///     .term("y", 4.0, &[("x", 1), ("y", 1)])
///     .term("y", -1.0, &[("y", 1)])
///     .term("z", 1.0, &[("y", 1)])
///     .term("z", -0.01, &[("z", 1)])
///     .build()?;
/// let eqs = EquilibriumFinder::new().search_simplex(&sys, 6);
/// // Both the trivial (1,0,0) and the endemic equilibrium are found.
/// assert!(eqs.iter().any(|p| (p[0] - 1.0).abs() < 1e-6));
/// assert!(eqs.iter().any(|p| (p[0] - 0.25).abs() < 1e-6));
/// # Ok::<(), odekit::OdeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EquilibriumFinder;

/// Newton iterations per start point.
const MAX_ITER: usize = 200;
/// Residual tolerance `‖f(X)‖∞ ≤ TOL` for convergence.
const TOL: f64 = 1e-12;
/// Distance below which two equilibria are the same during de-duplication.
const DEDUP_TOL: f64 = 1e-6;

impl EquilibriumFinder {
    /// Creates a finder (200 Newton iterations per start, residual
    /// tolerance 1e-12).
    pub fn new() -> Self {
        EquilibriumFinder
    }

    /// Runs damped Newton iteration from `guess`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::DimensionMismatch`] if the guess has the wrong
    /// length, [`OdeError::NoConvergence`] if the residual tolerance is not
    /// met, and [`OdeError::Linalg`] if the Jacobian is singular at some
    /// iterate and no damping helps.
    pub fn from_guess(&self, sys: &EquationSystem, guess: &[f64]) -> Result<Vec<f64>> {
        if guess.len() != sys.dim() {
            return Err(OdeError::DimensionMismatch {
                expected: sys.dim(),
                actual: guess.len(),
            });
        }
        let mut x = guess.to_vec();
        for _ in 0..MAX_ITER {
            let f = sys.eval_rhs(&x);
            let residual = f.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
            if residual <= TOL {
                return Ok(x);
            }
            let j = Matrix::from_rows(&sys.jacobian_at(&x))?;
            // Solve J δ = -f; regularize slightly if singular.
            let rhs: Vec<f64> = f.iter().map(|v| -v).collect();
            let delta = match j.solve(&rhs) {
                Ok(d) => d,
                Err(_) => {
                    // Tikhonov-style fallback: (J + εI) δ = -f
                    let n = sys.dim();
                    let reg = j.add(&Matrix::identity(n).scaled(1e-8))?;
                    reg.solve(&rhs)?
                }
            };
            // Damped update to avoid overshooting on strongly curved systems.
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..30 {
                let candidate: Vec<f64> = x
                    .iter()
                    .zip(&delta)
                    .map(|(xi, di)| xi + step * di)
                    .collect();
                let f_new = sys.eval_rhs(&candidate);
                let new_res = f_new.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
                if new_res < residual || new_res <= TOL {
                    x = candidate;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                // Take the full step anyway; Newton sometimes needs to pass
                // through a worse residual.
                for (xi, di) in x.iter_mut().zip(&delta) {
                    *xi += di;
                }
            }
        }
        Err(OdeError::NoConvergence {
            context: "Newton equilibrium search",
            iterations: MAX_ITER,
        })
    }

    /// Searches for equilibria by seeding Newton from a regular grid over the
    /// probability simplex `Σx = 1, x ≥ 0` with `resolution + 1` points per
    /// axis. Non-converging seeds are skipped; results are de-duplicated.
    pub fn search_simplex(&self, sys: &EquationSystem, resolution: usize) -> Vec<Vec<f64>> {
        let dim = sys.dim();
        let mut found: Vec<Vec<f64>> = Vec::new();
        let mut seed = vec![0usize; dim];
        // Enumerate compositions of `resolution` into `dim` parts.
        self.enumerate_simplex(sys, resolution, 0, resolution, &mut seed, &mut found);
        found
    }

    fn enumerate_simplex(
        &self,
        sys: &EquationSystem,
        resolution: usize,
        index: usize,
        remaining: usize,
        seed: &mut Vec<usize>,
        found: &mut Vec<Vec<f64>>,
    ) {
        let dim = sys.dim();
        if index == dim - 1 {
            seed[index] = remaining;
            let guess: Vec<f64> = seed
                .iter()
                .map(|&k| k as f64 / resolution.max(1) as f64)
                .collect();
            if let Ok(eq) = self.from_guess(sys, &guess) {
                if eq.iter().all(|v| v.is_finite()) && !self.is_duplicate(found, &eq) {
                    found.push(eq);
                }
            }
            return;
        }
        for k in 0..=remaining {
            seed[index] = k;
            self.enumerate_simplex(sys, resolution, index + 1, remaining - k, seed, found);
        }
    }

    /// Searches for equilibria by seeding Newton from a regular grid over an
    /// axis-aligned box. `bounds` gives `(low, high)` per dimension.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::DimensionMismatch`] if `bounds.len() != sys.dim()`.
    pub fn search_box(
        &self,
        sys: &EquationSystem,
        bounds: &[(f64, f64)],
        resolution: usize,
    ) -> Result<Vec<Vec<f64>>> {
        if bounds.len() != sys.dim() {
            return Err(OdeError::DimensionMismatch {
                expected: sys.dim(),
                actual: bounds.len(),
            });
        }
        let dim = sys.dim();
        let steps = resolution.max(1);
        let total = (steps + 1).pow(dim as u32);
        let mut found: Vec<Vec<f64>> = Vec::new();
        for idx in 0..total {
            let mut guess = vec![0.0; dim];
            let mut rem = idx;
            for d in 0..dim {
                let k = rem % (steps + 1);
                rem /= steps + 1;
                let (lo, hi) = bounds[d];
                guess[d] = lo + (hi - lo) * k as f64 / steps as f64;
            }
            if let Ok(eq) = self.from_guess(sys, &guess) {
                if eq.iter().all(|v| v.is_finite()) && !self.is_duplicate(&found, &eq) {
                    found.push(eq);
                }
            }
        }
        Ok(found)
    }

    fn is_duplicate(&self, found: &[Vec<f64>], candidate: &[f64]) -> bool {
        found.iter().any(|p| {
            p.iter()
                .zip(candidate)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max)
                < DEDUP_TOL
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;

    fn endemic(beta: f64, gamma: f64, alpha: f64) -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -beta, &[("x", 1), ("y", 1)])
            .term("x", alpha, &[("z", 1)])
            .term("y", beta, &[("x", 1), ("y", 1)])
            .term("y", -gamma, &[("y", 1)])
            .term("z", gamma, &[("y", 1)])
            .term("z", -alpha, &[("z", 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn newton_from_good_guess_converges_to_endemic_equilibrium() {
        let (beta, gamma, alpha) = (4.0, 1.0, 0.01);
        let sys = endemic(beta, gamma, alpha);
        let finder = EquilibriumFinder::new();
        let eq = finder.from_guess(&sys, &[0.3, 0.01, 0.69]).unwrap();
        // Closed form (eq. 2 of the paper, in fractions with N = 1):
        let x_star = gamma / beta;
        let y_star = (1.0 - gamma / beta) / (1.0 + gamma / alpha);
        let z_star = (1.0 - gamma / beta) / (1.0 + alpha / gamma);
        assert!((eq[0] - x_star).abs() < 1e-8, "x {}", eq[0]);
        assert!((eq[1] - y_star).abs() < 1e-8, "y {}", eq[1]);
        assert!((eq[2] - z_star).abs() < 1e-8, "z {}", eq[2]);
    }

    #[test]
    fn simplex_search_finds_both_endemic_equilibria() {
        let sys = endemic(4.0, 1.0, 0.01);
        let eqs = EquilibriumFinder::new().search_simplex(&sys, 8);
        assert!(eqs
            .iter()
            .any(|p| (p[0] - 1.0).abs() < 1e-6 && p[1].abs() < 1e-6));
        assert!(eqs.iter().any(|p| (p[0] - 0.25).abs() < 1e-6));
    }

    #[test]
    fn lv_equilibria_found_in_box() {
        // LV original 2-variable form: x' = 3x(1-x-2y), y' = 3y(1-y-2x)
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", 3.0, &[("x", 1)])
            .term("x", -3.0, &[("x", 2)])
            .term("x", -6.0, &[("x", 1), ("y", 1)])
            .term("y", 3.0, &[("y", 1)])
            .term("y", -3.0, &[("y", 2)])
            .term("y", -6.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let eqs = EquilibriumFinder::new()
            .search_box(&sys, &[(0.0, 1.0), (0.0, 1.0)], 6)
            .unwrap();
        let expect = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0 / 3.0, 1.0 / 3.0)];
        for (ex, ey) in expect {
            assert!(
                eqs.iter()
                    .any(|p| (p[0] - ex).abs() < 1e-6 && (p[1] - ey).abs() < 1e-6),
                "missing equilibrium ({ex}, {ey}) in {eqs:?}"
            );
        }
        assert_eq!(eqs.len(), 4, "exactly the four LV equilibria: {eqs:?}");
    }

    #[test]
    fn wrong_guess_dimension_rejected() {
        let sys = endemic(4.0, 1.0, 0.01);
        assert!(EquilibriumFinder::new().from_guess(&sys, &[0.1]).is_err());
        assert!(EquilibriumFinder::new()
            .search_box(&sys, &[(0.0, 1.0)], 2)
            .is_err());
    }

    #[test]
    fn linear_system_origin_found() {
        // x' = -x + y, y' = x - y : line of equilibria x = y; Newton finds one.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("x", 1.0, &[("y", 1)])
            .term("y", 1.0, &[("x", 1)])
            .term("y", -1.0, &[("y", 1)])
            .build()
            .unwrap();
        let eq = EquilibriumFinder::new()
            .from_guess(&sys, &[0.4, 0.41])
            .unwrap();
        assert!((eq[0] - eq[1]).abs() < 1e-9);
    }
}

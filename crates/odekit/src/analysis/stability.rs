//! Stability classification of equilibrium points.
//!
//! Follows the paper's style of analysis (Section 4.1.3): linearize at the
//! equilibrium, look at trace/determinant (2-d) or the eigenvalue spectrum
//! (general), and classify the local behaviour — stable node, stable spiral,
//! saddle, and so on.

use super::linalg::{Complex, Matrix};
use crate::system::EquationSystem;
use crate::Result;

/// Qualitative type of an equilibrium point of a dynamical system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Stability {
    /// All eigenvalues have negative real part and are real: trajectories
    /// converge monotonically.
    StableNode,
    /// All eigenvalues have negative real part and some are complex:
    /// trajectories converge through damped oscillation (the paper's
    /// "stable spiral", Figure 2).
    StableSpiral,
    /// All eigenvalues have positive real part and are real.
    UnstableNode,
    /// All eigenvalues have positive real part and some are complex.
    UnstableSpiral,
    /// Some eigenvalues have positive and some negative real part: stable in
    /// some directions, unstable in others (the paper's first endemic
    /// equilibrium, and the LV point (1/3, 1/3)).
    Saddle,
    /// All eigenvalues are purely imaginary and non-zero: neutrally stable
    /// rotation.
    Center,
    /// At least one eigenvalue is (numerically) zero and no eigenvalue has
    /// positive real part: stability is not determined by the linearization.
    Marginal,
}

impl Stability {}

impl std::fmt::Display for Stability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stability::StableNode => "stable node",
            Stability::StableSpiral => "stable spiral",
            Stability::UnstableNode => "unstable node",
            Stability::UnstableSpiral => "unstable spiral",
            Stability::Saddle => "saddle point",
            Stability::Center => "center",
            Stability::Marginal => "marginal (zero eigenvalue)",
        };
        write!(f, "{s}")
    }
}

/// The full result of analysing one equilibrium point.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityReport {
    /// The equilibrium point that was analysed.
    pub equilibrium: Vec<f64>,
    /// The Jacobian evaluated at the equilibrium.
    pub(crate) jacobian: Matrix,
    /// Trace of the Jacobian (the paper's `τ`).
    pub trace: f64,
    /// Determinant of the Jacobian (the paper's `∆`).
    pub determinant: f64,
    /// Eigenvalues of the Jacobian.
    pub eigenvalues: Vec<Complex>,
    /// Classification using all eigenvalues.
    pub classification: Stability,
    /// Classification after dropping (numerically) zero eigenvalues — the
    /// right notion for *complete* systems, whose conservation law `Σx = const`
    /// always contributes one zero eigenvalue.
    pub classification_reduced: Stability,
}

impl StabilityReport {}

/// Tolerance below which an eigenvalue (real part and modulus) is treated as
/// zero when classifying.
pub(crate) const ZERO_TOL: f64 = 1e-9;

/// Classifies an equilibrium from its eigenvalue spectrum.
///
/// Eigenvalues with `|λ| < zero_tol` are treated as zero modes: if any remain
/// after filtering and none of the remaining eigenvalues has positive real
/// part, the classification is [`Stability::Marginal`] only when *no*
/// eigenvalues remain; otherwise the non-zero eigenvalues decide.
pub(crate) fn classify_eigenvalues(eigenvalues: &[Complex], zero_tol: f64) -> Stability {
    let significant: Vec<&Complex> = eigenvalues.iter().filter(|e| e.abs() > zero_tol).collect();
    if significant.is_empty() {
        return Stability::Marginal;
    }
    let any_pos = significant.iter().any(|e| e.re > zero_tol);
    let any_neg = significant.iter().any(|e| e.re < -zero_tol);
    let any_zero_re = significant.iter().any(|e| e.re.abs() <= zero_tol);
    let any_complex = significant.iter().any(|e| e.im.abs() > zero_tol);

    match (any_pos, any_neg) {
        (true, true) => Stability::Saddle,
        (true, false) => {
            if any_complex {
                Stability::UnstableSpiral
            } else {
                Stability::UnstableNode
            }
        }
        (false, true) => {
            if any_zero_re {
                Stability::Marginal
            } else if any_complex {
                Stability::StableSpiral
            } else {
                Stability::StableNode
            }
        }
        (false, false) => {
            if any_complex {
                Stability::Center
            } else {
                Stability::Marginal
            }
        }
    }
}

/// Analyses an equilibrium point of `sys`: evaluates the Jacobian, computes
/// trace, determinant and eigenvalues, and classifies the point both with the
/// full spectrum and with zero modes removed.
///
/// # Errors
///
/// Returns an error if the point has the wrong dimension or the eigenvalue
/// computation fails.
pub fn analyze_equilibrium(sys: &EquationSystem, point: &[f64]) -> Result<StabilityReport> {
    if point.len() != sys.dim() {
        return Err(crate::error::OdeError::DimensionMismatch {
            expected: sys.dim(),
            actual: point.len(),
        });
    }
    let jacobian = Matrix::from_rows(&sys.jacobian_at(point))?;
    let trace = jacobian.trace();
    let determinant = jacobian.determinant()?;
    let eigenvalues = jacobian.eigenvalues()?;
    let classification = classify_eigenvalues(&eigenvalues, ZERO_TOL);
    // For the reduced classification, drop the eigenvalues closest to zero
    // one at a time while they are numerically zero.
    let reduced: Vec<Complex> = eigenvalues
        .iter()
        .copied()
        .filter(|e| e.abs() > 1e-7)
        .collect();
    let classification_reduced = classify_eigenvalues(&reduced, ZERO_TOL);
    Ok(StabilityReport {
        equilibrium: point.to_vec(),
        jacobian,
        trace,
        determinant,
        eigenvalues,
        classification,
        classification_reduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;

    #[test]
    fn classify_eigenvalue_spectra() {
        let re = Complex::real;
        assert_eq!(
            classify_eigenvalues(&[re(-1.0), re(-2.0)], ZERO_TOL),
            Stability::StableNode
        );
        assert_eq!(
            classify_eigenvalues(
                &[Complex::new(-1.0, 2.0), Complex::new(-1.0, -2.0)],
                ZERO_TOL
            ),
            Stability::StableSpiral
        );
        assert_eq!(
            classify_eigenvalues(&[re(1.0), re(-2.0)], ZERO_TOL),
            Stability::Saddle
        );
        assert_eq!(
            classify_eigenvalues(&[re(1.0), re(2.0)], ZERO_TOL),
            Stability::UnstableNode
        );
        assert_eq!(
            classify_eigenvalues(&[Complex::new(1.0, 1.0), Complex::new(1.0, -1.0)], ZERO_TOL),
            Stability::UnstableSpiral
        );
        assert_eq!(
            classify_eigenvalues(&[Complex::new(0.0, 1.0), Complex::new(0.0, -1.0)], ZERO_TOL),
            Stability::Center
        );
        assert_eq!(
            classify_eigenvalues(&[re(0.0), re(0.0)], ZERO_TOL),
            Stability::Marginal
        );
        // A zero mode (|λ| ≈ 0) is filtered out; the remaining stable
        // direction decides the classification.
        assert_eq!(
            classify_eigenvalues(&[re(0.0), re(-1.0)], ZERO_TOL),
            Stability::StableNode
        );
        // A purely imaginary pair alongside a stable direction, however, keeps
        // the outcome marginal (the linearization cannot decide).
        assert_eq!(
            classify_eigenvalues(
                &[Complex::new(0.0, 2.0), Complex::new(0.0, -2.0), re(-1.0)],
                ZERO_TOL
            ),
            Stability::Marginal
        );
    }

    #[test]
    fn stability_helpers() {
        assert!(Stability::StableNode.to_string().contains("stable"));
    }

    #[test]
    fn endemic_equilibrium_is_stable_spiral_for_figure2_parameters() {
        // Figure 2 parameters: N=1000, α=0.01, β=4, γ=1.0 (fractions here, N=1).
        let (beta, gamma, alpha) = (4.0, 1.0, 0.01);
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -beta, &[("x", 1), ("y", 1)])
            .term("x", alpha, &[("z", 1)])
            .term("y", beta, &[("x", 1), ("y", 1)])
            .term("y", -gamma, &[("y", 1)])
            .term("z", gamma, &[("y", 1)])
            .term("z", -alpha, &[("z", 1)])
            .build()
            .unwrap();
        let x_star = gamma / beta;
        let y_star = (1.0 - gamma / beta) / (1.0 + gamma / alpha);
        let z_star = (1.0 - gamma / beta) / (1.0 + alpha / gamma);
        let report = analyze_equilibrium(&sys, &[x_star, y_star, z_star]).unwrap();
        // The conservation law gives one zero eigenvalue → full classification
        // is marginal, reduced classification is the paper's stable spiral.
        assert_eq!(report.classification_reduced, Stability::StableSpiral);

        // The trivial equilibrium (1, 0, 0) is a saddle (paper's corollary).
        let report0 = analyze_equilibrium(&sys, &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(report0.classification_reduced, Stability::Saddle);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", 1.0, &[("x", 1)])
            .build()
            .unwrap();
        assert!(analyze_equilibrium(&sys, &[0.0]).is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        // Linear stable node: x' = -x, y' = -2y.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", -2.0, &[("y", 1)])
            .build()
            .unwrap();
        let r = analyze_equilibrium(&sys, &[0.0, 0.0]).unwrap();
        assert_eq!(r.classification, Stability::StableNode);
        assert!((r.trace + 3.0).abs() < 1e-12);
        assert!((r.determinant - 2.0).abs() < 1e-12);
    }
}

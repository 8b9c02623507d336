//! The *completion* rewrite: add a slack variable so right-hand sides sum to zero.

use crate::error::OdeError;
use crate::poly::Polynomial;
use crate::system::EquationSystem;
use crate::term::Term;
use crate::Result;

/// Extends every term of `sys` with one extra (zero-exponent) trailing
/// variable, returning the new equations. Used when a variable is appended to
/// a system.
pub(crate) fn extend_with_var(sys: &EquationSystem) -> Vec<Polynomial> {
    sys.equations()
        .iter()
        .map(|poly| {
            Polynomial::from_terms(
                poly.terms()
                    .iter()
                    .map(|t| {
                        let mut exps = t.exponents().to_vec();
                        exps.push(0);
                        Term::new(t.coeff(), exps)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Rewrites `sys` into an equivalent *complete* system by appending a new
/// variable `new_var` with equation `new_var' = −Σ_x f_x(X)`.
///
/// This is the paper's Section 7 "Rewriting an equation into a Complete form";
/// the Lotka–Volterra case study (Section 4.2.1) applies exactly this rewrite
/// with `new_var = "z"`.
///
/// The new variable does not appear in any existing term; under the intended
/// interpretation it is the slack `new_var = 1 − Σ_x x`.
///
/// # Errors
///
/// Returns [`OdeError::DuplicateVariable`] if `new_var` is already a variable
/// of the system.
///
/// # Examples
///
/// ```
/// use odekit::EquationSystemBuilder;
/// use odekit::rewrite::complete;
/// use odekit::taxonomy;
///
/// // x' = 3x(1 - x - 2y), y' = 3y(1 - y - 2x)  — not complete on its own.
/// let lv = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .term("x", 3.0, &[("x", 1)])
///     .term("x", -3.0, &[("x", 2)])
///     .term("x", -6.0, &[("x", 1), ("y", 1)])
///     .term("y", 3.0, &[("y", 1)])
///     .term("y", -3.0, &[("y", 2)])
///     .term("y", -6.0, &[("x", 1), ("y", 1)])
///     .build()?;
/// assert!(!taxonomy::is_complete(&lv));
///
/// let completed = complete(&lv, "z")?;
/// assert_eq!(completed.dim(), 3);
/// assert!(taxonomy::is_complete(&completed));
/// # Ok::<(), odekit::OdeError>(())
/// ```
pub fn complete(sys: &EquationSystem, new_var: &str) -> Result<EquationSystem> {
    if sys.var(new_var).is_some() {
        return Err(OdeError::DuplicateVariable(new_var.to_string()));
    }
    let mut names = sys.var_names().to_vec();
    names.push(new_var.to_string());

    let mut equations = extend_with_var(sys);

    // z' = -Σ f_x, with terms extended to the new dimension.
    let mut z_eq = Polynomial::zero();
    for poly in &equations {
        z_eq = z_eq.add(&poly.negated());
    }
    equations.push(z_eq);

    EquationSystem::new(names, equations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;
    use crate::taxonomy;

    fn lv_original() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", 3.0, &[("x", 1)])
            .term("x", -3.0, &[("x", 2)])
            .term("x", -6.0, &[("x", 1), ("y", 1)])
            .term("y", 3.0, &[("y", 1)])
            .term("y", -3.0, &[("y", 2)])
            .term("y", -6.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn completion_adds_one_var_and_is_complete() {
        let sys = lv_original();
        let completed = complete(&sys, "z").unwrap();
        assert_eq!(completed.dim(), 3);
        assert_eq!(completed.var_names()[2], "z");
        assert!(taxonomy::is_complete(&completed));
    }

    #[test]
    fn completion_preserves_original_rhs() {
        let sys = lv_original();
        let completed = complete(&sys, "z").unwrap();
        let state2 = [0.3, 0.4];
        let state3 = [0.3, 0.4, 0.3];
        let orig = sys.eval_rhs(&state2);
        let comp = completed.eval_rhs(&state3);
        assert!((orig[0] - comp[0]).abs() < 1e-12);
        assert!((orig[1] - comp[1]).abs() < 1e-12);
        // z' = -(x' + y')
        assert!((comp[2] + orig[0] + orig[1]).abs() < 1e-12);
    }

    #[test]
    fn completing_an_already_complete_system_adds_inert_var() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let completed = complete(&sys, "w").unwrap();
        assert!(taxonomy::is_complete(&completed));
        // w' simplifies to zero.
        let w = completed.var("w").unwrap();
        assert!(completed.equation(w).simplified(1e-12).is_zero());
    }

    #[test]
    fn duplicate_new_var_rejected() {
        let sys = lv_original();
        assert!(matches!(
            complete(&sys, "x"),
            Err(OdeError::DuplicateVariable(_))
        ));
    }

    #[test]
    fn extend_with_var_preserves_coefficients() {
        let sys = lv_original();
        let extended = extend_with_var(&sys);
        assert_eq!(extended.len(), 2);
        for (orig, ext) in sys.equations().iter().zip(&extended) {
            assert_eq!(orig.terms().len(), ext.terms().len());
            for (a, b) in orig.terms().iter().zip(ext.terms()) {
                assert_eq!(a.coeff(), b.coeff());
                assert_eq!(b.dim(), a.dim() + 1);
                assert_eq!(b.exponent(a.dim()), 0);
            }
        }
    }
}

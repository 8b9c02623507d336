//! Equation rewriting techniques (Section 7 of the paper).
//!
//! These transformations bring an equation system into *mappable* form —
//! complete, and polynomial or restricted polynomial — so that the compiler
//! in `dpde-core` can translate it:
//!
//! * [`complete`] — add a slack variable `z = 1 − Σx` so the right-hand sides
//!   sum to zero (used by the paper to rewrite the Lotka–Volterra system).
//! * [`expand_constant_terms`] — replace a constant term `±c` by
//!   `±c·(Σ_v v)`, which is valid when `Σ_v v = 1` and makes the term
//!   mappable via Tokenizing.

mod complete;

pub use complete::complete;

use crate::poly::Polynomial;
use crate::system::EquationSystem;
use crate::term::Term;
use crate::Result;

/// Replaces every constant term `±c` by the expansion `±c·(Σ_v v)`.
///
/// The paper uses this rewrite (Section 6, *Tokenizing*) for systems where a
/// constant inflow/outflow appears: because the variables are fractions
/// summing to one, `c = c·(Σ_v v)`, and the expanded form consists of terms
/// that each contain a variable and can therefore be mapped to actions.
///
/// # Errors
///
/// Propagates construction errors from [`EquationSystem::new`] (these cannot
/// occur for a well-formed input system).
///
/// # Examples
///
/// ```
/// use odekit::EquationSystemBuilder;
/// use odekit::rewrite::expand_constant_terms;
///
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .constant("x", -0.5)
///     .constant("y", 0.5)
///     .build()?;
/// let expanded = expand_constant_terms(&sys)?;
/// // -0.5 becomes -0.5x - 0.5y ; +0.5 becomes +0.5x + 0.5y
/// let terms: usize = expanded.equations().iter().map(|p| p.terms().len()).sum();
/// assert_eq!(terms, 4);
/// assert!(odekit::taxonomy::is_complete(&expanded));
/// # Ok::<(), odekit::OdeError>(())
/// ```
pub fn expand_constant_terms(sys: &EquationSystem) -> Result<EquationSystem> {
    let dim = sys.dim();
    let mut equations = Vec::with_capacity(dim);
    for var in sys.var_ids() {
        let mut poly = Polynomial::zero();
        for term in sys.equation(var).terms() {
            if term.is_constant() {
                for v in 0..dim {
                    poly.push(Term::linear(term.coeff(), v, dim));
                }
            } else {
                poly.push(term.clone());
            }
        }
        equations.push(poly);
    }
    EquationSystem::new(sys.var_names().to_vec(), equations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;
    use crate::taxonomy;

    #[test]
    fn expansion_preserves_rhs_on_simplex() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .constant("x", -0.25)
            .term("x", 1.0, &[("y", 1)])
            .term("y", -1.0, &[("y", 1)])
            .constant("y", 0.25)
            .build()
            .unwrap();
        let expanded = expand_constant_terms(&sys).unwrap();
        // On the simplex (x + y + z = 1) the two systems agree.
        let state = [0.2, 0.3, 0.5];
        let a = sys.eval_rhs(&state);
        let b = expanded.eval_rhs(&state);
        for (ai, bi) in a.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12);
        }
        // And no constant terms remain.
        assert!(expanded
            .equations()
            .iter()
            .flat_map(|p| p.terms())
            .all(|t| !t.is_constant()));
    }

    #[test]
    fn expansion_makes_constant_system_restricted_capable_of_pairing() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .constant("x", -0.5)
            .constant("y", 0.5)
            .build()
            .unwrap();
        let expanded = expand_constant_terms(&sys).unwrap();
        assert!(taxonomy::is_complete(&expanded));
        assert!(taxonomy::partition(&expanded).is_total());
    }

    #[test]
    fn expansion_is_identity_without_constants() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let expanded = expand_constant_terms(&sys).unwrap();
        assert_eq!(expanded, sys);
    }
}

//! Signed polynomial terms `±c · Π yᵢ^{eᵢ}`.
//!
//! A [`Term`] is the atomic building block of the paper's polynomial
//! right-hand sides: a signed coefficient together with one non-negative
//! integer exponent per system variable. The sign of the coefficient carries
//! the `±` of the paper's `±c_T Π y^{i_y}` notation; the paper's `c_T` is the
//! coefficient's magnitude.

use std::fmt;

/// A single signed polynomial term over a fixed, ordered set of variables.
///
/// The term stores one exponent per variable of the enclosing
/// [`EquationSystem`](crate::EquationSystem); variable identity is positional
/// (index `i` is the system's `i`-th variable). Construct terms through
/// [`Term::new`] or, more conveniently, through
/// [`EquationSystemBuilder::term`](crate::EquationSystemBuilder::term).
///
/// # Examples
///
/// ```
/// use odekit::Term;
///
/// // -2.5 * x0 * x1^2 over a 3-variable system
/// let t = Term::new(-2.5, vec![1, 2, 0]);
/// assert_eq!(t.occurrences(), 3);
/// assert_eq!(t.exponent(1), 2);
/// assert_eq!(t.magnitude(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Term {
    coeff: f64,
    exponents: Vec<u32>,
}

impl Term {
    /// Creates a term with the given signed coefficient and per-variable exponents.
    pub fn new(coeff: f64, exponents: Vec<u32>) -> Self {
        Term { coeff, exponents }
    }

    /// Creates a constant term (all exponents zero) over `dim` variables.
    pub(crate) fn constant(coeff: f64, dim: usize) -> Self {
        Term {
            coeff,
            exponents: vec![0; dim],
        }
    }

    /// Creates the term `coeff * x_var` over `dim` variables.
    pub fn linear(coeff: f64, var: usize, dim: usize) -> Self {
        let mut exps = vec![0; dim];
        exps[var] = 1;
        Term {
            coeff,
            exponents: exps,
        }
    }

    /// The signed coefficient of the term.
    pub(crate) fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The magnitude `c_T` of the coefficient (the paper's positive constant).
    pub fn magnitude(&self) -> f64 {
        self.coeff.abs()
    }

    /// `true` if the coefficient is strictly negative.
    pub(crate) fn is_negative(&self) -> bool {
        self.coeff < 0.0
    }

    /// `true` if the coefficient is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.coeff == 0.0
    }

    /// `true` if every exponent is zero, i.e. the term is a constant.
    pub fn is_constant(&self) -> bool {
        self.exponents.iter().all(|&e| e == 0)
    }

    /// The number of variables this term is defined over.
    pub(crate) fn dim(&self) -> usize {
        self.exponents.len()
    }

    /// The exponent of variable `var` in this term.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.dim()`.
    pub fn exponent(&self, var: usize) -> u32 {
        self.exponents[var]
    }

    /// The full exponent vector (the monomial), one entry per variable.
    pub(crate) fn exponents(&self) -> &[u32] {
        &self.exponents
    }

    /// Sum of all exponents (the total degree of the monomial).
    pub(crate) fn total_degree(&self) -> u32 {
        self.exponents.iter().sum()
    }

    /// Total number of variable *occurrences* in the term — the paper's `|T|`.
    ///
    /// This is the term's total degree, under the paper's name, because the failure-compensation factor of
    /// Section 3 is expressed as `(1/(1-f))^(|T|-1)`.
    pub fn occurrences(&self) -> u32 {
        self.total_degree()
    }

    /// Evaluates the term at the given state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.dim()`.
    pub(crate) fn eval(&self, state: &[f64]) -> f64 {
        assert_eq!(state.len(), self.dim(), "state vector has wrong dimension");
        let mut v = self.coeff;
        for (x, &e) in state.iter().zip(&self.exponents) {
            if e > 0 {
                v *= x.powi(e as i32);
            }
        }
        v
    }

    /// Returns the term with its coefficient negated.
    pub fn negated(&self) -> Term {
        Term {
            coeff: -self.coeff,
            exponents: self.exponents.clone(),
        }
    }

    /// The partial derivative of this term with respect to variable `var`.
    ///
    /// Returns a term over the same variable set; if the variable does not
    /// occur, the result is the zero constant term.
    pub(crate) fn differentiate(&self, var: usize) -> Term {
        let e = self.exponents[var];
        if e == 0 {
            return Term::constant(0.0, self.dim());
        }
        let mut exps = self.exponents.clone();
        exps[var] = e - 1;
        Term {
            coeff: self.coeff * f64::from(e),
            exponents: exps,
        }
    }

    /// `true` if the two terms have the same monomial (identical exponent vectors).
    pub(crate) fn same_monomial(&self, other: &Term) -> bool {
        self.exponents == other.exponents
    }

    /// `true` if `other` is the exact opposite of this term (same monomial,
    /// coefficients of equal magnitude and opposite sign) within a relative
    /// tolerance `tol`.
    pub(crate) fn cancels_with(&self, other: &Term, tol: f64) -> bool {
        if !self.same_monomial(other) {
            return false;
        }
        let sum = self.coeff + other.coeff;
        let scale = self.magnitude().max(other.magnitude()).max(1e-300);
        sum.abs() <= tol * scale
    }

    /// Renders the term using the given variable names.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != self.dim()`.
    pub(crate) fn render(&self, names: &[String]) -> String {
        assert_eq!(names.len(), self.dim(), "name list has wrong dimension");
        let mut parts = Vec::new();
        let c = self.coeff;
        if self.is_constant() || (c - 1.0).abs() > 1e-12 && (c + 1.0).abs() > 1e-12 {
            parts.push(format!("{c}"));
        } else if c < 0.0 {
            parts.push("-1".to_string());
        }
        for (name, &e) in names.iter().zip(&self.exponents) {
            match e {
                0 => {}
                1 => parts.push(name.clone()),
                _ => parts.push(format!("{name}^{e}")),
            }
        }
        if parts.is_empty() {
            parts.push(format!("{c}"));
        }
        parts.join("*")
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.dim()).map(|i| format!("x{i}")).collect();
        write!(f, "{}", self.render(&names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_term_has_zero_degree() {
        let t = Term::constant(4.0, 3);
        assert!(t.is_constant());
        assert_eq!(t.total_degree(), 0);
        assert_eq!(t.eval(&[10.0, 20.0, 30.0]), 4.0);
    }

    #[test]
    fn linear_term_evaluates() {
        let t = Term::linear(-0.5, 1, 3);
        assert_eq!(t.eval(&[1.0, 6.0, 2.0]), -3.0);
        assert_eq!(t.exponent(1), 1);
    }

    #[test]
    fn eval_respects_powers() {
        let t = Term::new(2.0, vec![2, 0, 3]);
        assert_eq!(t.eval(&[3.0, 100.0, 2.0]), 2.0 * 9.0 * 8.0);
        assert_eq!(t.total_degree(), 5);
        assert_eq!(t.occurrences(), 5);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn eval_panics_on_dim_mismatch() {
        Term::new(1.0, vec![1, 1]).eval(&[1.0]);
    }

    #[test]
    fn differentiate_power_rule() {
        // d/dx0 (5 x0^3 x1) = 15 x0^2 x1
        let t = Term::new(5.0, vec![3, 1]);
        let d = t.differentiate(0);
        assert_eq!(d.coeff(), 15.0);
        assert_eq!(d.exponents(), &[2, 1]);
        // derivative w.r.t. a missing variable is zero
        let t2 = Term::new(5.0, vec![0, 1]);
        assert!(t2.differentiate(0).is_zero());
    }

    #[test]
    fn cancellation_detection() {
        let a = Term::new(0.3, vec![1, 1]);
        let b = Term::new(-0.3, vec![1, 1]);
        let c = Term::new(-0.3, vec![1, 0]);
        assert!(a.cancels_with(&b, 1e-12));
        assert!(!a.cancels_with(&c, 1e-12));
        assert!(!a.cancels_with(&a, 1e-12));
    }

    #[test]
    fn negated() {
        let t = Term::new(2.0, vec![1]);
        assert_eq!(t.negated().coeff(), -2.0);
        assert!(t.negated().same_monomial(&t));
    }

    #[test]
    fn render_uses_names() {
        let t = Term::new(-4.0, vec![1, 1, 0]);
        let names: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        assert_eq!(t.render(&names), "-4*x*y");
        let one = Term::new(1.0, vec![0, 1, 0]);
        assert_eq!(one.render(&names), "y");
    }

    #[test]
    fn display_is_nonempty() {
        let t = Term::constant(0.0, 2);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}

//! Multivariate polynomials as sums of signed [`Term`]s.

use crate::term::Term;
use std::fmt;

/// A polynomial in the system variables, stored as a list of signed terms.
///
/// The representation deliberately keeps terms **unsimplified by default**:
/// the paper's mapping rules operate on the individual terms as written (e.g.
/// the LV system writes `+3xy + 3xy` rather than `+6xy`, producing two
/// distinct tokenized actions), so like terms are only combined where a
/// check needs it, never as an invariant.
///
/// # Examples
///
/// ```
/// use odekit::{Polynomial, Term};
///
/// // f(x, y) = -x*y + 0.5*y
/// let mut f = Polynomial::zero();
/// f.push(Term::new(-1.0, vec![1, 1]));
/// f.push(Term::new(0.5, vec![0, 1]));
/// assert_eq!(f.terms().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Polynomial {
    terms: Vec<Term>,
}

impl Polynomial {
    /// The zero polynomial (no terms).
    pub fn zero() -> Self {
        Polynomial { terms: Vec::new() }
    }

    /// Builds a polynomial from a list of terms.
    ///
    /// Zero-coefficient terms are dropped; everything else is kept verbatim
    /// (no like-term combination).
    pub(crate) fn from_terms(terms: Vec<Term>) -> Self {
        Polynomial {
            terms: terms.into_iter().filter(|t| !t.is_zero()).collect(),
        }
    }

    /// The terms of the polynomial in insertion order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// `true` if the polynomial has no terms.
    pub(crate) fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The dimension (number of variables) the polynomial is defined over, or
    /// `None` if it has no terms.
    pub(crate) fn dim(&self) -> Option<usize> {
        self.terms.first().map(Term::dim)
    }

    /// Appends a term (zero-coefficient terms are ignored).
    pub fn push(&mut self, term: Term) {
        if !term.is_zero() {
            self.terms.push(term);
        }
    }

    /// Evaluates the polynomial at the given state vector.
    ///
    /// # Panics
    ///
    /// Panics if any term's dimension differs from `state.len()`.
    pub(crate) fn eval(&self, state: &[f64]) -> f64 {
        self.terms.iter().map(|t| t.eval(state)).sum()
    }

    /// Returns the sum of this polynomial and `other`.
    pub(crate) fn add(&self, other: &Polynomial) -> Polynomial {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        Polynomial::from_terms(terms)
    }

    /// Returns this polynomial with every term negated.
    pub(crate) fn negated(&self) -> Polynomial {
        Polynomial {
            terms: self.terms.iter().map(Term::negated).collect(),
        }
    }

    /// The partial derivative with respect to variable `var`.
    pub(crate) fn differentiate(&self, var: usize) -> Polynomial {
        Polynomial::from_terms(self.terms.iter().map(|t| t.differentiate(var)).collect())
    }

    /// Returns an equivalent polynomial with like terms combined and
    /// (numerically) cancelled terms removed.
    ///
    /// Terms whose combined coefficient has magnitude below `tol` (relative to
    /// the largest coefficient magnitude among the combined terms, or
    /// absolute if all are tiny) are dropped.
    pub(crate) fn simplified(&self, tol: f64) -> Polynomial {
        let mut combined: Vec<Term> = Vec::new();
        for t in &self.terms {
            if let Some(existing) = combined.iter_mut().find(|c| c.same_monomial(t)) {
                *existing = Term::new(existing.coeff() + t.coeff(), t.exponents().to_vec());
            } else {
                combined.push(t.clone());
            }
        }
        let max_mag = self
            .terms
            .iter()
            .map(Term::magnitude)
            .fold(0.0_f64, f64::max)
            .max(1.0);
        Polynomial {
            terms: combined
                .into_iter()
                .filter(|t| t.magnitude() > tol * max_mag)
                .collect(),
        }
    }

    /// Renders the polynomial using the given variable names.
    pub(crate) fn render(&self, names: &[String]) -> String {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (i, t) in self.terms.iter().enumerate() {
            let rendered = t.render(names);
            if i == 0 {
                out.push_str(&rendered);
            } else if rendered.starts_with('-') {
                out.push_str(" - ");
                out.push_str(rendered.trim_start_matches('-'));
            } else {
                out.push_str(" + ");
                out.push_str(&rendered);
            }
        }
        out
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dim = self.dim().unwrap_or(0);
        let names: Vec<String> = (0..dim).map(|i| format!("x{i}")).collect();
        write!(f, "{}", self.render(&names))
    }
}

impl FromIterator<Term> for Polynomial {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        Polynomial::from_terms(iter.into_iter().collect())
    }
}

impl Extend<Term> for Polynomial {
    fn extend<I: IntoIterator<Item = Term>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy(coeff: f64) -> Term {
        Term::new(coeff, vec![1, 1])
    }

    #[test]
    fn zero_polynomial() {
        let p = Polynomial::zero();
        assert!(p.is_zero());
        assert_eq!(p.eval(&[1.0, 2.0]), 0.0);
        assert_eq!(p.to_string(), "0");
    }

    #[test]
    fn from_terms_drops_zero_coefficients() {
        let p = Polynomial::from_terms(vec![xy(0.0), xy(2.0)]);
        assert_eq!(p.terms().len(), 1);
    }

    #[test]
    fn eval_sums_terms() {
        let p = Polynomial::from_terms(vec![xy(-1.0), Term::new(0.5, vec![0, 1])]);
        assert_eq!(p.eval(&[2.0, 4.0]), -8.0 + 2.0);
    }

    #[test]
    fn add_and_negate() {
        let p = Polynomial::from_terms(vec![xy(1.0)]);
        let q = p.negated();
        let sum = p.add(&q);
        assert!(sum.simplified(1e-12).is_zero());
    }

    #[test]
    fn differentiate_is_linear() {
        // d/dy (-x*y + 0.5*y) = -x + 0.5
        let p = Polynomial::from_terms(vec![xy(-1.0), Term::new(0.5, vec![0, 1])]);
        let d = p.differentiate(1);
        assert_eq!(d.eval(&[3.0, 99.0]), -3.0 + 0.5);
    }

    #[test]
    fn simplified_combines_like_terms() {
        let p = Polynomial::from_terms(vec![xy(3.0), xy(3.0), Term::new(1.0, vec![2, 0])]);
        let s = p.simplified(1e-12);
        assert_eq!(s.terms().len(), 2);
        assert_eq!(s.eval(&[1.0, 1.0]), 7.0);
        // The unsimplified polynomial keeps both 3xy terms, as the paper's
        // LV rewrite requires.
        assert_eq!(p.terms().len(), 3);
    }

    #[test]
    fn render_with_names() {
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let p = Polynomial::from_terms(vec![xy(-1.0), Term::new(0.5, vec![0, 1])]);
        assert_eq!(p.render(&names), "-1*x*y + 0.5*y");
    }

    #[test]
    fn collect_from_iterator() {
        let p: Polynomial = (0..3).map(|i| Term::linear(1.0, i, 3)).collect();
        assert_eq!(p.terms().len(), 3);
        let mut q = Polynomial::zero();
        q.extend(vec![Term::constant(1.0, 3)]);
        assert_eq!(q.terms().len(), 1);
    }
}

//! The paper's taxonomy of equation systems (Section 2).
//!
//! Four properties are defined over a system `Ẋ = f(X)` with polynomial
//! right-hand sides:
//!
//! * **polynomial** — every `f_x` is a sum of terms `±c_T Π y^{i_y}` with
//!   non-negative integer exponents (guaranteed by construction here, but the
//!   check also verifies coefficients are finite and non-zero);
//! * **complete** — `Σ_x f_x(X) ≡ 0`;
//! * **completely partitionable** — complete, *and* all terms can be grouped
//!   into pairs that each sum to zero;
//! * **restricted polynomial** — polynomial, and every negative term
//!   `-c_T Π y^{i_y}` occurring in `f_x` has `i_x ≥ 1` (the variable losing
//!   mass appears in the term, so the *process in state x* can execute the
//!   action locally).
//!
//! The [`partition`] function computes the actual pairing of terms; the
//! ODE→protocol compiler in `dpde-core` consumes this pairing to decide, for
//! every negative term, which state the corresponding transition enters.

use crate::system::{EquationSystem, VarId};
use crate::term::Term;

/// Default relative tolerance used when matching term coefficients.
pub(crate) const DEFAULT_TOL: f64 = 1e-9;

/// A reference to one term inside an equation system: variable (equation) and
/// position of the term within that equation's polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TermRef {
    /// The variable whose equation contains the term.
    pub var: VarId,
    /// Index of the term within that equation's term list.
    pub index: usize,
}

impl TermRef {
    /// Resolves the reference against a system.
    ///
    /// # Panics
    ///
    /// Panics if the reference does not point into `sys`.
    pub fn resolve<'a>(&self, sys: &'a EquationSystem) -> &'a Term {
        &sys.equation(self.var).terms()[self.index]
    }
}

/// A matched pair of terms that sum to zero: one negative, one positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TermPair {
    /// The negative term (outflow from `negative.var`).
    pub negative: TermRef,
    /// The matching positive term (inflow into `positive.var`).
    pub positive: TermRef,
}

/// The result of attempting to pair up all terms of a system.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Pairs of terms that cancel exactly.
    pub pairs: Vec<TermPair>,
    /// Terms that could not be matched with an opposite-signed partner.
    pub unpaired: Vec<TermRef>,
}

impl Partition {
    /// `true` if every term found a partner.
    pub(crate) fn is_total(&self) -> bool {
        self.unpaired.is_empty()
    }
}

/// A full classification report for an equation system.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyReport {
    /// Every right-hand side is a finite-coefficient polynomial.
    pub polynomial: bool,
    /// The right-hand sides sum to zero.
    pub complete: bool,
    /// Complete and all terms pair up.
    pub completely_partitionable: bool,
    /// Every negative term in `f_x` contains `x`.
    pub restricted_polynomial: bool,
    /// Terms violating the restricted-polynomial condition.
    pub restricted_violations: Vec<TermRef>,
    /// Terms left unpaired by the partition attempt.
    pub unpaired_terms: Vec<TermRef>,
}

impl TaxonomyReport {
    /// `true` if the system can be mapped with Flipping + One-Time-Sampling
    /// alone (Theorem 1): restricted polynomial and completely partitionable.
    pub fn mappable_without_tokens(&self) -> bool {
        self.restricted_polynomial && self.completely_partitionable
    }

    /// `true` if the system can be mapped at all by the paper's framework
    /// (Theorem 5, as corrected by the errata): polynomial and completely
    /// partitionable, possibly requiring Tokenizing.
    pub fn mappable(&self) -> bool {
        self.polynomial && self.completely_partitionable
    }
}

/// Checks that every right-hand side is a polynomial with finite coefficients.
///
/// The representation already guarantees non-negative integer exponents, so
/// this only rejects non-finite coefficients.
pub(crate) fn is_polynomial(sys: &EquationSystem) -> bool {
    sys.equations()
        .iter()
        .flat_map(|p| p.terms())
        .all(|t| t.coeff().is_finite())
}

/// Checks the *complete* property: `Σ_x f_x(X) ≡ 0` (after combining like
/// terms, with relative tolerance `1e-9`).
pub fn is_complete(sys: &EquationSystem) -> bool {
    is_complete_with_tol(sys, DEFAULT_TOL)
}

/// [`is_complete`] with an explicit coefficient tolerance.
pub(crate) fn is_complete_with_tol(sys: &EquationSystem, tol: f64) -> bool {
    sys.rhs_sum().simplified(tol).is_zero()
}

/// Checks the *restricted polynomial* property: every negative term in `f_x`
/// has `i_x ≥ 1`.
pub fn is_restricted_polynomial(sys: &EquationSystem) -> bool {
    restricted_violations(sys).is_empty()
}

/// Returns references to every negative term that violates the restricted-
/// polynomial condition (i.e. does not contain its own equation's variable).
pub(crate) fn restricted_violations(sys: &EquationSystem) -> Vec<TermRef> {
    let mut out = Vec::new();
    for var in sys.var_ids() {
        for (index, term) in sys.equation(var).terms().iter().enumerate() {
            if term.is_negative() && term.exponent(var.index()) == 0 {
                out.push(TermRef { var, index });
            }
        }
    }
    out
}

/// Attempts to group all terms of the system into cancelling pairs.
///
/// Each negative term is matched greedily with an unused positive term that
/// has the same monomial and a coefficient of equal magnitude (within relative
/// tolerance `tol`). Partners in a *different* equation are preferred — those
/// are the pairs the compiler can turn into state transitions — but a partner
/// in the same equation is accepted as a last resort (it represents a no-op
/// flow and is dropped by the compiler).
pub(crate) fn partition_with_tol(sys: &EquationSystem, tol: f64) -> Partition {
    // Collect references to all positive and negative terms.
    let mut positives: Vec<(TermRef, bool)> = Vec::new(); // (ref, used)
    let mut negatives: Vec<TermRef> = Vec::new();
    let mut zero_or_unsigned: Vec<TermRef> = Vec::new();
    for var in sys.var_ids() {
        for (index, term) in sys.equation(var).terms().iter().enumerate() {
            let r = TermRef { var, index };
            if term.is_zero() {
                zero_or_unsigned.push(r);
            } else if term.is_negative() {
                negatives.push(r);
            } else {
                positives.push((r, false));
            }
        }
    }

    let mut pairs = Vec::new();
    let mut unpaired = Vec::new();

    for neg_ref in negatives {
        let neg = neg_ref.resolve(sys);
        // First pass: prefer a partner in a different equation.
        let mut chosen: Option<usize> = None;
        for (i, (pos_ref, used)) in positives.iter().enumerate() {
            if *used || pos_ref.var == neg_ref.var {
                continue;
            }
            if neg.cancels_with(pos_ref.resolve(sys), tol) {
                chosen = Some(i);
                break;
            }
        }
        // Second pass: accept a same-equation partner.
        if chosen.is_none() {
            for (i, (pos_ref, used)) in positives.iter().enumerate() {
                if *used {
                    continue;
                }
                if neg.cancels_with(pos_ref.resolve(sys), tol) {
                    chosen = Some(i);
                    break;
                }
            }
        }
        match chosen {
            Some(i) => {
                positives[i].1 = true;
                pairs.push(TermPair {
                    negative: neg_ref,
                    positive: positives[i].0,
                });
            }
            None => unpaired.push(neg_ref),
        }
    }

    // Positive terms never matched are unpaired too.
    unpaired.extend(positives.iter().filter(|(_, used)| !used).map(|(r, _)| *r));
    unpaired.extend(zero_or_unsigned);
    Partition { pairs, unpaired }
}

/// The term pairing of a completely partitionable system, with relative
/// tolerance `1e-9`.
pub fn partition(sys: &EquationSystem) -> Partition {
    partition_with_tol(sys, DEFAULT_TOL)
}

/// Checks the *completely partitionable* property: complete, and all terms
/// pair up into cancelling pairs.
pub fn is_completely_partitionable(sys: &EquationSystem) -> bool {
    is_complete(sys) && partition(sys).is_total()
}

/// Produces a full [`TaxonomyReport`] for the system.
pub fn classify(sys: &EquationSystem) -> TaxonomyReport {
    let polynomial = is_polynomial(sys);
    let complete = is_complete(sys);
    let part = partition(sys);
    let restricted_violations_list = restricted_violations(sys);
    TaxonomyReport {
        polynomial,
        complete,
        completely_partitionable: complete && part.is_total(),
        restricted_polynomial: restricted_violations_list.is_empty(),
        restricted_violations: restricted_violations_list,
        unpaired_terms: part.unpaired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EquationSystemBuilder;

    fn epidemic() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

    fn endemic() -> EquationSystem {
        // x' = -βxy + αz ; y' = βxy - γy ; z' = γy - αz
        let (beta, gamma, alpha) = (4.0, 1.0, 0.01);
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

    /// The LV system in the rewritten form of eq. (7).
    fn lv_rewritten() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", 3.0, &[("x", 1), ("z", 1)])
            .term("x", -3.0, &[("x", 1), ("y", 1)])
            .term("y", 3.0, &[("y", 1), ("z", 1)])
            .term("y", -3.0, &[("x", 1), ("y", 1)])
            .term("z", -3.0, &[("x", 1), ("z", 1)])
            .term("z", -3.0, &[("y", 1), ("z", 1)])
            .term("z", 3.0, &[("x", 1), ("y", 1)])
            .term("z", 3.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn epidemic_is_fully_mappable() {
        let sys = epidemic();
        let report = classify(&sys);
        assert!(report.polynomial);
        assert!(report.complete);
        assert!(report.completely_partitionable);
        assert!(report.restricted_polynomial);
        assert!(report.mappable_without_tokens());
        assert!(report.mappable());
    }

    #[test]
    fn endemic_is_fully_mappable() {
        let report = classify(&endemic());
        assert!(report.mappable_without_tokens());
        assert!(report.unpaired_terms.is_empty());
        assert!(report.restricted_violations.is_empty());
    }

    #[test]
    fn lv_rewritten_is_fully_mappable() {
        let sys = lv_rewritten();
        assert!(is_complete(&sys));
        assert!(is_restricted_polynomial(&sys));
        let p = partition(&sys);
        assert!(p.is_total());
        // 8 terms → 4 pairs.
        assert_eq!(p.pairs.len(), 4);
    }

    #[test]
    fn lv_original_form_is_not_partitionable() {
        // x' = 3x(1 - x - 2y) = 3x - 3x² - 6xy ;  y' symmetric (no z)
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
        assert!(!is_complete(&sys));
        assert!(!is_completely_partitionable(&sys));
    }

    #[test]
    fn partition_prefers_cross_equation_partner() {
        let sys = endemic();
        let part = partition(&sys);
        assert!(part.is_total());
        for pair in &part.pairs {
            assert_ne!(
                pair.negative.var, pair.positive.var,
                "pairs should cross equations"
            );
        }
    }

    #[test]
    fn restricted_violation_detected() {
        // x' = -y (x loses mass through a term not containing x), y' = +y... not complete;
        // make it complete: x' = -y, y' = y is complete? sum = 0? -y + y = 0 yes.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("y", 1)])
            .term("y", 1.0, &[("y", 1)])
            .build()
            .unwrap();
        assert!(is_complete(&sys));
        assert!(!is_restricted_polynomial(&sys));
        let v = restricted_violations(&sys);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].var, sys.var("x").unwrap());
        let report = classify(&sys);
        assert!(report.mappable());
        assert!(!report.mappable_without_tokens());
    }

    #[test]
    fn constant_negative_term_is_a_violation() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .constant("x", -0.5)
            .constant("y", 0.5)
            .build()
            .unwrap();
        assert!(is_complete(&sys));
        assert!(!is_restricted_polynomial(&sys));
        assert!(is_completely_partitionable(&sys));
    }

    #[test]
    fn incomplete_system_detected() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", 0.5, &[("x", 1)])
            .build()
            .unwrap();
        assert!(!is_complete(&sys));
        let part = partition(&sys);
        assert!(!part.is_total());
        assert_eq!(part.unpaired.len(), 2);
    }

    #[test]
    fn non_finite_coefficient_is_not_polynomial() {
        // Construct via Polynomial directly (builder rejects NaN).
        use crate::poly::Polynomial;
        use crate::term::Term;
        let p = Polynomial::from_terms(vec![Term::new(f64::INFINITY, vec![1])]);
        let sys = EquationSystem::new(vec!["x".into()], vec![p]).unwrap();
        assert!(!is_polynomial(&sys));
    }

    #[test]
    fn duplicate_identical_terms_pair_independently() {
        // z' has two +3xy terms (as in the LV rewrite); each must find its own partner.
        let sys = lv_rewritten();
        let part = partition(&sys);
        let z = sys.var("z").unwrap();
        let pos_into_z: Vec<_> = part.pairs.iter().filter(|p| p.positive.var == z).collect();
        assert_eq!(pos_into_z.len(), 2, "both +3xy copies in z' are matched");
        // They must be matched to *different* negative terms.
        assert_ne!(pos_into_z[0].negative, pos_into_z[1].negative);
    }

    #[test]
    fn term_ref_resolve() {
        let sys = epidemic();
        let r = TermRef {
            var: sys.var("x").unwrap(),
            index: 0,
        };
        assert_eq!(r.resolve(&sys).coeff(), -1.0);
    }
}

//! Systems of first-order polynomial ODEs `Ẋ = f(X)`.

use crate::error::OdeError;
use crate::poly::Polynomial;
use crate::term::Term;
use crate::Result;
use std::fmt;

/// Identifier of a variable within an [`EquationSystem`].
///
/// Variables are identified positionally; a `VarId` is only meaningful with
/// respect to the system that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VarId(usize);

impl VarId {
    /// The positional index of the variable within its system.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for VarId {
    fn from(index: usize) -> Self {
        VarId(index)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A system of first-order, degree-one ODEs with polynomial right-hand sides.
///
/// This is the paper's `Ẋ = f̄(X̄)`: an ordered set of variables together with
/// one [`Polynomial`] right-hand side per variable. Variable order matters —
/// the paper's One-Time-Sampling rule orders sampled targets lexicographically,
/// and this crate preserves whatever order the caller declares (the
/// [`EquationSystemBuilder`] declares variables in call order).
///
/// # Examples
///
/// ```
/// use odekit::EquationSystemBuilder;
///
/// // The endemic system of the paper (eq. 1), with β=4, γ=1, α=0.01:
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y", "z"])
///     .term("x", -4.0, &[("x", 1), ("y", 1)])
///     .term("x", 0.01, &[("z", 1)])
///     .term("y", 4.0, &[("x", 1), ("y", 1)])
///     .term("y", -1.0, &[("y", 1)])
///     .term("z", 1.0, &[("y", 1)])
///     .term("z", -0.01, &[("z", 1)])
///     .build()?;
/// assert_eq!(sys.dim(), 3);
/// let rhs = sys.eval_rhs(&[0.25, 0.5, 0.25]);
/// assert!((rhs[0] - (-4.0 * 0.25 * 0.5 + 0.01 * 0.25)).abs() < 1e-12);
/// # Ok::<(), odekit::OdeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EquationSystem {
    names: Vec<String>,
    equations: Vec<Polynomial>,
}

impl EquationSystem {
    /// Creates a system directly from variable names and equations.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::EmptySystem`] if `names` is empty,
    /// [`OdeError::DuplicateVariable`] if a name repeats, and
    /// [`OdeError::DimensionMismatch`] if `equations.len() != names.len()` or
    /// any term's dimension differs from the number of variables.
    pub fn new(names: Vec<String>, equations: Vec<Polynomial>) -> Result<Self> {
        if names.is_empty() {
            return Err(OdeError::EmptySystem);
        }
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(OdeError::DuplicateVariable(n.clone()));
            }
        }
        if equations.len() != names.len() {
            return Err(OdeError::DimensionMismatch {
                expected: names.len(),
                actual: equations.len(),
            });
        }
        for eq in &equations {
            for t in eq.terms() {
                if t.dim() != names.len() {
                    return Err(OdeError::DimensionMismatch {
                        expected: names.len(),
                        actual: t.dim(),
                    });
                }
            }
        }
        Ok(EquationSystem { names, equations })
    }

    /// Number of variables (= number of equations).
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// The variable names, in declaration order.
    pub fn var_names(&self) -> &[String] {
        &self.names
    }

    /// The name of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// Looks up a variable by name.
    pub(crate) fn var(&self, name: &str) -> Option<VarId> {
        self.names.iter().position(|n| n == name).map(VarId)
    }

    /// All variable ids in order.
    pub(crate) fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len()).map(VarId)
    }

    /// The right-hand side polynomial `f_x` for variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub(crate) fn equation(&self, var: VarId) -> &Polynomial {
        &self.equations[var.index()]
    }

    /// All right-hand sides, in variable order.
    pub fn equations(&self) -> &[Polynomial] {
        &self.equations
    }

    /// Evaluates the full right-hand side vector `f(state)`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.dim()`.
    pub fn eval_rhs(&self, state: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.eval_rhs_into(state, &mut out);
        out
    }

    /// Evaluates the right-hand side into a caller-provided buffer (for use in
    /// tight integration loops).
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.dim()` or `out.len() != self.dim()`.
    pub(crate) fn eval_rhs_into(&self, state: &[f64], out: &mut [f64]) {
        assert_eq!(state.len(), self.dim(), "state vector has wrong dimension");
        assert_eq!(out.len(), self.dim(), "output vector has wrong dimension");
        for (o, eq) in out.iter_mut().zip(&self.equations) {
            *o = eq.eval(state);
        }
    }

    /// The polynomial `Σ_x f_x(X)` — zero for *complete* systems.
    pub(crate) fn rhs_sum(&self) -> Polynomial {
        let mut sum = Polynomial::zero();
        for eq in &self.equations {
            sum = sum.add(eq);
        }
        sum
    }

    /// The symbolic Jacobian matrix `J[i][j] = ∂f_i/∂x_j`.
    pub(crate) fn jacobian(&self) -> Vec<Vec<Polynomial>> {
        self.equations
            .iter()
            .map(|eq| (0..self.dim()).map(|j| eq.differentiate(j)).collect())
            .collect()
    }

    /// Evaluates the Jacobian at a state, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.dim()`.
    pub(crate) fn jacobian_at(&self, state: &[f64]) -> Vec<Vec<f64>> {
        self.jacobian()
            .iter()
            .map(|row| row.iter().map(|p| p.eval(state)).collect())
            .collect()
    }

    /// Renders the system as one `name' = rhs` line per variable.
    pub fn render(&self) -> String {
        self.names
            .iter()
            .zip(&self.equations)
            .map(|(n, eq)| format!("{n}' = {}", eq.render(&self.names)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for EquationSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Incremental builder for [`EquationSystem`]s.
///
/// Declare variables first (with [`vars`](Self::vars)),
/// then add terms by variable *name*; [`build`](Self::build) validates
/// everything and produces the system.
///
/// # Examples
///
/// ```
/// use odekit::EquationSystemBuilder;
///
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .term("x", -1.0, &[("x", 1), ("y", 1)])
///     .term("y", 1.0, &[("x", 1), ("y", 1)])
///     .build()?;
/// assert_eq!(sys.dim(), 2);
/// # Ok::<(), odekit::OdeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EquationSystemBuilder {
    names: Vec<String>,
    pending: Vec<PendingTerm>,
}

/// A term queued in the builder: (target variable, coefficient,
/// [(variable, exponent)]).
type PendingTerm = (String, f64, Vec<(String, u32)>);

impl EquationSystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares several variables at once.
    #[must_use]
    pub fn vars<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.names.extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds the term `coeff · Π var^exp` to the equation of `target`.
    #[must_use]
    pub fn term(mut self, target: impl Into<String>, coeff: f64, factors: &[(&str, u32)]) -> Self {
        self.pending.push((
            target.into(),
            coeff,
            factors.iter().map(|(n, e)| (n.to_string(), *e)).collect(),
        ));
        self
    }

    /// Adds a constant term `coeff` to the equation of `target`.
    #[must_use]
    pub fn constant(self, target: impl Into<String>, coeff: f64) -> Self {
        self.term(target, coeff, &[])
    }

    /// Validates and constructs the [`EquationSystem`].
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::EmptySystem`] if no variables were declared,
    /// [`OdeError::DuplicateVariable`] for repeated declarations,
    /// [`OdeError::UnknownVariable`] if a term references an undeclared
    /// variable, and [`OdeError::InvalidParameter`] if a coefficient is not
    /// finite.
    pub fn build(self) -> Result<EquationSystem> {
        if self.names.is_empty() {
            return Err(OdeError::EmptySystem);
        }
        for (i, n) in self.names.iter().enumerate() {
            if self.names[..i].contains(n) {
                return Err(OdeError::DuplicateVariable(n.clone()));
            }
        }
        let dim = self.names.len();
        let index_of = |name: &str| -> Result<usize> {
            self.names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| OdeError::UnknownVariable(name.to_string()))
        };
        let mut equations = vec![Polynomial::zero(); dim];
        for (target, coeff, factors) in &self.pending {
            if !coeff.is_finite() {
                return Err(OdeError::InvalidParameter {
                    name: "coefficient",
                    reason: format!("coefficient {coeff} for `{target}` is not finite"),
                });
            }
            let ti = index_of(target)?;
            let mut exps = vec![0u32; dim];
            for (name, exp) in factors {
                let vi = index_of(name)?;
                exps[vi] += exp;
            }
            equations[ti].push(Term::new(*coeff, exps));
        }
        EquationSystem::new(self.names, equations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epidemic() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_dimensions() {
        let sys = epidemic();
        assert_eq!(sys.dim(), 2);
        assert_eq!(sys.var_names(), &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn var_lookup() {
        let sys = epidemic();
        assert_eq!(sys.var("y"), Some(VarId(1)));
        assert_eq!(sys.var("nope"), None);
        assert_eq!(sys.var_name(VarId(0)), "x");
        assert_eq!(sys.var_ids().count(), 2);
    }

    #[test]
    fn rhs_evaluation() {
        let sys = epidemic();
        let rhs = sys.eval_rhs(&[0.9, 0.1]);
        assert!((rhs[0] + 0.09).abs() < 1e-12);
        assert!((rhs[1] - 0.09).abs() < 1e-12);
    }

    #[test]
    fn rhs_sum_is_zero_for_complete_system() {
        let sys = epidemic();
        assert!(sys.rhs_sum().simplified(1e-12).is_zero());
    }

    #[test]
    fn jacobian_of_epidemic() {
        let sys = epidemic();
        // f_x = -xy → ∂/∂x = -y, ∂/∂y = -x
        let j = sys.jacobian_at(&[0.25, 0.5]);
        assert!((j[0][0] + 0.5).abs() < 1e-12);
        assert!((j[0][1] + 0.25).abs() < 1e-12);
        assert!((j[1][0] - 0.5).abs() < 1e-12);
        assert!((j[1][1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_builder_is_error() {
        assert_eq!(
            EquationSystemBuilder::new().build().unwrap_err(),
            OdeError::EmptySystem
        );
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = EquationSystemBuilder::new()
            .vars(["x", "x"])
            .build()
            .unwrap_err();
        assert_eq!(err, OdeError::DuplicateVariable("x".to_string()));
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = EquationSystemBuilder::new()
            .vars(["x"])
            .term("x", 1.0, &[("q", 1)])
            .build()
            .unwrap_err();
        assert_eq!(err, OdeError::UnknownVariable("q".to_string()));
    }

    #[test]
    fn non_finite_coefficient_rejected() {
        let err = EquationSystemBuilder::new()
            .vars(["x"])
            .constant("x", f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, OdeError::InvalidParameter { .. }));
    }

    #[test]
    fn repeated_factor_accumulates_exponent() {
        let sys = EquationSystemBuilder::new()
            .vars(["x"])
            .term("x", 1.0, &[("x", 1), ("x", 1)])
            .build()
            .unwrap();
        assert_eq!(sys.equation(VarId(0)).terms()[0].exponent(0), 2);
    }

    #[test]
    fn render_round_trips_names() {
        let sys = epidemic();
        let text = sys.render();
        assert!(text.contains("x' ="));
        assert!(text.contains("y' ="));
        assert!(!format!("{sys}").is_empty());
    }

    #[test]
    fn direct_constructor_validates() {
        assert!(EquationSystem::new(vec![], vec![]).is_err());
        let err = EquationSystem::new(vec!["x".into()], vec![]).unwrap_err();
        assert!(matches!(err, OdeError::DimensionMismatch { .. }));
        // term of wrong dimension
        let p = Polynomial::from_terms(vec![Term::new(1.0, vec![1, 1])]);
        let err = EquationSystem::new(vec!["x".into()], vec![p]).unwrap_err();
        assert!(matches!(err, OdeError::DimensionMismatch { .. }));
    }
}

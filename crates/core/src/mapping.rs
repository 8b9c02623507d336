//! The ODE→protocol compiler (Sections 3 and 6 of the paper).
//!
//! [`ProtocolCompiler`] turns an [`EquationSystem`] that is *polynomial and
//! completely partitionable* into a [`Protocol`]:
//!
//! * a term `-c·x` in `ẋ` becomes a **Flipping** action on state `x` with coin
//!   probability `p·c`;
//! * a term `-c·x^{i_x}·Π y^{i_y}` with `i_x ≥ 1` becomes a
//!   **One-Time-Sampling** action on state `x` that samples
//!   `i_x − 1 + Σ_{y≠x} i_y` targets and requires them to match the term's
//!   variables (in lexicographic order), plus a coin with probability `p·c`;
//! * a term with `i_x = 0` (allowed only for *polynomial* systems that are not
//!   *restricted* polynomial) becomes a **Tokenizing** action hosted by some
//!   state `w` that does occur in the term: on success the executor hands a
//!   token to a process in state `x`, which then transitions.
//!
//! The destination state of every transition is determined by the term
//! pairing of the *completely partitionable* property: the positive copy of
//! the term lives in the destination variable's equation.
//!
//! The compiler also implements the paper's failure compensation ("The Effect
//! of Failures", Section 3): given a per-contact failure rate `f`, the coin
//! probability of every sampling action is multiplied by
//! `(1/(1−f))^{|T|−1}`, and the normalizing constant `p` is chosen (or
//! validated) so that every probability stays within `[0, 1]`.

use crate::action::Action;
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use odekit::rewrite::expand_constant_terms;
use odekit::system::EquationSystem;
use odekit::taxonomy;

/// Computes the paper's failure-compensation factor `(1/(1−f))^(|T|−1)` for a
/// term with `occurrences` variable occurrences under per-contact failure
/// rate `f`.
///
/// # Errors
///
/// Returns an error unless `0 ≤ f < 1`.
pub(crate) fn compensation_factor(f: f64, occurrences: u32) -> Result<f64> {
    if !(f.is_finite() && (0.0..1.0).contains(&f)) {
        return Err(CoreError::InvalidConfig {
            name: "connection_failure_rate",
            reason: format!("failure rate must lie in [0, 1), got {f}"),
        });
    }
    Ok((1.0 / (1.0 - f)).powi(occurrences.saturating_sub(1) as i32))
}

/// Configurable compiler from equation systems to protocols.
///
/// # Examples
///
/// Compile the epidemic equations into the canonical pull protocol:
///
/// ```
/// use dpde_core::ProtocolCompiler;
/// use odekit::EquationSystemBuilder;
///
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .term("x", -1.0, &[("x", 1), ("y", 1)])
///     .term("y", 1.0, &[("x", 1), ("y", 1)])
///     .build()?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// assert_eq!(protocol.num_states(), 2);
/// // State x carries one action: sample a member, and if it is infected (y),
/// // become infected.
/// let x = protocol.require_state("x")?;
/// assert_eq!(protocol.actions(x).len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolCompiler {
    name: String,
    normalizing_constant: Option<f64>,
    connection_failure_rate: f64,
}

impl ProtocolCompiler {
    /// Creates a compiler with default settings: automatic normalizing
    /// constant and no failure compensation.
    pub fn new(name: impl Into<String>) -> Self {
        ProtocolCompiler {
            name: name.into(),
            normalizing_constant: None,
            connection_failure_rate: 0.0,
        }
    }

    /// Fixes the normalizing constant `p` instead of letting the compiler pick
    /// the largest feasible value.
    #[must_use]
    pub fn with_normalizing_constant(mut self, p: f64) -> Self {
        self.normalizing_constant = Some(p);
        self
    }

    /// Enables failure compensation for the given group-wide per-contact
    /// failure rate `f` (Section 3, "The Effect of Failures").
    #[must_use]
    pub fn with_failure_compensation(mut self, f: f64) -> Self {
        self.connection_failure_rate = f;
        self
    }

    /// Compiles the equation system into a protocol. Constant terms are
    /// first rewritten `±c → ±c·Σv`, so every term contains a variable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotMappable`] if the system is not polynomial /
    /// complete / completely partitionable, and
    /// [`CoreError::NormalizationImpossible`] if no (or the requested)
    /// normalizing constant keeps all probabilities within `[0, 1]`.
    pub fn compile(&self, sys: &EquationSystem) -> Result<Protocol> {
        // Rewrite constant terms so every term contains a variable.
        let has_constant_terms = sys
            .equations()
            .iter()
            .flat_map(|p| p.terms())
            .any(|t| t.is_constant() && !t.is_zero());
        let rewritten;
        let sys = if has_constant_terms {
            rewritten = expand_constant_terms(sys)?;
            &rewritten
        } else {
            sys
        };

        let report = taxonomy::classify(sys);
        if !report.polynomial {
            return Err(CoreError::NotMappable {
                requirement: "polynomial",
                detail: "a coefficient is not finite".into(),
            });
        }
        if !report.complete {
            return Err(CoreError::NotMappable {
                requirement: "complete",
                detail: "the right-hand sides do not sum to zero; apply rewrite::complete first"
                    .into(),
            });
        }
        if !report.completely_partitionable {
            return Err(CoreError::NotMappable {
                requirement: "completely partitionable",
                detail: format!(
                    "{} term(s) have no cancelling partner",
                    report.unpaired_terms.len()
                ),
            });
        }

        let partition = taxonomy::partition(sys);

        // Lexicographic order of the *other* variables, as the paper's
        // One-Time-Sampling rule requires.
        let mut lex_order: Vec<usize> = (0..sys.dim()).collect();
        lex_order.sort_by(|a, b| sys.var_names()[*a].cmp(&sys.var_names()[*b]));

        // First pass: build action blueprints with their effective rates.
        struct Blueprint {
            host: StateId,
            rate: f64,
            kind: BlueprintKind,
        }
        enum BlueprintKind {
            Flip {
                to: StateId,
            },
            Sample {
                required: Vec<StateId>,
                to: StateId,
            },
            Tokenize {
                required: Vec<StateId>,
                token_state: StateId,
                to: StateId,
            },
        }

        let mut blueprints: Vec<Blueprint> = Vec::new();
        for pair in &partition.pairs {
            let x = pair.negative.var;
            let dest = pair.positive.var;
            if x == dest {
                // A term cancelling within its own equation is a no-op flow.
                continue;
            }
            let term = pair.negative.resolve(sys);
            let c = term.magnitude();
            let occurrences = term.occurrences();
            let comp = compensation_factor(self.connection_failure_rate, occurrences)?;
            let rate = c * comp;
            let i_x = term.exponent(x.index());
            let to = StateId::new(dest.index());

            if i_x >= 1 {
                // Flipping / One-Time-Sampling hosted by state x.
                let mut required: Vec<StateId> = Vec::new();
                for _ in 1..i_x {
                    required.push(StateId::new(x.index()));
                }
                for &v in &lex_order {
                    if v == x.index() {
                        continue;
                    }
                    for _ in 0..term.exponent(v) {
                        required.push(StateId::new(v));
                    }
                }
                let host = StateId::new(x.index());
                let kind = if required.is_empty() {
                    BlueprintKind::Flip { to }
                } else {
                    BlueprintKind::Sample { required, to }
                };
                blueprints.push(Blueprint { host, rate, kind });
            } else {
                // Tokenizing: hosted by the lexicographically smallest variable
                // occurring in the term.
                let w = lex_order
                    .iter()
                    .copied()
                    .find(|&v| term.exponent(v) >= 1)
                    .ok_or_else(|| CoreError::NotMappable {
                        requirement: "free of constant terms",
                        detail: format!("term `{term}` in `{}'` has no variables", sys.var_name(x)),
                    })?;
                let mut required: Vec<StateId> = Vec::new();
                for _ in 1..term.exponent(w) {
                    required.push(StateId::new(w));
                }
                for &v in &lex_order {
                    if v == w {
                        continue;
                    }
                    for _ in 0..term.exponent(v) {
                        required.push(StateId::new(v));
                    }
                }
                blueprints.push(Blueprint {
                    host: StateId::new(w),
                    rate,
                    kind: BlueprintKind::Tokenize {
                        required,
                        token_state: StateId::new(x.index()),
                        to,
                    },
                });
            }
        }

        // Choose (or validate) the normalizing constant.
        let max_rate = blueprints.iter().map(|b| b.rate).fold(0.0_f64, f64::max);
        let p = match self.normalizing_constant {
            Some(p) => {
                if !(p.is_finite() && p > 0.0 && p <= 1.0) || p * max_rate > 1.0 + 1e-12 {
                    return Err(CoreError::NormalizationImpossible {
                        max_rate,
                        requested_p: Some(p),
                    });
                }
                p
            }
            None => {
                if max_rate <= 1.0 {
                    1.0
                } else {
                    1.0 / max_rate
                }
            }
        };

        // Assemble the protocol.
        let mut protocol = Protocol::new(self.name.clone(), sys.var_names().to_vec())?;
        protocol.set_time_scale(p)?;
        for b in blueprints {
            let prob = (p * b.rate).min(1.0);
            let action = match b.kind {
                BlueprintKind::Flip { to } => Action::Flip { prob, to },
                BlueprintKind::Sample { required, to } => Action::Sample { required, prob, to },
                BlueprintKind::Tokenize {
                    required,
                    token_state,
                    to,
                } => Action::Tokenize {
                    required,
                    prob,
                    token_state,
                    to,
                },
            };
            protocol.add_action(b.host, action)?;
        }
        Ok(protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odekit::system::EquationSystemBuilder;

    fn epidemic() -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap()
    }

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
    fn compensation_factor_formula() {
        assert_eq!(compensation_factor(0.0, 3).unwrap(), 1.0);
        assert!((compensation_factor(0.5, 2).unwrap() - 2.0).abs() < 1e-12);
        assert!((compensation_factor(0.5, 3).unwrap() - 4.0).abs() < 1e-12);
        // |T| = 1 (pure flip): no compensation needed.
        assert_eq!(compensation_factor(0.9, 1).unwrap(), 1.0);
        assert!(compensation_factor(1.0, 2).is_err());
        assert!(compensation_factor(-0.1, 2).is_err());
    }

    #[test]
    fn epidemic_compiles_to_canonical_pull_protocol() {
        let protocol = ProtocolCompiler::new("epidemic")
            .compile(&epidemic())
            .unwrap();
        assert_eq!(protocol.num_states(), 2);
        assert_eq!(protocol.time_scale(), 1.0);
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        // Susceptible samples one member; if infected, becomes infected.
        assert_eq!(protocol.actions(x).len(), 1);
        match &protocol.actions(x)[0] {
            Action::Sample { required, prob, to } => {
                assert_eq!(required, &vec![y]);
                assert_eq!(*prob, 1.0);
                assert_eq!(*to, y);
            }
            other => panic!("expected Sample, got {other:?}"),
        }
        // Infected processes have no actions.
        assert!(protocol.actions(y).is_empty());
        assert!(protocol.validate().is_ok());
    }

    #[test]
    fn endemic_compiles_with_three_actions_and_auto_p() {
        let protocol = ProtocolCompiler::new("endemic")
            .compile(&endemic(4.0, 1.0, 0.01))
            .unwrap();
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        let z = protocol.require_state("z").unwrap();
        // β = 4 > 1 forces p = 1/4.
        assert!((protocol.time_scale() - 0.25).abs() < 1e-12);
        // x: sample a y, coin p·β = 1.0 → become y.
        assert_eq!(protocol.actions(x).len(), 1);
        match &protocol.actions(x)[0] {
            Action::Sample { required, prob, to } => {
                assert_eq!(required, &vec![y]);
                assert!((prob - 1.0).abs() < 1e-12);
                assert_eq!(*to, y);
            }
            other => panic!("expected Sample, got {other:?}"),
        }
        // y: flip with prob p·γ = 0.25 → z.
        match &protocol.actions(y)[0] {
            Action::Flip { prob, to } => {
                assert!((prob - 0.25).abs() < 1e-12);
                assert_eq!(*to, z);
            }
            other => panic!("expected Flip, got {other:?}"),
        }
        // z: flip with prob p·α = 0.0025 → x.
        match &protocol.actions(z)[0] {
            Action::Flip { prob, to } => {
                assert!((prob - 0.0025).abs() < 1e-12);
                assert_eq!(*to, x);
            }
            other => panic!("expected Flip, got {other:?}"),
        }
    }

    #[test]
    fn explicit_normalizing_constant_is_respected_or_rejected() {
        let sys = endemic(4.0, 1.0, 0.01);
        let protocol = ProtocolCompiler::new("endemic")
            .with_normalizing_constant(0.1)
            .compile(&sys)
            .unwrap();
        assert_eq!(protocol.time_scale(), 0.1);
        let x = protocol.require_state("x").unwrap();
        assert!((protocol.actions(x)[0].prob() - 0.4).abs() < 1e-12);
        // p too large: 0.5 * 4.0 = 2 > 1.
        let err = ProtocolCompiler::new("endemic")
            .with_normalizing_constant(0.5)
            .compile(&sys)
            .unwrap_err();
        assert!(matches!(err, CoreError::NormalizationImpossible { .. }));
        // Invalid p.
        assert!(ProtocolCompiler::new("endemic")
            .with_normalizing_constant(0.0)
            .compile(&sys)
            .is_err());
    }

    #[test]
    fn failure_compensation_scales_sampling_probabilities() {
        // With f = 0.5, the βxy sampling term (|T| = 2) gets a 2x factor; the
        // flips (|T| = 1) are unchanged.
        let sys = endemic(0.4, 0.1, 0.01);
        let plain = ProtocolCompiler::new("endemic").compile(&sys).unwrap();
        let comp = ProtocolCompiler::new("endemic")
            .with_failure_compensation(0.5)
            .compile(&sys)
            .unwrap();
        let x = plain.require_state("x").unwrap();
        let y = plain.require_state("y").unwrap();
        assert!((plain.actions(x)[0].prob() - 0.4).abs() < 1e-12);
        assert!((comp.actions(x)[0].prob() - 0.8).abs() < 1e-12);
        assert!((plain.actions(y)[0].prob() - comp.actions(y)[0].prob()).abs() < 1e-12);
    }

    #[test]
    fn lv_rewritten_system_compiles_with_four_transitions() {
        let sys = EquationSystemBuilder::new()
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
            .unwrap();
        let protocol = ProtocolCompiler::new("lv")
            .with_normalizing_constant(0.01)
            .compile(&sys)
            .unwrap();
        // Figure 3: x has one action (to z), y has one action (to z), z has two
        // actions (to x and to y)... in the rewritten equations the -3xy terms
        // sit in x' and y' (flowing to z), and the -3xz / -3yz terms sit in z'
        // (flowing to x and y).
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        let z = protocol.require_state("z").unwrap();
        assert_eq!(protocol.actions(x).len(), 1);
        assert_eq!(protocol.actions(y).len(), 1);
        assert_eq!(protocol.actions(z).len(), 2);
        assert_eq!(protocol.num_actions(), 4);
        // All coin probabilities are 3p = 0.03, matching Figure 3's "3*p".
        for s in protocol.state_ids() {
            for a in protocol.actions(s) {
                assert!((a.prob() - 0.03).abs() < 1e-12);
            }
        }
        // Destinations: x -> z requires sampling a y; z -> x requires sampling an x.
        assert_eq!(protocol.actions(x)[0].destination(), z);
        assert_eq!(protocol.actions(z)[0].destination(), x);
        assert_eq!(protocol.actions(z)[1].destination(), y);
    }

    #[test]
    fn incomplete_system_is_rejected() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", 0.5, &[("x", 1)])
            .build()
            .unwrap();
        let err = ProtocolCompiler::new("bad").compile(&sys).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NotMappable {
                requirement: "complete",
                ..
            }
        ));
    }

    #[test]
    fn unpartitionable_system_is_rejected() {
        // Complete (sums to zero) but the terms do not pair: -2x in x' vs +x, +x in y'...
        // Actually +x and +x each cancel -2x only partially → not partitionable.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -2.0, &[("x", 1)])
            .term("y", 1.0, &[("x", 1)])
            .term("y", 1.0, &[("x", 1)])
            .build()
            .unwrap();
        let err = ProtocolCompiler::new("bad").compile(&sys).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NotMappable {
                requirement: "completely partitionable",
                ..
            }
        ));
    }

    #[test]
    fn tokenizing_emitted_for_non_restricted_systems() {
        // x' = -y (x loses mass through a term without x), y' = +y ... complete.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -0.5, &[("y", 1)])
            .term("y", 0.5, &[("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("token").compile(&sys).unwrap();
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        // The action is hosted by y (the variable occurring in the term), and
        // tokens move processes from x to y.
        assert!(protocol.actions(x).is_empty());
        assert_eq!(protocol.actions(y).len(), 1);
        match &protocol.actions(y)[0] {
            Action::Tokenize {
                required,
                prob,
                token_state,
                to,
            } => {
                assert!(required.is_empty());
                assert!((prob - 0.5).abs() < 1e-12);
                assert_eq!(*token_state, x);
                assert_eq!(*to, y);
            }
            other => panic!("expected Tokenize, got {other:?}"),
        }
    }

    #[test]
    fn constant_terms_are_expanded_automatically() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .constant("x", -0.5)
            .constant("y", 0.5)
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("const").compile(&sys).unwrap();
        // -0.5 in x' expands to -0.5x - 0.5y; the -0.5x part is a Flip on x,
        // the -0.5y part becomes a Tokenize hosted by y.
        assert!(protocol.num_actions() >= 2);
        assert!(protocol.validate().is_ok());
    }

    #[test]
    fn higher_power_terms_require_multiple_self_samples() {
        // x' = -x²·y + ... : i_x = 2 → one self-sample plus one y-sample.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 2), ("y", 1)])
            .term("y", 1.0, &[("x", 2), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("cubic").compile(&sys).unwrap();
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        match &protocol.actions(x)[0] {
            Action::Sample { required, .. } => {
                assert_eq!(required, &vec![x, y]);
            }
            other => panic!("expected Sample, got {other:?}"),
        }
    }
}

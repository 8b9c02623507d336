//! Extension: plurality selection among more than two proposals.
//!
//! The Principle of Competitive Exclusion that motivates the paper's LV
//! protocol is not limited to two species. This module generalizes the
//! construction to `k ≥ 2` competing proposals: whenever supporters of two
//! *different* proposals meet they both become undecided, and undecided
//! processes adopt the proposal of supporters they meet. For `k = 2` the
//! equations reduce exactly to the paper's rewritten system (eq. 7); for
//! larger `k` the group converges, with high probability, on the proposal
//! with the largest initial support (plurality selection).
//!
//! This is a faithful application of the paper's framework to a system it
//! does not explicitly evaluate — the generalized equations are restricted
//! polynomial and completely partitionable, so the compiler of Section 3
//! applies unchanged.

use dpde_core::{CoreError, Protocol, ProtocolCompiler};
use odekit::{EquationSystem, EquationSystemBuilder};

/// Name of the undecided state in the generalized protocol.
pub(crate) const UNDECIDED: &str = "z";

/// A `k`-proposal competitive-exclusion protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiLvParams {
    /// Number of competing proposals (`k ≥ 2`).
    pub choices: usize,
    /// Competition rate constant (3 in the paper's two-choice system).
    pub rate: f64,
    /// Normalizing constant `p`.
    pub normalizing_constant: f64,
}

impl MultiLvParams {
    /// Creates a `k`-proposal configuration with the paper's rate (3) and
    /// normalizing constant (0.01).
    ///
    /// # Errors
    ///
    /// Returns an error if `choices < 2`.
    pub fn new(choices: usize) -> Result<Self, CoreError> {
        if choices < 2 {
            return Err(CoreError::InvalidConfig {
                name: "choices",
                reason: format!("plurality selection needs at least 2 proposals, got {choices}"),
            });
        }
        Ok(MultiLvParams {
            choices,
            rate: 3.0,
            normalizing_constant: 0.01,
        })
    }

    /// The name of the state backing proposal `i` (0-based).
    pub(crate) fn choice_state(&self, i: usize) -> String {
        format!("x{i}")
    }

    /// The generalized competition equations over `k` proposal states plus the
    /// undecided state:
    ///
    /// ```text
    /// ẋᵢ = r·xᵢ·z − r·xᵢ·Σ_{j≠i} xⱼ
    /// ż  = −r·z·Σᵢ xᵢ + r·Σ_{i≠j} xᵢ·xⱼ
    /// ```
    pub fn equations(&self) -> EquationSystem {
        let k = self.choices;
        let r = self.rate;
        let names: Vec<String> = (0..k)
            .map(|i| self.choice_state(i))
            .chain([UNDECIDED.to_string()])
            .collect();
        let mut builder = EquationSystemBuilder::new().vars(names.clone());
        for i in 0..k {
            let xi = names[i].as_str();
            // Recruitment of undecided processes.
            builder = builder.term(xi, r, &[(xi, 1), (UNDECIDED, 1)]);
            builder = builder.term(UNDECIDED, -r, &[(xi, 1), (UNDECIDED, 1)]);
            // Competition with every other proposal.
            for (j, xj) in names.iter().take(k).enumerate() {
                if j == i {
                    continue;
                }
                let xj = xj.as_str();
                builder = builder.term(xi, -r, &[(xi, 1), (xj, 1)]);
                builder = builder.term(UNDECIDED, r, &[(xi, 1), (xj, 1)]);
            }
        }
        builder
            .build()
            .expect("generalized LV equations are well-formed")
    }

    /// The compiled protocol (one state per proposal plus undecided).
    ///
    /// # Errors
    ///
    /// Propagates compiler errors (only possible for an invalid normalizing
    /// constant).
    pub fn protocol(&self) -> Result<Protocol, CoreError> {
        ProtocolCompiler::new(format!("lv-{}-choices", self.choices))
            .with_normalizing_constant(self.normalizing_constant)
            .compile(&self.equations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lv::LvParams;
    use odekit::taxonomy;

    #[test]
    fn parameter_validation_and_accessors() {
        assert!(MultiLvParams::new(1).is_err());
        let p = MultiLvParams::new(4).unwrap();
        assert_eq!(p.choices, 4);
        assert_eq!(p.choice_state(2), "x2");
    }

    #[test]
    fn two_choice_case_matches_the_paper_system() {
        let multi = MultiLvParams::new(2).unwrap();
        // MultiLvParams::new and LvParams::new share the paper's rate and p.
        let pairwise = LvParams::new().rewritten_equations();
        let generalized = multi.equations();
        // Same dimension and same right-hand sides on the simplex (modulo
        // variable naming: x0, x1, z vs x, y, z).
        assert_eq!(generalized.dim(), pairwise.dim());
        for state in [[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.7, 0.2]] {
            let a = generalized.eval_rhs(&state);
            let b = pairwise.eval_rhs(&state);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn generalized_equations_are_mappable_for_many_choices() {
        for k in [2usize, 3, 5] {
            let p = MultiLvParams::new(k).unwrap();
            let report = taxonomy::classify(&p.equations());
            assert!(report.mappable_without_tokens(), "k = {k}");
            let protocol = p.protocol().unwrap();
            assert_eq!(protocol.num_states(), k + 1);
            // Every proposal state has k actions (one per competitor plus the
            // recruitment edge is hosted by the undecided state): specifically
            // x_i carries k-1 competition actions; z carries k recruitment
            // actions.
            let z = protocol.require_state(UNDECIDED).unwrap();
            assert_eq!(protocol.actions(z).len(), k);
            for i in 0..k {
                let xi = protocol.require_state(&p.choice_state(i)).unwrap();
                assert_eq!(protocol.actions(xi).len(), k - 1);
            }
        }
    }
}

//! Case study II: the Lotka–Volterra (LV) protocol for probabilistic
//! majority selection (Section 4.2 of the paper).
//!
//! The competition equations the paper introduces (eq. 6),
//!
//! ```text
//! ẋ = 3x(1 − x − 2y)
//! ẏ = 3y(1 − y − 2x)
//! ```
//!
//! are completed with `z = 1 − x − y` and rewritten (eq. 7) into the
//! completely partitionable, restricted polynomial form
//!
//! ```text
//! ẋ = +3xz − 3xy
//! ẏ = +3yz − 3xy
//! ż = −3xz − 3yz + 3xy + 3xy
//! ```
//!
//! which the compiler maps to the state machine of Figure 3 (four
//! One-Time-Sampling actions, all with coin probability `3p`). States `x`
//! and `y` are the two competing proposals; `z` is "undecided".

mod analysis;
pub mod majority;
pub mod multi;

use dpde_core::{CoreError, Protocol, ProtocolCompiler};
use odekit::{EquationSystem, EquationSystemBuilder};

/// Name of the state backing proposal 0.
pub const STATE_X: &str = "x";
/// Name of the state backing proposal 1.
pub const STATE_Y: &str = "y";
/// Name of the undecided state.
pub const STATE_Z: &str = "z";

/// Configuration of the LV protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LvParams {
    /// The competition rate constant (3 in the paper's equations).
    pub rate: f64,
    /// The normalizing constant `p` (0.01 in the paper's experiments).
    pub normalizing_constant: f64,
}

impl Default for LvParams {
    fn default() -> Self {
        LvParams {
            rate: 3.0,
            normalizing_constant: 0.01,
        }
    }
}

impl LvParams {
    /// Creates the paper's configuration (`rate = 3`, `p = 0.01`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The original two-variable competition equations (eq. 6).
    pub fn original_equations(&self) -> EquationSystem {
        let r = self.rate;
        EquationSystemBuilder::new()
            .vars([STATE_X, STATE_Y])
            .term(STATE_X, r, &[(STATE_X, 1)])
            .term(STATE_X, -r, &[(STATE_X, 2)])
            .term(STATE_X, -2.0 * r, &[(STATE_X, 1), (STATE_Y, 1)])
            .term(STATE_Y, r, &[(STATE_Y, 1)])
            .term(STATE_Y, -r, &[(STATE_Y, 2)])
            .term(STATE_Y, -2.0 * r, &[(STATE_X, 1), (STATE_Y, 1)])
            .build()
            .expect("LV equations are well-formed")
    }

    /// The completed three-variable system (original equations plus
    /// `ż = −ẋ − ẏ`), produced with the generic completion rewrite: the
    /// reference the rewritten form is checked against.
    #[cfg(test)]
    pub(crate) fn completed_equations(&self) -> EquationSystem {
        odekit::rewrite::complete(&self.original_equations(), STATE_Z)
            .expect("completion cannot fail")
    }

    /// The rewritten, mappable form (eq. 7): every term contains its own
    /// variable and pairs with an equal opposite term.
    pub fn rewritten_equations(&self) -> EquationSystem {
        let r = self.rate;
        EquationSystemBuilder::new()
            .vars([STATE_X, STATE_Y, STATE_Z])
            .term(STATE_X, r, &[(STATE_X, 1), (STATE_Z, 1)])
            .term(STATE_X, -r, &[(STATE_X, 1), (STATE_Y, 1)])
            .term(STATE_Y, r, &[(STATE_Y, 1), (STATE_Z, 1)])
            .term(STATE_Y, -r, &[(STATE_X, 1), (STATE_Y, 1)])
            .term(STATE_Z, -r, &[(STATE_X, 1), (STATE_Z, 1)])
            .term(STATE_Z, -r, &[(STATE_Y, 1), (STATE_Z, 1)])
            .term(STATE_Z, r, &[(STATE_X, 1), (STATE_Y, 1)])
            .term(STATE_Z, r, &[(STATE_X, 1), (STATE_Y, 1)])
            .build()
            .expect("rewritten LV equations are well-formed")
    }

    /// The LV protocol of Figure 3, compiled from the rewritten equations with
    /// the configured normalizing constant.
    ///
    /// # Errors
    ///
    /// Propagates compiler errors (cannot occur for a valid configuration).
    pub fn protocol(&self) -> Result<Protocol, CoreError> {
        ProtocolCompiler::new("lotka-volterra")
            .with_normalizing_constant(self.normalizing_constant)
            .compile(&self.rewritten_equations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odekit::taxonomy;

    #[test]
    fn original_equations_are_not_mappable_directly() {
        let params = LvParams::new();
        let orig = params.original_equations();
        assert!(!taxonomy::is_complete(&orig));
        // On the simplex both forms agree.
        let completed = params.completed_equations();
        let rewritten = params.rewritten_equations();
        for state in [[0.3, 0.3, 0.4], [0.6, 0.4, 0.0], [0.1, 0.7, 0.2]] {
            let a = completed.eval_rhs(&state);
            let b = rewritten.eval_rhs(&state);
            for (ai, bi) in a.iter().zip(&b) {
                assert!((ai - bi).abs() < 1e-9, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn rewritten_equations_are_mappable_without_tokens() {
        let report = taxonomy::classify(&LvParams::new().rewritten_equations());
        assert!(report.mappable_without_tokens());
    }

    #[test]
    fn protocol_matches_figure3() {
        let protocol = LvParams::new().protocol().unwrap();
        assert_eq!(protocol.num_states(), 3);
        assert_eq!(protocol.num_actions(), 4);
        assert!((protocol.time_scale() - 0.01).abs() < 1e-12);
        // Every action's coin probability is 3p = 0.03.
        for s in protocol.state_ids() {
            for a in protocol.actions(s) {
                assert!((a.prob() - 0.03).abs() < 1e-12);
            }
        }
        // x and y each have one action (towards z); z has two (towards x and y).
        let x = protocol.require_state(STATE_X).unwrap();
        let y = protocol.require_state(STATE_Y).unwrap();
        let z = protocol.require_state(STATE_Z).unwrap();
        assert_eq!(protocol.actions(x).len(), 1);
        assert_eq!(protocol.actions(y).len(), 1);
        assert_eq!(protocol.actions(z).len(), 2);
        assert_eq!(protocol.actions(x)[0].destination(), z);
        assert_eq!(protocol.actions(y)[0].destination(), z);
    }
}

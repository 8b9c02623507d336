//! The reverse mapping: derive the mean-field differential equations of a
//! protocol state machine.
//!
//! The paper's framework goes from equations to protocols; this module goes
//! back. Given any [`Protocol`] — compiled or hand-built — it constructs the
//! system of ODEs that describes the expected evolution of the state
//! *fractions* in an infinite group, with one protocol period corresponding
//! to `time_scale()` ODE time units:
//!
//! * `Flip { prob, to }` on state `s` contributes `−(prob/p)·s` to `ṡ` and the
//!   opposite term to the destination;
//! * `Sample { required, prob, to }` contributes
//!   `−(prob/p)·s·Π required` (the law of mass action);
//! * `SampleAny { target, b, prob, to }` contributes the exact polynomial
//!   expansion of `prob·s·(1 − (1 − target)^b)`;
//! * `PushSample { target, b, prob, to }` moves `(b·prob/p)·s·target` worth of
//!   *target* processes per time unit;
//! * `Tokenize { required, prob, token_state, to }` moves
//!   `(prob/p)·s·Π required` worth of *token_state* processes per time unit
//!   (ignoring token drops — the infinite-group idealization of Section 6).
//!
//! For protocols produced by [`ProtocolCompiler`](crate::ProtocolCompiler)
//! from a completely partitionable system, the derived equations reproduce
//! the source system exactly (see the round-trip tests), which provides an
//! independent check of Theorem 1. For hand-built variants (e.g. the endemic
//! Figure 1 protocol) it yields the equations the variant *actually* models,
//! making approximations such as `1 − (1 − y)^b ≈ b·y` explicit.

use crate::action::Action;
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use odekit::{EquationSystem, Polynomial, Term};

/// Derives the mean-field equation system of a protocol (over state
/// fractions, in ODE time).
///
/// # Errors
///
/// Returns an error if the protocol fails validation.
pub(crate) fn mean_field_equations(protocol: &Protocol) -> Result<EquationSystem> {
    protocol.validate()?;
    let dim = protocol.num_states();
    let p = protocol.time_scale();
    let mut equations = vec![Polynomial::zero(); dim];

    for state in protocol.state_ids() {
        for action in protocol.actions(state) {
            apply_action(&mut equations, dim, state, action, p);
        }
    }

    EquationSystem::new(protocol.state_names().to_vec(), equations).map_err(CoreError::from)
}

fn apply_action(equations: &mut [Polynomial], dim: usize, host: StateId, action: &Action, p: f64) {
    match action {
        Action::Flip { prob, to } => {
            let rate = prob / p;
            let term = Term::linear(rate, host.index(), dim);
            move_mass(equations, host.index(), to.index(), &term);
        }
        Action::Sample { required, prob, to } => {
            let rate = prob / p;
            let term = Term::new(rate, monomial_with(dim, host, required));
            move_mass(equations, host.index(), to.index(), &term);
        }
        Action::SampleAny {
            target_state,
            samples,
            prob,
            to,
        } => {
            // prob · s · (1 − (1 − t)^b) expanded binomially:
            // Σ_{k=1..b} C(b,k)·(−1)^{k+1}·prob·s·t^k
            let rate = prob / p;
            for k in 1..=*samples {
                let coeff = rate * binomial_coefficient(*samples, k) * sign(k + 1);
                let mut exps = vec![0u32; dim];
                exps[host.index()] += 1;
                exps[target_state.index()] += k;
                let term = Term::new(coeff, exps);
                move_mass(equations, host.index(), to.index(), &term);
            }
        }
        Action::PushSample {
            target_state,
            samples,
            prob,
            to,
        } => {
            // Each of the b samples converts a member of `target_state` with
            // probability prob·target, so target-state mass flows at rate
            // b·prob·s·t.
            let rate = f64::from(*samples) * prob / p;
            let mut exps = vec![0u32; dim];
            exps[host.index()] += 1;
            exps[target_state.index()] += 1;
            let term = Term::new(rate, exps);
            move_mass(equations, target_state.index(), to.index(), &term);
        }
        Action::Tokenize {
            required,
            prob,
            token_state,
            to,
        } => {
            let rate = prob / p;
            let term = Term::new(rate, monomial_with(dim, host, required));
            move_mass(equations, token_state.index(), to.index(), &term);
        }
    }
}

/// Builds the exponent vector of `host · Π required`.
fn monomial_with(dim: usize, host: StateId, required: &[StateId]) -> Vec<u32> {
    let mut exps = vec![0u32; dim];
    exps[host.index()] += 1;
    for r in required {
        exps[r.index()] += 1;
    }
    exps
}

/// Adds `−term` to the source equation and `+term` to the destination
/// equation (no-op if they coincide).
fn move_mass(equations: &mut [Polynomial], from: usize, to: usize, term: &Term) {
    if from == to || term.is_zero() {
        return;
    }
    equations[from].push(term.negated());
    equations[to].push(term.clone());
}

fn binomial_coefficient(n: u32, k: u32) -> f64 {
    let k = k.min(n - k);
    let mut result = 1.0;
    for i in 0..k {
        result *= f64::from(n - i) / f64::from(i + 1);
    }
    result
}

fn sign(k: u32) -> f64 {
    if k % 2 == 0 {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_protocol;
    use crate::mapping::ProtocolCompiler;
    use odekit::system::EquationSystemBuilder;
    use odekit::taxonomy;

    /// Maximum absolute difference between two systems' right-hand sides over
    /// a few probe points on the simplex.
    fn rhs_distance(a: &EquationSystem, b: &EquationSystem, probes: &[Vec<f64>]) -> f64 {
        let mut worst = 0.0_f64;
        for probe in probes {
            let ra = a.eval_rhs(probe);
            let rb = b.eval_rhs(probe);
            for (x, y) in ra.iter().zip(&rb) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }

    fn probes2() -> Vec<Vec<f64>> {
        vec![vec![0.9, 0.1], vec![0.5, 0.5], vec![0.2, 0.8]]
    }

    fn probes3() -> Vec<Vec<f64>> {
        vec![
            vec![0.5, 0.2, 0.3],
            vec![0.1, 0.05, 0.85],
            vec![0.33, 0.33, 0.34],
        ]
    }

    #[test]
    fn epidemic_round_trip_is_exact() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
        let derived = mean_field_equations(&protocol).unwrap();
        assert!(rhs_distance(&sys, &derived, &probes2()) < 1e-12);
        assert!(taxonomy::is_completely_partitionable(&derived));
    }

    #[test]
    fn endemic_round_trip_is_exact_for_any_normalizing_constant() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -4.0, &[("x", 1), ("y", 1)])
            .term("x", 0.01, &[("z", 1)])
            .term("y", 4.0, &[("x", 1), ("y", 1)])
            .term("y", -1.0, &[("y", 1)])
            .term("z", 1.0, &[("y", 1)])
            .term("z", -0.01, &[("z", 1)])
            .build()
            .unwrap();
        for p in [None, Some(0.1), Some(0.01)] {
            let mut compiler = ProtocolCompiler::new("endemic");
            if let Some(p) = p {
                compiler = compiler.with_normalizing_constant(p);
            }
            let protocol = compiler.compile(&sys).unwrap();
            let derived = mean_field_equations(&protocol).unwrap();
            assert!(
                rhs_distance(&sys, &derived, &probes3()) < 1e-9,
                "round trip failed for p = {p:?}"
            );
        }
    }

    #[test]
    fn tokenizing_round_trip_is_exact() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", 0.5, &[("x", 1), ("y", 1)])
            .term("z", -0.5, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("token").compile(&sys).unwrap();
        let derived = mean_field_equations(&protocol).unwrap();
        assert!(rhs_distance(&sys, &derived, &probes3()) < 1e-12);
    }

    #[test]
    fn figure1_endemic_mean_field_matches_beta_for_small_y() {
        // The Figure 1 variant (SampleAny with b contacts + PushSample) models
        // β = 2b only to first order in y; the derived mean field makes the
        // exact polynomial explicit.
        let protocol = figure1_protocol(true);
        let derived = mean_field_equations(&protocol).unwrap();
        // ẏ at (x, y, z): 2b·x·y − b·x·y² (from the SampleAny expansion with
        // b = 2) minus γ·y... here b = 2, γ = 0.1.
        let probe = [0.8, 0.01, 0.19];
        let rhs = derived.eval_rhs(&probe);
        let beta_eff = 4.0; // 2b
        let expected_y =
            beta_eff * probe[0] * probe[1] - 1.0 * probe[0] * probe[1] * probe[1] - 0.1 * probe[1];
        assert!(
            (rhs[1] - expected_y).abs() < 1e-9,
            "got {}, expected {expected_y}",
            rhs[1]
        );
        // Mass conservation holds exactly.
        let total: f64 = rhs.iter().sum();
        assert!(total.abs() < 1e-12);
    }

    #[test]
    fn binomial_coefficients_and_signs() {
        assert_eq!(binomial_coefficient(4, 0), 1.0);
        assert_eq!(binomial_coefficient(4, 1), 4.0);
        assert_eq!(binomial_coefficient(4, 2), 6.0);
        assert_eq!(binomial_coefficient(5, 5), 1.0);
        assert_eq!(sign(2), 1.0);
        assert_eq!(sign(3), -1.0);
    }

    #[test]
    fn derived_equations_are_always_complete() {
        // Whatever the protocol, mass conservation means the derived system is
        // complete.
        let protocol = figure1_protocol(true);
        let derived = mean_field_equations(&protocol).unwrap();
        assert!(taxonomy::is_complete(&derived));
    }
}

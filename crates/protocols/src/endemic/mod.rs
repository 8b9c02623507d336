//! Case study I: the endemic protocol for probabilistic responsibility
//! migration (Section 4.1 of the paper).
//!
//! The endemic equations (eq. 1)
//!
//! ```text
//! ẋ = −βxy + αz      (receptive)
//! ẏ =  βxy − γy      (stash — holds a replica)
//! ż =  γy  − αz      (averse)
//! ```
//!
//! are restricted polynomial and completely partitionable, so the framework of
//! Section 3 maps them to a three-state protocol.
//! [`EndemicParams::figure1_protocol`] builds the variant the paper
//! evaluates (Figure 1 plus optimization (iv) of Section 4.1.2): receptive
//! processes contact `b` random targets per period and turn stash if *any*
//! target is a stasher, and stashers push the object onto receptive
//! targets, with `b = β/2` so the modelled equations are unchanged (contact
//! rate `β = N(1 − (1 − b/N)²) ≈ 2b`).

pub mod analysis;
pub mod replication;

use dpde_core::{Action, CoreError, Protocol};
use odekit::{EquationSystem, EquationSystemBuilder};

/// Canonical state names used by every endemic protocol construction.
pub const RECEPTIVE: &str = "receptive";
/// Name of the stash (responsible / replica-holding) state.
pub const STASH: &str = "stash";
/// Name of the averse (refractory) state.
pub const AVERSE: &str = "averse";

/// Parameters of the endemic protocol.
///
/// `beta` is the contact rate of the equations; the Figure 1 construction,
/// with the push optimization, contacts `b = β/2` targets per period.
/// `gamma` and `alpha` are per-period probabilities in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndemicParams {
    /// Infection (contact) rate β.
    pub beta: f64,
    /// Recovery rate γ (stash → averse), in `(0, 1]`.
    pub gamma: f64,
    /// Susceptibility rate α (averse → receptive), in `(0, 1]`.
    pub alpha: f64,
}

impl EndemicParams {
    /// Creates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns an error unless `β > γ`, `γ ∈ (0, 1]` and `α ∈ (0, 1]`.
    pub fn new(beta: f64, gamma: f64, alpha: f64) -> Result<Self, CoreError> {
        if !(gamma > 0.0 && gamma <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "gamma",
                reason: format!("γ must lie in (0, 1], got {gamma}"),
            });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "alpha",
                reason: format!("α must lie in (0, 1], got {alpha}"),
            });
        }
        if !(beta.is_finite() && beta > gamma) {
            return Err(CoreError::InvalidConfig {
                name: "beta",
                reason: format!("β must be finite and exceed γ, got β={beta}, γ={gamma}"),
            });
        }
        Ok(EndemicParams { beta, gamma, alpha })
    }

    /// Convenience constructor from the contact parameter `b` (number of
    /// targets contacted per period): `β = 2b` with the push optimization,
    /// matching the experiments of Section 5.1.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn from_contact_count(b: u32, gamma: f64, alpha: f64) -> Result<Self, CoreError> {
        Self::new(2.0 * f64::from(b.max(1)), gamma, alpha)
    }

    /// The contact parameter `b = β/2` used by the Figure 1 construction.
    pub(crate) fn contact_count(&self) -> u32 {
        (self.beta / 2.0).round().max(1.0) as u32
    }

    /// The endemic differential equations (eq. 1), over fractions.
    pub fn equations(&self) -> EquationSystem {
        EquationSystemBuilder::new()
            .vars([RECEPTIVE, STASH, AVERSE])
            .term(RECEPTIVE, -self.beta, &[(RECEPTIVE, 1), (STASH, 1)])
            .term(RECEPTIVE, self.alpha, &[(AVERSE, 1)])
            .term(STASH, self.beta, &[(RECEPTIVE, 1), (STASH, 1)])
            .term(STASH, -self.gamma, &[(STASH, 1)])
            .term(AVERSE, self.gamma, &[(STASH, 1)])
            .term(AVERSE, -self.alpha, &[(AVERSE, 1)])
            .build()
            .expect("endemic equations are well-formed")
    }

    /// The protocol of Figure 1 (with the optional push action (iv)): one
    /// protocol period advances the equations by one time unit, so the paper's
    /// plots (time in periods) compare directly.
    ///
    /// # Errors
    ///
    /// Returns an error if γ or α cannot be used as coin probabilities (they
    /// are validated at construction, so this does not occur for parameters
    /// built through [`new`](Self::new)).
    pub fn figure1_protocol(&self) -> Result<Protocol, CoreError> {
        let mut protocol = Protocol::new(
            "endemic-figure1",
            vec![RECEPTIVE.to_string(), STASH.to_string(), AVERSE.to_string()],
        )?;
        let receptive = protocol.require_state(RECEPTIVE)?;
        let stash = protocol.require_state(STASH)?;
        let averse = protocol.require_state(AVERSE)?;
        let b = self.contact_count();

        // (i) γy: a stasher periodically turns averse with probability γ,
        // deleting its replica.
        protocol.add_action(
            stash,
            Action::Flip {
                prob: self.gamma,
                to: averse,
            },
        )?;
        // (ii) αz: an averse process periodically turns receptive with
        // probability α.
        protocol.add_action(
            averse,
            Action::Flip {
                prob: self.alpha,
                to: receptive,
            },
        )?;
        // (iii) βxy: a receptive process contacts b targets; if any is a
        // stasher it fetches the object and turns stash.
        protocol.add_action(
            receptive,
            Action::SampleAny {
                target_state: stash,
                samples: b,
                prob: 1.0,
                to: stash,
            },
        )?;
        // (iv) βxy, optimized: a stasher pushes the object onto receptive
        // targets (does not change the modelled equations; allows b = β/2).
        protocol.add_action(
            stash,
            Action::PushSample {
                target_state: receptive,
                samples: b,
                prob: 1.0,
                to: stash,
            },
        )?;
        Ok(protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpde_core::MessageComplexity;
    use odekit::taxonomy;

    #[test]
    fn parameter_validation() {
        assert!(EndemicParams::new(4.0, 1.0, 0.01).is_ok());
        assert!(EndemicParams::new(4.0, 0.0, 0.01).is_err());
        assert!(EndemicParams::new(4.0, 1.0, 1.5).is_err());
        assert!(
            EndemicParams::new(0.5, 1.0, 0.1).is_err(),
            "β must exceed γ"
        );
        assert!(EndemicParams::new(f64::NAN, 0.5, 0.1).is_err());
        let p = EndemicParams::from_contact_count(2, 0.1, 0.001).unwrap();
        assert_eq!(p.beta, 4.0);
        assert_eq!(p.contact_count(), 2);
        assert_eq!(
            EndemicParams::from_contact_count(0, 0.1, 0.001)
                .unwrap()
                .beta,
            2.0
        );
    }

    #[test]
    fn equations_are_restricted_and_partitionable() {
        let params = EndemicParams::new(4.0, 1.0, 0.01).unwrap();
        let report = taxonomy::classify(&params.equations());
        assert!(report.mappable_without_tokens());
    }

    #[test]
    fn figure1_protocol_structure() {
        let params = EndemicParams::from_contact_count(2, 0.1, 0.001).unwrap();
        let protocol = params.figure1_protocol().unwrap();
        assert_eq!(protocol.num_states(), 3);
        // stash: flip + push; averse: flip; receptive: sample-any.
        let stash = protocol.require_state(STASH).unwrap();
        let averse = protocol.require_state(AVERSE).unwrap();
        let receptive = protocol.require_state(RECEPTIVE).unwrap();
        assert_eq!(protocol.actions(stash).len(), 2);
        assert_eq!(protocol.actions(averse).len(), 1);
        assert_eq!(protocol.actions(receptive).len(), 1);
        assert_eq!(protocol.time_scale(), 1.0);
        // Message overhead per process per period is constant (≤ 2b = β).
        let mc = MessageComplexity::of(&protocol);
        assert!(mc.worst_case() <= 4);
    }
}

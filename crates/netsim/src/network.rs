//! Unreliable network model: message and connection losses.

use crate::error::check_probability;
use crate::Result;

/// Loss model for the communication medium.
///
/// The paper's system model allows the medium to "drop messages or
/// connections"; Section 3 then models the combined per-contact failure rate
/// as a single group-wide probability `f` and compensates for it in the
/// compiled protocol. This type captures both knobs:
///
/// * `connection_failure` — probability that a contact attempt fails outright
///   (target unreachable, connection refused),
/// * `message_loss` — probability that any single message on an established
///   contact is dropped.
///
/// [`LossConfig::effective_contact_failure`] combines them into the paper's
/// `f` for a contact that needs `messages` messages to complete.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LossConfig {
    connection_failure: f64,
    message_loss: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            connection_failure: 0.0,
            message_loss: 0.0,
        }
    }
}

impl LossConfig {
    /// A perfectly reliable network.
    pub(crate) fn reliable() -> Self {
        Self::default()
    }

    /// Creates a loss configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if either probability lies outside `[0, 1]`.
    pub fn new(connection_failure: f64, message_loss: f64) -> Result<Self> {
        check_probability("connection_failure", connection_failure)?;
        check_probability("message_loss", message_loss)?;
        Ok(LossConfig {
            connection_failure,
            message_loss,
        })
    }

    /// The paper's group-wide failure rate `f` per connection attempt, for a
    /// contact that must deliver `messages` messages to have its effect:
    /// the attempt succeeds only if the connection is established **and**
    /// every message gets through.
    pub fn effective_contact_failure(&self, messages: u32) -> f64 {
        let success =
            (1.0 - self.connection_failure) * (1.0 - self.message_loss).powi(messages as i32);
        1.0 - success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_network_never_fails() {
        let cfg = LossConfig::reliable();
        assert_eq!(cfg.effective_contact_failure(3), 0.0);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        assert!(LossConfig::new(1.5, 0.0).is_err());
        assert!(LossConfig::new(0.0, -0.1).is_err());
        assert!(LossConfig::new(0.2, 0.1).is_ok());
    }

    #[test]
    fn effective_failure_combines_connection_and_messages() {
        let cfg = LossConfig::new(0.1, 0.2).unwrap();
        // success = 0.9 * 0.8^2 = 0.576 → failure = 0.424
        assert!((cfg.effective_contact_failure(2) - (1.0 - 0.9 * 0.64)).abs() < 1e-12);
        // Zero messages: only the connection matters.
        assert!((cfg.effective_contact_failure(0) - 0.1).abs() < 1e-12);
    }
}

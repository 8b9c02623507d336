//! Error types for the `odekit` crate.

use std::fmt;

/// The error type returned by fallible `odekit` operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OdeError {
    /// A variable name was referenced that is not part of the system.
    UnknownVariable(String),
    /// A variable was declared twice while building a system.
    DuplicateVariable(String),
    /// The system (or an operation on it) requires at least one variable.
    EmptySystem,
    /// A state or initial-condition vector had the wrong length.
    DimensionMismatch {
        /// Number of entries expected (the system dimension).
        expected: usize,
        /// Number of entries actually supplied.
        actual: usize,
    },
    /// A numeric parameter was invalid (non-finite, non-positive, ...).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// The integration produced a non-finite state component.
    NonFiniteState {
        /// Simulation time at which the failure occurred.
        time: f64,
    },
    /// Newton iteration (equilibrium search, implicit solves) failed to converge.
    NoConvergence {
        /// What was being solved for.
        context: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A matrix operation failed (singular matrix, shape mismatch, ...).
    Linalg(String),
    /// The equation text could not be parsed.
    Parse {
        /// Byte offset into the source line where the error was detected.
        position: usize,
        /// Description of what went wrong.
        message: String,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::UnknownVariable(name) => write!(f, "unknown variable `{name}`"),
            OdeError::DuplicateVariable(name) => write!(f, "variable `{name}` declared twice"),
            OdeError::EmptySystem => write!(f, "equation system has no variables"),
            OdeError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected} entries, got {actual}"
                )
            }
            OdeError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            OdeError::NonFiniteState { time } => {
                write!(f, "integration produced a non-finite state at t = {time}")
            }
            OdeError::NoConvergence {
                context,
                iterations,
            } => {
                write!(
                    f,
                    "{context} did not converge after {iterations} iterations"
                )
            }
            OdeError::Linalg(msg) => write!(f, "linear algebra error: {msg}"),
            OdeError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
        }
    }
}

impl std::error::Error for OdeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = OdeError::UnknownVariable("foo".into());
        assert_eq!(e.to_string(), "unknown variable `foo`");
        let e = OdeError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OdeError>();
    }
}

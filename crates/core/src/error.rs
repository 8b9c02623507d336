//! Error types for the `dpde-core` crate.

use std::fmt;

/// The error type returned by fallible `dpde-core` operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The source equation system is not in a class the compiler can map.
    NotMappable {
        /// Which requirement failed (e.g. "completely partitionable").
        requirement: &'static str,
        /// Human-readable details.
        detail: String,
    },
    /// The chosen or required normalizing constant cannot keep every coin
    /// probability within `[0, 1]`.
    NormalizationImpossible {
        /// The largest effective rate constant encountered.
        max_rate: f64,
        /// The normalizing constant that was requested (if any).
        requested_p: Option<f64>,
    },
    /// A state name or id was not part of the protocol.
    UnknownState(String),
    /// A probability ended up outside `[0, 1]`.
    InvalidProbability {
        /// Description of where the probability came from.
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Every run of an ensemble panicked. Partially failed
    /// ensembles succeed instead and list the panicked seeds in
    /// [`EnsembleResult::failures`](crate::runtime::EnsembleResult::failures).
    EnsemblePanicked {
        /// Panic message of the first failed seed.
        first_message: String,
    },
    /// An error bubbled up from the ODE layer.
    Ode(odekit::OdeError),
    /// An error bubbled up from the simulator layer.
    Sim(netsim::SimError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotMappable { requirement, detail } => {
                write!(f, "equation system cannot be mapped: not {requirement} ({detail})")
            }
            CoreError::NormalizationImpossible { max_rate, requested_p } => match requested_p {
                Some(p) => write!(
                    f,
                    "normalizing constant p = {p} makes some coin probability exceed 1 (largest rate {max_rate})"
                ),
                None => write!(f, "no normalizing constant keeps probabilities below 1 (largest rate {max_rate})"),
            },
            CoreError::UnknownState(name) => write!(f, "unknown protocol state `{name}`"),
            CoreError::InvalidProbability { context, value } => {
                write!(f, "probability for {context} must lie in [0, 1], got {value}")
            }
            CoreError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration `{name}`: {reason}")
            }
            CoreError::EnsemblePanicked { first_message } => {
                write!(f, "every run of the ensemble panicked (first: {first_message})")
            }
            CoreError::Ode(e) => write!(f, "ode error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ode(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<odekit::OdeError> for CoreError {
    fn from(e: odekit::OdeError) -> Self {
        CoreError::Ode(e)
    }
}

impl From<netsim::SimError> for CoreError {
    fn from(e: netsim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::NotMappable {
            requirement: "complete",
            detail: "sum is x".into(),
        };
        assert!(e.to_string().contains("complete"));
        let e = CoreError::NormalizationImpossible {
            max_rate: 7.0,
            requested_p: Some(0.5),
        };
        assert!(e.to_string().contains("0.5"));
        let e = CoreError::NormalizationImpossible {
            max_rate: 7.0,
            requested_p: None,
        };
        assert!(e.to_string().contains('7'));
        assert!(CoreError::UnknownState("q".into())
            .to_string()
            .contains('q'));
        let e: CoreError = odekit::OdeError::EmptySystem.into();
        assert!(e.source().is_some());
        let e: CoreError = netsim::SimError::UnknownSeries("s".into()).into();
        assert!(e.source().is_some());
        assert!(CoreError::InvalidProbability {
            context: "flip".into(),
            value: 2.0
        }
        .source()
        .is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}

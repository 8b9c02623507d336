//! # dpde-core — distributed protocols from differential equations
//!
//! This crate implements the central contribution of *"On the Design of
//! Distributed Protocols from Differential Equations"* (Gupta, PODC 2004): a
//! compiler that translates a system of polynomial differential equations
//! into a practical distributed protocol, together with runtimes that execute
//! the synthesized protocol in simulation and tooling that verifies the
//! protocol's behaviour against its source equations.
//!
//! * [`ProtocolCompiler`] — the translation itself: *Flipping*,
//!   *One-Time-Sampling* and *Tokenizing* actions, destination states derived
//!   from the term pairing of completely partitionable systems, normalizing
//!   constant selection and failure compensation.
//! * [`Protocol`] / [`Action`] — the compiled probabilistic state machine,
//!   as pure data.
//! * [`runtime`] — the [`Runtime`](runtime::Runtime) trait with four fidelities (the
//!   per-process [`AgentRuntime`](runtime::AgentRuntime), the count-batched
//!   [`BatchedRuntime`](runtime::BatchedRuntime), the boundary-crossing
//!   [`HybridRuntime`](runtime::HybridRuntime) and the mean-field
//!   [`AggregateRuntime`](runtime::AggregateRuntime)), composable
//!   [`Observer`](runtime::Observer)s for opt-in recording, the
//!   [`Simulation`](runtime::Simulation) builder and the parallel
//!   [`Ensemble`](runtime::Ensemble) driver.
//! * [`equivalence`] — quantitative comparison of protocol trajectories
//!   against integrations of the source equations (Theorem 1, measured).
//! * [`MessageComplexity`] — the paper's message-complexity accounting.
//!
//! # Example: from equations to a running protocol
//!
//! ```
//! use dpde_core::{ProtocolCompiler, runtime::{AggregateRuntime, InitialStates, Runtime}};
//! use dpde_core::equivalence::compare_to_system;
//! use odekit::parse::parse_system;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The epidemic equations of the paper's motivating example.
//! let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
//!
//! // Compile them into a protocol (p = 0.2 keeps the per-period coin
//! // probabilities small) and run it on 10 000 simulated processes.
//! let protocol = ProtocolCompiler::new("epidemic")
//!     .with_normalizing_constant(0.2)
//!     .compile(&sys)?;
//! let result = AggregateRuntime::new(protocol)
//!     .run(10_000, 125, &InitialStates::counts(&[9_990, 10]), 1)?;
//! // (`Simulation::of(protocol)…run::<AggregateRuntime>()` is the composable
//! // form of the same run — see the `runtime` module.)
//!
//! // The run tracks the differential equations (Theorem 1).
//! let report = compare_to_system(&result.as_ode_trajectory(10_000.0), &sys, 0.01)?;
//! assert!(report.max_abs_error < 0.2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod action;
mod complexity;
pub mod equivalence;
mod error;
#[cfg(test)]
mod fixtures;
mod mapping;
#[cfg(test)]
mod mean_field;
pub mod runtime;
mod state_machine;

pub use action::Action;
pub use complexity::MessageComplexity;
pub use equivalence::{compare_to_system, compare_trajectories, EquivalenceReport};
pub use error::CoreError;
pub use mapping::ProtocolCompiler;
pub use state_machine::{Protocol, StateId};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

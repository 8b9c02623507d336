//! # dpde-protocols — case-study protocols derived from differential equations
//!
//! Protocols built with the `dpde-core` framework, reproducing the case
//! studies of *"On the Design of Distributed Protocols from Differential
//! Equations"* (Gupta, PODC 2004):
//!
//! * [`epidemic`] — the canonical pull epidemic (the paper's motivating
//!   example), plus push and push–pull variants;
//! * [`endemic`] — Case study I: the endemic protocol for probabilistic
//!   responsibility migration, its analysis (equilibria, Theorem 3 stability,
//!   convergence regimes, replica longevity, bandwidth model) and the
//!   migratory-replication application with untraceability and fairness
//!   metrics;
//! * [`lv`] — Case study II: the Lotka–Volterra protocol for probabilistic
//!   majority selection, its analysis (Theorem 4) and the majority-selection
//!   application;
//! * [`small_count`] — the "near-tie takeover" scenario family: LV majority
//!   from 50.5/49.5 splits and endemic runs driven to near-extinction, the
//!   small-count regime served by the hybrid runtime fidelity.
//!
//! # Example
//!
//! ```
//! use dpde_protocols::endemic::EndemicParams;
//!
//! // Figure 2 parameters: β = 4, γ = 1, α = 0.01.
//! let params = EndemicParams::new(4.0, 1.0, 0.01)?;
//! // Theorem 3: the endemic equilibrium is stable — in fact a stable spiral.
//! assert!(params.endemic_equilibrium_is_stable());
//! assert!(params.is_stable_spiral()?);
//! // At N = 1000 it sustains ≈ 7.4 replicas.
//! assert!(params.expected_stashers(1000.0) > 7.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod endemic;
pub mod epidemic;
pub mod lv;
pub mod small_count;

pub use endemic::EndemicParams;

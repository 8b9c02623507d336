//! # odekit — polynomial ODE systems for protocol design
//!
//! This crate implements the differential-equation side of the framework from
//! *"On the Design of Distributed Protocols from Differential Equations"*
//! (Gupta, PODC 2004):
//!
//! * a symbolic representation of systems of first-order ODEs with
//!   **polynomial** right-hand sides ([`Term`], [`Polynomial`],
//!   [`EquationSystem`]),
//! * the paper's **taxonomy** of equation systems (*complete*, *completely
//!   partitionable*, *polynomial*, *restricted polynomial*) in [`taxonomy`],
//! * **rewriting** techniques that bring a system into mappable form
//!   (completion and constant-term expansion) in [`rewrite`],
//! * the **RK4 integrator** in [`integrate`], used to produce the "analysis"
//!   curves that the paper compares protocol simulations against, and
//! * a **non-linear dynamics toolbox** in [`analysis`]: Jacobians, equilibria,
//!   eigenvalues, stability classification and phase portraits — the
//!   analytical machinery used in Sections 4.1.3 and 4.2.2 of the paper.
//!
//! A small text [`parse`] front-end turns strings such as
//! `"x' = -beta*x*y + alpha*z"` into [`EquationSystem`]s.
//!
//! # Quick example
//!
//! Build the epidemic system `ẋ = -xy, ẏ = xy`, verify that it is completely
//! partitionable, and integrate it:
//!
//! ```
//! use odekit::{EquationSystemBuilder, taxonomy};
//! use odekit::integrate::{Rk4, Integrator};
//!
//! # fn main() -> Result<(), odekit::OdeError> {
//! let sys = EquationSystemBuilder::new()
//!     .vars(["x", "y"])
//!     .term("x", -1.0, &[("x", 1), ("y", 1)])
//!     .term("y", 1.0, &[("x", 1), ("y", 1)])
//!     .build()?;
//!
//! assert!(taxonomy::is_complete(&sys));
//! assert!(taxonomy::is_completely_partitionable(&sys));
//!
//! let traj = Rk4::new(0.01).integrate(&sys, 0.0, &[0.99, 0.01], 20.0)?;
//! let last = traj.last_state();
//! assert!(last[1] > 0.95, "almost everyone ends up infected");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod analysis;
mod error;
pub mod integrate;
pub mod parse;
mod poly;
pub mod rewrite;
pub mod system;
pub mod taxonomy;
mod term;

pub use error::OdeError;
pub use poly::Polynomial;
pub use system::{EquationSystem, EquationSystemBuilder, VarId};
pub use term::Term;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, OdeError>;

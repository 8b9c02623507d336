//! Non-linear dynamics analysis toolbox.
//!
//! This module packages the analytical techniques the paper uses to study the
//! protocols it derives (Sections 4.1.3 and 4.2.2):
//!
//! * `linalg` — small dense matrices, determinants, linear solves and
//!   eigenvalues (closed form for 2×2, characteristic polynomial +
//!   Durand–Kerner for larger Jacobians);
//! * [`EquilibriumFinder`] — Newton iteration with multi-start search over
//!   the probability simplex or a box;
//! * [`Stability`] / [`analyze_equilibrium`] — trace/determinant and
//!   eigenvalue-based classification of equilibria (stable node, stable
//!   spiral, saddle, …);
//! * [`PhasePortrait`] — multi-trajectory phase portraits (Figures 2 and 4).

mod equilibrium;
mod linalg;
mod phase_portrait;
mod stability;

pub use equilibrium::EquilibriumFinder;
pub use phase_portrait::{phase_portrait, PhasePortrait};
pub use stability::{analyze_equilibrium, Stability, StabilityReport};

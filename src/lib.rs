//! # dpde — distributed protocols from differential equations
//!
//! A Rust reproduction of *"On the Design of Distributed Protocols from
//! Differential Equations"* (Indranil Gupta, PODC 2004).
//!
//! This facade crate re-exports the four member crates of the workspace:
//!
//! * [`odekit`] — polynomial ODE systems, the taxonomy (complete / completely
//!   partitionable / restricted polynomial), rewriting, numerical integration
//!   and non-linear dynamics analysis;
//! * [`netsim`] — the round-based process-group simulator (membership,
//!   failures, churn, message loss, transport models, metrics);
//! * [`core`] — the ODE→protocol compiler (Flipping, One-Time-Sampling,
//!   Tokenizing), the compiled state machines, the
//!   [`Runtime`](dpde_core::runtime::Runtime) trait with its agent / batched /
//!   hybrid / sharded / async / SSA / tau-leap implementations,
//!   the [`ErrorBudget`](dpde_core::runtime::ErrorBudget) tier policy,
//!   composable observers, and the
//!   [`Simulation`](dpde_core::runtime::Simulation) /
//!   [`Ensemble`](dpde_core::runtime::Ensemble)
//!   drivers;
//! * [`protocols`] — the paper's case studies: epidemic
//!   dissemination, endemic migratory replication, and Lotka–Volterra
//!   majority selection.
//!
//! The [`prelude`] pulls in the types most programs need.
//!
//! # Quickstart
//!
//! Write equations, compile them, describe the environment, run — recording
//! only what you ask for:
//!
//! ```
//! use dpde::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Write differential equations.
//! let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
//!
//! // 2. Compile them into a distributed protocol.
//! let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
//!
//! // 3. Run the protocol on a simulated group of processes. The same
//! //    Simulation runs on AgentRuntime (per-host fidelity), or through
//! //    run_auto on the fastest tier that serves it (here BatchedRuntime:
//! //    counts only, much faster).
//! let result = Simulation::of(protocol)
//!     .scenario(Scenario::new(1_000, 30)?.with_seed(7))
//!     .initial(InitialStates::counts(&[999, 1]))
//!     .observe(CountsRecorder::new())
//!     .run::<AgentRuntime>()?;
//! assert!(result.final_counts().expect("counts recorded")[1] > 990.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Multi-seed ensembles
//!
//! The paper's evaluation compares protocol dynamics against the ODE limit
//! over many independent runs. [`Ensemble`](dpde_core::runtime::Ensemble) fans a seed
//! range across all cores and returns per-period mean/std envelopes — a
//! Figure-11-style convergence sweep in a few lines:
//!
//! ```
//! use dpde::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let protocol = LvParams::new().protocol()?; // Lotka–Volterra majority selection
//! let ensemble = Ensemble::of(protocol)
//!     .scenario(Scenario::new(2_000, 700)?)
//!     .initial(InitialStates::counts(&[1_200, 800, 0])) // 60/40 split
//!     .seed_range(0..8)
//!     .run::<AgentRuntime>()?;
//! let (mean_x, std_x) = *ensemble.envelope("x")?.last().unwrap();
//! assert!(mean_x > 1_900.0, "majority wins on average: {mean_x} ± {std_x}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpde_core as core;
pub use dpde_protocols as protocols;
pub use netsim;
pub use odekit;

/// The most commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use dpde_core::equivalence::{compare_to_system, compare_trajectories};
    pub use dpde_core::runtime::{
        AgentRuntime, AliveTracker, AsyncRuntime, BatchedRuntime, CountsRecorder, Ensemble,
        EnsembleResult, ErrorBudget, FidelityTier, HybridRuntime, InitialStates, LiveMetrics,
        LiveMetricsHandle, MembershipTracker, MessageCounter, Observer, PeriodEvents,
        ResilienceReport, RunConfig, RunDeadline, RunResult, RunStatus, Runtime, SeedFailure,
        ShardCountsRecorder, ShardedRuntime, Simulation, SsaRuntime, TauLeapRuntime,
        TransitionRecorder, TransportProbe, DEFAULT_TAU_EPSILON,
    };
    pub use dpde_core::{Action, MessageComplexity, Protocol, ProtocolCompiler, StateId};
    pub use dpde_protocols::endemic::replication::MigratoryStore;
    pub use dpde_protocols::endemic::EndemicParams;
    pub use dpde_protocols::epidemic::{Epidemic, EpidemicStyle};
    pub use dpde_protocols::lv::majority::{Decision, MajoritySelection};
    pub use dpde_protocols::lv::LvParams;
    pub use dpde_protocols::small_count::{NearExtinction, NearTieTakeover};
    pub use netsim::stochastic;
    pub use netsim::{
        maybe_run_worker, Adversary, AdversaryView, CascadingFailure, ChurnTrace, FailureSchedule,
        Group, InProcTransport, Injection, InjectionRecord, LatencyModel, LinkModel, LossConfig,
        MetricsRecorder, ObliviousSchedule, OnlineStats, Placement, Rng, Scenario, ShardConfig,
        SocketConfig, SyntheticChurnConfig, TargetLargestState, Topology, Transport,
        TransportBackend, TransportConfig, TransportGauges, TransportStats, UdsTransport,
        WorkerLauncher, WorkerSupervisor,
    };
    pub use odekit::analysis::{
        analyze_equilibrium, phase_portrait, EquilibriumFinder, PhasePortrait, Stability,
    };
    pub use odekit::integrate::{Integrator, Rk4, Trajectory};
    pub use odekit::parse::parse_system;
    pub use odekit::rewrite;
    pub use odekit::taxonomy;
    pub use odekit::{EquationSystem, EquationSystemBuilder, Polynomial, Term};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        assert!(taxonomy::is_complete(&sys));
        let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
        assert_eq!(protocol.num_states(), 2);
        // The new driver types are reachable through the prelude.
        let _ = Simulation::of(protocol.clone());
        let _ = Ensemble::of(protocol.clone());
        // … as are the continuous-time runtimes, the error-budget policy and
        // the continuous-time samplers.
        let _ = SsaRuntime::new(protocol.clone());
        let _ = TauLeapRuntime::new(protocol.clone()).with_epsilon(DEFAULT_TAU_EPSILON);
        let budgeted = Simulation::of(protocol).error_budget(ErrorBudget::Bounded(0.05));
        drop(budgeted);
        let mut rng = Rng::seed_from(7);
        assert!(stochastic::exponential(&mut rng, 2.0) >= 0.0);
        let _ = stochastic::poisson(&mut rng, 3.0);
        assert!(rng.exponential(1.0) >= 0.0);
    }

    #[test]
    fn async_quickstart_works_from_the_prelude_alone() {
        // The README's transport quickstart, spelled entirely in prelude
        // names: build a lossy latency link, run the async runtime under
        // run_auto, and stream live transport gauges while it executes.
        use crate::prelude::*;
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
        let link = LinkModel::new(LatencyModel::Exponential { mean: 30.0 }, 0.01).unwrap();
        let scenario = Scenario::new(400, 30)
            .unwrap()
            .with_seed(5)
            .with_transport(TransportConfig::new(link))
            .unwrap();
        let live = LiveMetrics::new();
        let handle: LiveMetricsHandle = live.handle();
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[399, 1]))
            .observe(CountsRecorder::new())
            .observe(live)
            .run_auto()
            .unwrap();
        assert!(result.final_counts().unwrap()[1] > 300.0);
        assert!(handle.sent() > 0);
        // 30 stepped periods plus the initial snapshot.
        assert_eq!(handle.periods_observed(), 31);
        let probe: TransportProbe = TransportProbe::default();
        assert_eq!(probe.queue_depth, 0);
    }
}

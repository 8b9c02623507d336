//! # netsim — a round-based process-group simulator
//!
//! This crate provides the distributed-systems substrate on which the
//! protocols synthesized by `dpde-core` run, mirroring the experimental setup
//! of *"On the Design of Distributed Protocols from Differential Equations"*
//! (Gupta, PODC 2004): a closed group of `N` processes executing in protocol
//! periods over an unreliable network, subject to crash-stop and
//! crash-recovery failures, massive correlated failures, and host churn.
//!
//! Components:
//!
//! * `rng` — [`Rng`], a self-contained, seedable xoshiro256** PRNG so
//!   simulations are bit-reproducible (the paper used a Mersenne Twister;
//!   only the statistical quality of the uniform stream matters),
//! * [`stochastic`] — binomial/multinomial/hypergeometric samplers (inherent
//!   [`Rng`] methods) used by the count-level protocol runtimes,
//! * `group` — [`Group`] membership with per-process liveness,
//! * `network` — the message/connection [`LossConfig`],
//! * `failure` — scheduled failure events ([`FailureSchedule`]: massive
//!   failures, crashes, recoveries) and the probabilistic crash/recovery
//!   [`FailureModel`],
//! * `churn` — availability traces: a synthetic Overnet-like generator
//!   ([`SyntheticChurnConfig`]) and a replayable [`ChurnTrace`] (the paper
//!   injects hourly churn of 10–25 % of hosts),
//! * [`adversary`] — *adaptive* fault injection: strategies observing the
//!   live per-period run state and emitting crash/recovery injections
//!   mid-run (targeted strikes, worker kills, cascading failures),
//! * `clock` — the protocol period: [`PERIOD_SECS`] seconds, and
//!   [`PERIODS_PER_HOUR`] periods per hour of a churn trace,
//! * `metrics` — time-series recording ([`MetricsRecorder`]) and summary
//!   statistics for experiment output,
//! * `scenario` — a [`Scenario`] bundles all of the above to describe one
//!   experiment,
//! * [`topology`] — the population topology (one well-mixed group, or `S`
//!   shards exchanging processes via migration at period boundaries),
//! * [`transport`] — the asynchronous message layer: a latency
//!   distribution, drop probability, partition windows, an in-process
//!   virtual-time broker with streaming delivery statistics, and a
//!   Unix-datagram-socket transport that runs each population segment as a
//!   real worker process,
//! * `supervise` — [`WorkerSupervisor`], worker-process supervision for the
//!   socket transport: spawning, heartbeat health checks, SIGKILL on
//!   adversary command, and generation-bumping restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod adversary;
mod churn;
mod clock;
mod error;
mod failure;
mod group;
mod metrics;
mod network;
mod rng;
mod scenario;
pub mod stochastic;
mod supervise;
pub mod topology;
pub mod transport;

pub use adversary::{
    Adversary, AdversaryHandle, AdversaryState, AdversaryView, CascadingFailure, Injection,
    InjectionRecord, ObliviousSchedule, TargetLargestState, TransportGauges,
};
pub use churn::{ChurnEvent, ChurnTrace, SyntheticChurnConfig};
pub use clock::{PERIODS_PER_HOUR, PERIOD_SECS};
pub use error::SimError;
pub use failure::{FailureEvent, FailureModel, FailureSchedule};
pub use group::{Group, ProcessId};
pub use metrics::{MetricsRecorder, OnlineStats, SummaryStats};
pub use network::LossConfig;
pub use rng::Rng;
pub use scenario::Scenario;
pub use supervise::{maybe_run_worker, SocketConfig, WorkerLauncher, WorkerSupervisor};
pub use topology::{Placement, ShardConfig, ShardFailure, ShardPartition, Topology};
pub use transport::{
    Delivery, InProcTransport, LatencyModel, LinkModel, Transport, TransportBackend,
    TransportConfig, TransportStats, UdsTransport,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;

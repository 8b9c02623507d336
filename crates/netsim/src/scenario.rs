//! Experiment scenarios: everything describing one simulation run.

use crate::adversary::{Adversary, AdversaryHandle};
use crate::churn::{ChurnEvent, ChurnTrace};
use crate::error::SimError;
use crate::failure::{FailureModel, FailureSchedule};
use crate::group::Group;
use crate::network::LossConfig;
use crate::rng::Rng;
use crate::topology::{ShardFailure, ShardPartition, Topology};
use crate::transport::TransportConfig;
use crate::Result;

/// A complete description of the environment for one simulation run:
/// group size, horizon, failure injection, churn, network losses, protocol
/// period and PRNG seed.
///
/// The protocol runtimes in `dpde-core` consume a `Scenario` to drive their
/// execution; the experiment harness builds one per figure of the paper.
///
/// # Examples
///
/// ```
/// use netsim::Scenario;
///
/// // The paper's Figure 5 environment: 100 000 hosts, 10 000 periods,
/// // half of them crashing at period 5000.
/// let scenario = Scenario::new(100_000, 10_000)?
///     .with_massive_failure(5_000, 0.5)?
///     .with_seed(1);
/// assert_eq!(scenario.group_size(), 100_000);
/// # Ok::<(), netsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    group_size: usize,
    periods: u64,
    seed: u64,
    loss: LossConfig,
    failure_schedule: FailureSchedule,
    failure_model: FailureModel,
    churn_events: Vec<ChurnEvent>,
    initial_availability: Option<Vec<bool>>,
    topology: Topology,
    shard_failures: Vec<ShardFailure>,
    shard_partitions: Vec<ShardPartition>,
    transport: Option<TransportConfig>,
    adversary: Option<AdversaryHandle>,
}

impl Scenario {
    /// Creates a scenario of `group_size` processes running for `periods`
    /// protocol periods, with a reliable network, no failures, no churn and
    /// seed 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the group size or horizon is zero.
    pub fn new(group_size: usize, periods: u64) -> Result<Self> {
        if group_size == 0 {
            return Err(SimError::InvalidConfig {
                name: "group_size",
                reason: "group must contain at least one process".into(),
            });
        }
        if periods == 0 {
            return Err(SimError::InvalidConfig {
                name: "periods",
                reason: "scenario must run for at least one period".into(),
            });
        }
        Ok(Scenario {
            group_size,
            periods,
            seed: 0,
            loss: LossConfig::reliable(),
            failure_schedule: FailureSchedule::new(),
            failure_model: FailureModel::none(),
            churn_events: Vec::new(),
            initial_availability: None,
            topology: Topology::WellMixed,
            shard_failures: Vec::new(),
            shard_partitions: Vec::new(),
            transport: None,
            adversary: None,
        })
    }

    /// Rejects events scheduled at or beyond the run horizon: they would
    /// never fire, which almost always means a typo in the period or the
    /// horizon rather than an intentionally inert event.
    fn check_horizon(&self, name: &'static str, period: u64) -> Result<()> {
        if period >= self.periods {
            return Err(SimError::InvalidConfig {
                name,
                reason: format!(
                    "event at period {period} lies beyond the run horizon of {} periods \
                     (last period is {})",
                    self.periods,
                    self.periods - 1
                ),
            });
        }
        Ok(())
    }

    /// Sets the PRNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network loss configuration.
    #[must_use]
    pub fn with_loss(mut self, loss: LossConfig) -> Self {
        self.loss = loss;
        self
    }

    /// Adds a massive-failure event (crash a fraction of alive hosts at the
    /// given period).
    ///
    /// # Errors
    ///
    /// Returns an error if the fraction lies outside `[0, 1]` or the period
    /// lies at or beyond the run horizon (the event would never fire).
    pub fn with_massive_failure(mut self, period: u64, fraction: f64) -> Result<Self> {
        crate::error::check_probability("fraction", fraction)?;
        self.check_horizon("massive_failure", period)?;
        self.failure_schedule.add(
            period,
            crate::failure::FailureEvent::MassiveFailure { fraction },
        );
        Ok(self)
    }

    /// Replaces the whole failure schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if any scheduled event lies at or beyond the run
    /// horizon (it would never fire), or if a massive failure's fraction lies
    /// outside `[0, 1]`.
    pub fn with_failure_schedule(mut self, schedule: FailureSchedule) -> Result<Self> {
        for (period, event) in schedule.events() {
            self.check_horizon("failure_schedule", *period)?;
            if let crate::failure::FailureEvent::MassiveFailure { fraction } = event {
                crate::error::check_probability("fraction", *fraction)?;
            }
        }
        self.failure_schedule = schedule;
        Ok(self)
    }

    /// Sets a probabilistic per-period crash/recovery model.
    #[must_use]
    pub fn with_failure_model(mut self, model: FailureModel) -> Self {
        self.failure_model = model;
        self
    }

    /// Sets the population topology (well-mixed vs sharded). The default is
    /// [`Topology::WellMixed`], under which every runtime behaves exactly as
    /// it always has; a sharded topology selects the sharded runtime tier.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Adds a massive-failure event confined to one shard: at `period`,
    /// `fraction` of that shard's alive processes crash. Requires a sharded
    /// topology at run time (the shard index is validated against the shard
    /// count when the run is initialized).
    ///
    /// # Errors
    ///
    /// Returns an error if the fraction lies outside `[0, 1]` or the period
    /// lies at or beyond the run horizon (the event would never fire).
    pub fn with_shard_massive_failure(
        mut self,
        period: u64,
        shard: usize,
        fraction: f64,
    ) -> Result<Self> {
        crate::error::check_probability("fraction", fraction)?;
        self.check_horizon("shard_failure", period)?;
        self.shard_failures.push(ShardFailure {
            period,
            shard,
            fraction,
        });
        Ok(self)
    }

    /// Partitions one shard for the inclusive period window
    /// `from_period ..= to_period`: no process migrates into or out of it
    /// while the partition is in force.
    ///
    /// # Errors
    ///
    /// Returns an error if the window is empty (`from_period > to_period`),
    /// starts at or beyond the run horizon (it would never take effect), or
    /// overlaps a partition window already configured for the same shard
    /// (the windows would silently shadow each other).
    pub fn with_shard_partition(
        mut self,
        shard: usize,
        from_period: u64,
        to_period: u64,
    ) -> Result<Self> {
        if from_period > to_period {
            return Err(SimError::InvalidConfig {
                name: "shard_partition",
                reason: format!("window {from_period}..={to_period} is empty"),
            });
        }
        self.check_horizon("shard_partition", from_period)?;
        if let Some(existing) = self
            .shard_partitions
            .iter()
            .find(|p| p.shard == shard && from_period <= p.to_period && p.from_period <= to_period)
        {
            return Err(SimError::InvalidConfig {
                name: "shard_partition",
                reason: format!(
                    "window {from_period}..={to_period} overlaps the existing window {}..={} \
                     on shard {shard}",
                    existing.from_period, existing.to_period
                ),
            });
        }
        self.shard_partitions.push(ShardPartition {
            shard,
            from_period,
            to_period,
        });
        Ok(self)
    }

    /// Installs a churn trace: hour-0 availability is applied to the group at
    /// start-up, and the hourly changes are spread over protocol periods.
    ///
    /// # Errors
    ///
    /// Returns an error if the trace covers a different number of hosts than
    /// the scenario.
    pub fn with_churn_trace(mut self, trace: &ChurnTrace, rng: &mut Rng) -> Result<Self> {
        if trace.hosts() != self.group_size {
            return Err(SimError::InvalidConfig {
                name: "churn_trace",
                reason: format!(
                    "trace covers {} hosts but the scenario has {}",
                    trace.hosts(),
                    self.group_size
                ),
            });
        }
        self.initial_availability = Some(trace.initial_availability().to_vec());
        self.churn_events = trace.spread_over_periods(crate::PERIODS_PER_HOUR, rng);
        Ok(self)
    }

    /// The maximal group size `N`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The number of protocol periods to run.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// The PRNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The network loss configuration.
    pub fn loss(&self) -> &LossConfig {
        &self.loss
    }

    /// The scheduled failure events.
    pub fn failure_schedule(&self) -> &FailureSchedule {
        &self.failure_schedule
    }

    /// The probabilistic crash/recovery model.
    pub fn failure_model(&self) -> &FailureModel {
        &self.failure_model
    }

    /// The per-period churn events.
    pub fn churn_events(&self) -> &[ChurnEvent] {
        &self.churn_events
    }

    /// The population topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shard-targeted massive failures.
    pub fn shard_failures(&self) -> &[ShardFailure] {
        &self.shard_failures
    }

    /// The shard partition windows.
    pub fn shard_partitions(&self) -> &[ShardPartition] {
        &self.shard_partitions
    }

    /// Attaches a message-transport model: a latency distribution, drop
    /// probability and partition windows. A scenario carrying one is served
    /// by the asynchronous message-passing runtime (`run_auto` routes it
    /// there); the period-synchronized runtimes reject it loudly.
    ///
    /// # Errors
    ///
    /// Returns an error if any partition window
    /// ([`TransportConfig::with_partition`]) starts at or beyond the run
    /// horizon (the window would never open — almost always a typo in the
    /// period or the horizon). Windows that open in-horizon but extend past
    /// it are fine: they simply stay in force to the end of the run,
    /// mirroring shard-partition semantics.
    pub fn with_transport(mut self, transport: TransportConfig) -> Result<Self> {
        for p in transport.partitions() {
            self.check_horizon("link_partition", p.from_period)?;
        }
        self.transport = Some(transport);
        Ok(self)
    }

    /// The transport model, if one is attached.
    pub fn transport(&self) -> Option<&TransportConfig> {
        self.transport.as_ref()
    }

    /// Attaches an adaptive fault-injection adversary. Once per period —
    /// after the scenario's own scheduled events — every runtime shows the
    /// adversary the live run state (per-state counts, shard counts,
    /// transport gauges) and applies the [`Injection`](crate::Injection)s it
    /// emits. Adversary *decisions* draw from a dedicated PRNG stream
    /// derived from the scenario seed, so attaching a strategy that ends up
    /// injecting nothing leaves the run bit-for-bit unchanged.
    #[must_use]
    pub fn with_adversary(mut self, adversary: impl Adversary + 'static) -> Self {
        self.adversary = Some(AdversaryHandle::new(adversary));
        self
    }

    /// The attached adversary, if any.
    pub fn adversary(&self) -> Option<&AdversaryHandle> {
        self.adversary.as_ref()
    }

    /// `true` if this scenario models the message layer explicitly (link
    /// latency / drops / partitions) and therefore needs the asynchronous
    /// runtime.
    pub fn has_link_models(&self) -> bool {
        self.transport.is_some()
    }

    /// `true` if any shard-targeted event (failure or partition) is
    /// configured.
    pub fn has_shard_events(&self) -> bool {
        !self.shard_failures.is_empty() || !self.shard_partitions.is_empty()
    }

    /// `true` if `shard` is partitioned at `period` (no migration in or out).
    pub fn is_shard_partitioned(&self, shard: usize, period: u64) -> bool {
        self.shard_partitions
            .iter()
            .any(|p| p.shard == shard && p.active_at(period))
    }

    /// `true` if this scenario can only be served by a shard-aware runtime:
    /// either the topology is explicitly sharded or a shard-targeted event is
    /// configured. Well-mixed runtimes reject such scenarios loudly.
    pub fn needs_sharding(&self) -> bool {
        self.topology.is_sharded() || self.has_shard_events()
    }

    /// `true` if anything in this scenario can change process liveness:
    /// scheduled failure events (global or shard-targeted), a probabilistic
    /// crash/recovery model, churn events or a partial hour-0 availability.
    /// An attached adversary is deliberately *not* counted: whether it ever
    /// strikes depends on what it sees at run time. A runtime that models no
    /// environment at all must check both
    /// (`has_liveness_events() || adversary().is_some()`).
    pub fn has_liveness_events(&self) -> bool {
        !self.failure_schedule.is_empty()
            || !self.shard_failures.is_empty()
            || self.failure_model.crash_prob() > 0.0
            || self.failure_model.recover_prob() > 0.0
            || !self.churn_events.is_empty()
            || self
                .initial_availability
                .as_ref()
                .is_some_and(|avail| avail.iter().any(|alive| !alive))
    }

    /// `true` if the environment can be simulated without per-host identity —
    /// the condition for running it on a count-level runtime such as
    /// `BatchedRuntime`: the failure schedule may contain only
    /// massive-failure events (which hit a uniformly random subset), and no
    /// churn trace is installed. A probabilistic [`FailureModel`] is fine:
    /// it treats processes exchangeably.
    pub fn count_level_compatible(&self) -> bool {
        !self.failure_schedule.has_identity_events()
            && self.churn_events.is_empty()
            && self.initial_availability.is_none()
    }

    /// Builds the initial [`Group`] (applying hour-0 churn availability if a
    /// trace was installed).
    pub fn build_group(&self) -> Group {
        let mut group = Group::new(self.group_size);
        if let Some(avail) = &self.initial_availability {
            for (i, &alive) in avail.iter().enumerate() {
                if !alive {
                    // Ids come straight from the trace and are in range.
                    let _ = group.crash(crate::group::ProcessId(i));
                }
            }
        }
        group
    }

    /// Creates the root PRNG for this scenario.
    pub fn build_rng(&self) -> Rng {
        Rng::seed_from(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::SyntheticChurnConfig;
    use crate::group::ProcessId;

    fn massive_failure_at(period: u64, fraction: f64) -> FailureSchedule {
        let mut schedule = FailureSchedule::new();
        schedule.add(
            period,
            crate::failure::FailureEvent::MassiveFailure { fraction },
        );
        schedule
    }

    #[test]
    fn construction_and_validation() {
        assert!(Scenario::new(0, 10).is_err());
        assert!(Scenario::new(10, 0).is_err());
        let s = Scenario::new(100, 50).unwrap().with_seed(7);
        assert_eq!(s.group_size(), 100);
        assert_eq!(s.periods(), 50);
        assert_eq!(s.seed(), 7);
        assert_eq!(s.loss(), &LossConfig::reliable());
        assert!(s.failure_schedule().is_empty());
        assert_eq!(s.churn_events().len(), 0);
        assert_eq!(s.build_group().alive_count(), 100);
        let _ = s.build_rng();
    }

    #[test]
    fn massive_failure_is_recorded_and_validated() {
        let s = Scenario::new(1000, 100)
            .unwrap()
            .with_massive_failure(50, 0.5)
            .unwrap();
        assert_eq!(s.failure_schedule(), &massive_failure_at(50, 0.5));
        assert!(Scenario::new(10, 10)
            .unwrap()
            .with_massive_failure(1, 1.5)
            .is_err());
    }

    #[test]
    fn churn_trace_requires_matching_size_and_spreads_events() {
        let cfg = SyntheticChurnConfig {
            hosts: 200,
            hours: 5,
            mean_availability: 0.5,
            churn_min: 0.2,
            churn_max: 0.3,
        };
        let mut rng = Rng::seed_from(3);
        let trace = cfg.generate(&mut rng).unwrap();
        // Mismatched size is rejected.
        assert!(Scenario::new(100, 100)
            .unwrap()
            .with_churn_trace(&trace, &mut rng)
            .is_err());
        let s = Scenario::new(200, 100)
            .unwrap()
            .with_churn_trace(&trace, &mut rng)
            .unwrap();
        let group = s.build_group();
        // Hour-0 availability applied: roughly half alive.
        assert!(group.alive_count() > 60 && group.alive_count() < 140);
        assert!(!s.churn_events().is_empty(), "later hours spread to events");
    }

    #[test]
    fn liveness_and_count_level_classification() {
        let plain = Scenario::new(100, 10).unwrap();
        assert!(!plain.has_liveness_events());
        assert!(plain.count_level_compatible());

        // Massive failures change liveness but stay count-level compatible.
        let massive = Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(5, 0.5)
            .unwrap();
        assert!(massive.has_liveness_events());
        assert!(massive.count_level_compatible());

        // A probabilistic failure model is exchangeable, hence count-level.
        let model = Scenario::new(100, 10)
            .unwrap()
            .with_failure_model(FailureModel::new(0.01, 0.02).unwrap());
        assert!(model.has_liveness_events());
        assert!(model.count_level_compatible());

        // Per-id events need host identity.
        let mut schedule = FailureSchedule::new();
        schedule.add(1, crate::failure::FailureEvent::Crash(ProcessId(3)));
        let with_id = Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap();
        assert!(with_id.has_liveness_events());
        assert!(!with_id.count_level_compatible());

        // Churn traces are id-based too.
        let cfg = SyntheticChurnConfig {
            hosts: 100,
            hours: 2,
            mean_availability: 0.8,
            churn_min: 0.1,
            churn_max: 0.2,
        };
        let mut rng = Rng::seed_from(1);
        let trace = cfg.generate(&mut rng).unwrap();
        let churny = Scenario::new(100, 20)
            .unwrap()
            .with_churn_trace(&trace, &mut rng)
            .unwrap();
        assert!(churny.has_liveness_events());
        assert!(!churny.count_level_compatible());
    }

    #[test]
    fn topology_and_shard_events() {
        use crate::topology::Topology;
        let plain = Scenario::new(100, 10).unwrap();
        assert_eq!(plain.topology(), &Topology::WellMixed);
        assert!(!plain.needs_sharding());
        assert!(!plain.has_shard_events());

        let sharded = Scenario::new(1_000, 10)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.05).unwrap());
        assert!(sharded.needs_sharding());
        assert!(!sharded.has_shard_events());
        assert_eq!(sharded.topology().shard_count(), 4);
        // Topology alone does not change liveness or identity needs.
        assert!(!sharded.has_liveness_events());
        assert!(sharded.count_level_compatible());

        let with_events = sharded
            .with_shard_massive_failure(5, 2, 0.5)
            .unwrap()
            .with_shard_partition(1, 3, 7)
            .unwrap();
        assert!(with_events.has_shard_events());
        assert!(with_events.needs_sharding());
        assert!(with_events.has_liveness_events());
        assert_eq!(with_events.shard_failures().len(), 1);
        assert_eq!(with_events.shard_partitions().len(), 1);
        assert!(!with_events.is_shard_partitioned(1, 2));
        assert!(with_events.is_shard_partitioned(1, 3));
        assert!(with_events.is_shard_partitioned(1, 7));
        assert!(!with_events.is_shard_partitioned(1, 8));
        assert!(!with_events.is_shard_partitioned(2, 5));

        // Shard events without an explicit topology still need sharding.
        let events_only = Scenario::new(100, 10)
            .unwrap()
            .with_shard_massive_failure(1, 0, 0.25)
            .unwrap();
        assert!(events_only.needs_sharding());

        // Validation.
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_shard_massive_failure(1, 0, 1.5)
            .is_err());
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_shard_partition(0, 5, 4)
            .is_err());
    }

    #[test]
    fn transport_classification() {
        use crate::transport::{LatencyModel, LinkModel, TransportConfig};
        let plain = Scenario::new(100, 10).unwrap();
        assert!(!plain.has_link_models());
        assert!(plain.transport().is_none());

        let link = LinkModel::new(LatencyModel::Exponential { mean: 10.0 }, 0.01).unwrap();
        let asynchronous = Scenario::new(100, 10)
            .unwrap()
            .with_transport(TransportConfig::new(link))
            .unwrap();
        assert!(asynchronous.has_link_models());
        assert_eq!(asynchronous.transport(), Some(&TransportConfig::new(link)));
        // A transport model says nothing about liveness, identity or shards.
        assert!(!asynchronous.has_liveness_events());
        assert!(asynchronous.count_level_compatible());
        assert!(!asynchronous.needs_sharding());
    }

    #[test]
    fn scheduled_fractions_are_validated_at_build_time() {
        // An out-of-range massive failure is rejected when the schedule is
        // installed, not when its period comes round mid-run.
        for fraction in [1.5, -0.1, f64::NAN] {
            let mut schedule = FailureSchedule::new();
            schedule.add(2, crate::failure::FailureEvent::MassiveFailure { fraction });
            assert!(Scenario::new(1_000, 5)
                .unwrap()
                .with_failure_schedule(schedule)
                .is_err());
        }
        let mut schedule = FailureSchedule::new();
        schedule.add(
            2,
            crate::failure::FailureEvent::MassiveFailure { fraction: 1.0 },
        );
        schedule.add(3, crate::failure::FailureEvent::Crash(ProcessId(7)));
        assert!(Scenario::new(1_000, 5)
            .unwrap()
            .with_failure_schedule(schedule)
            .is_ok());
    }

    #[test]
    fn builder_setters() {
        let s = Scenario::new(10, 10)
            .unwrap()
            .with_loss(LossConfig::new(0.1, 0.0).unwrap())
            .with_failure_schedule(massive_failure_at(3, 0.1))
            .unwrap();
        assert_eq!(s.loss(), &LossConfig::new(0.1, 0.0).unwrap());
        assert_eq!(s.failure_schedule(), &massive_failure_at(3, 0.1));
        assert_eq!(s.failure_model().crash_prob(), 0.0);
    }

    #[test]
    fn events_beyond_the_horizon_are_rejected() {
        // Massive failure at or past the horizon never fires — typed error.
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(9, 0.5)
            .is_ok());
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(10, 0.5)
            .is_err());
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(99, 0.5)
            .is_err());
        // Same for shard failures and partition starts.
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_shard_massive_failure(10, 0, 0.5)
            .is_err());
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_shard_partition(0, 10, 20)
            .is_err());
        // A partition window extending past the horizon is fine as long as
        // it starts inside it ("partitioned for the whole run" idiom).
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_shard_partition(0, 0, 10)
            .is_ok());
        // Whole schedules are checked too.
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(massive_failure_at(12, 0.1))
            .is_err());
    }

    #[test]
    fn link_partitions_beyond_the_horizon_are_rejected() {
        use crate::transport::TransportConfig;
        let partitioned = |from: u64, to: u64| {
            TransportConfig::default()
                .with_segments(2)
                .unwrap()
                .with_partition(0, 1, from, to)
                .unwrap()
        };
        // A window opening inside the horizon is fine, even when it extends
        // past it ("partitioned for the whole run" idiom, as for shards).
        assert!(Scenario::new(100, 10)
            .unwrap()
            .with_transport(partitioned(9, 50))
            .is_ok());
        // A window that opens at or past the horizon never takes effect —
        // typed error naming the offending period.
        let err = Scenario::new(100, 10)
            .unwrap()
            .with_transport(partitioned(10, 20))
            .unwrap_err();
        match err {
            SimError::InvalidConfig { name, reason } => {
                assert_eq!(name, "link_partition");
                assert!(reason.contains("period 10"), "reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_shard_partitions_are_rejected() {
        let base = || {
            Scenario::new(100, 100)
                .unwrap()
                .with_shard_partition(1, 10, 20)
                .unwrap()
        };
        // Overlap (shared endpoint, containment, plain intersection) on the
        // same shard is a typed error…
        assert!(base().with_shard_partition(1, 20, 30).is_err());
        assert!(base().with_shard_partition(1, 12, 18).is_err());
        assert!(base().with_shard_partition(1, 5, 10).is_err());
        assert!(base().with_shard_partition(1, 0, 99).is_err());
        // …while disjoint windows and other shards are fine.
        assert!(base().with_shard_partition(1, 21, 30).is_ok());
        assert!(base().with_shard_partition(1, 0, 9).is_ok());
        assert!(base().with_shard_partition(2, 10, 20).is_ok());
    }

    #[test]
    fn adversary_attachment_and_classification() {
        use crate::adversary::ObliviousSchedule;
        let plain = Scenario::new(100, 10).unwrap();
        assert!(plain.adversary().is_none());
        let armed =
            plain.with_adversary(ObliviousSchedule::new().crash_uniform_at(5, 0.5).unwrap());
        assert!(armed.adversary().is_some(), "adversary attached");
        // Cloning the scenario shares the strategy.
        assert!(armed.clone().adversary().is_some());
        // The adversary rides on its own hook: it does not flip the
        // scheduled-event predicates.
        assert!(!armed.has_liveness_events());
        assert!(armed.count_level_compatible());
        assert!(!armed.needs_sharding());
    }
}

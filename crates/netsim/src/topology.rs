//! Population topology: one well-mixed group, or sharded local mixing.
//!
//! The paper (and the mean-field limits it builds on) assumes one uniformly
//! mixed population. A [`Topology`] makes that assumption explicit and
//! optional: a [`Scenario`](crate::Scenario) carries either
//! [`Topology::WellMixed`] (the default — every runtime behaves exactly as
//! before) or [`Topology::Sharded`], which splits the population into `S`
//! shards (geographic cells / subnets) that mix internally, exchanging
//! processes at period boundaries via migration.
//!
//! Sharding is how the simulator probes where the ODE correspondence bends
//! when mixing is only local, and the named step toward N = 10⁸–10⁹ runs:
//! per-shard state advances independently between exchanges.

use crate::error::{check_probability, SimError};
use crate::Result;

/// How the population's interaction graph is organized.
///
/// # Examples
///
/// ```
/// use netsim::{Scenario, Topology};
///
/// let scenario = Scenario::new(1_000_000, 30)?
///     .with_topology(Topology::sharded(8, 0.01)?);
/// assert_eq!(scenario.topology().shard_count(), 8);
/// # Ok::<(), netsim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Topology {
    /// One uniformly mixed group — the paper's assumption and the default.
    #[default]
    WellMixed,
    /// The population is split into shards that mix internally; processes
    /// move between shards through a per-period migration exchange.
    Sharded(ShardConfig),
}

impl Topology {
    /// Convenience constructor for a sharded topology with the default
    /// ([`Placement::Blocks`]) initial placement.
    ///
    /// # Errors
    ///
    /// Returns an error if `shards` is zero or `migration` lies outside
    /// `[0, 1]`.
    pub fn sharded(shards: usize, migration: f64) -> Result<Self> {
        Ok(Topology::Sharded(ShardConfig::new(shards, migration)?))
    }

    /// Number of shards (1 for a well-mixed group).
    pub fn shard_count(&self) -> usize {
        match self {
            Topology::WellMixed => 1,
            Topology::Sharded(config) => config.shards(),
        }
    }

    /// `true` if this is a sharded topology (even with a single shard:
    /// explicit sharding selects the sharded runtime tier).
    pub(crate) fn is_sharded(&self) -> bool {
        matches!(self, Topology::Sharded(_))
    }

    /// The shard configuration, if sharded.
    pub fn shard_config(&self) -> Option<&ShardConfig> {
        match self {
            Topology::WellMixed => None,
            Topology::Sharded(config) => Some(config),
        }
    }
}

/// Configuration of a sharded topology: shard count, per-period migration
/// probability and the initial placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    shards: usize,
    migration: f64,
    placement: Placement,
}

impl ShardConfig {
    /// Creates a configuration of `shards` shards where every alive process
    /// independently emigrates with probability `migration` at each period
    /// boundary, landing in a uniformly random (non-partitioned) shard.
    ///
    /// `migration = 1.0` therefore reshuffles the whole population every
    /// period — statistically equivalent to well-mixed interaction, which is
    /// what the sharded-vs-batched equivalence tests pin.
    ///
    /// # Errors
    ///
    /// Returns an error if `shards` is zero or `migration` lies outside
    /// `[0, 1]`.
    pub fn new(shards: usize, migration: f64) -> Result<Self> {
        if shards == 0 {
            return Err(SimError::InvalidConfig {
                name: "shards",
                reason: "a sharded topology needs at least one shard".into(),
            });
        }
        check_probability("migration", migration)?;
        Ok(ShardConfig {
            shards,
            migration,
            placement: Placement::Blocks,
        })
    }

    /// Sets the initial placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Per-period, per-process emigration probability.
    pub fn migration(&self) -> f64 {
        self.migration
    }

    /// The initial placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }
}

/// How the initial state distribution is laid out across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Processes are placed in contiguous blocks in state order: shard 0
    /// fills first, so a small minority state (e.g. the epidemic seed)
    /// concentrates in the **last** shard — the natural setup for
    /// "epidemic crossing shard boundaries" experiments.
    #[default]
    Blocks,
    /// Each state's population is split across shards as a uniform
    /// multinomial draw (every process lands in an independently uniform
    /// shard), so all shards start statistically identical.
    Uniform,
}

/// A massive failure targeting a single shard: at `period`, `fraction` of the
/// shard's alive processes crash (a uniformly random subset of that shard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFailure {
    /// The period at which the failure strikes.
    pub period: u64,
    /// The shard it strikes.
    pub shard: usize,
    /// The fraction of the shard's alive processes that crash.
    pub fraction: f64,
}

/// A temporary network partition of one shard: during
/// `from_period ..= to_period` no process migrates into or out of `shard`
/// (its internal mixing and failures continue unaffected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    /// The partitioned shard.
    pub shard: usize,
    /// First period of the partition (inclusive).
    pub from_period: u64,
    /// Last period of the partition (inclusive).
    pub to_period: u64,
}

impl ShardPartition {
    /// `true` if the partition is in force at `period`.
    pub(crate) fn active_at(&self, period: u64) -> bool {
        (self.from_period..=self.to_period).contains(&period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_constructors_and_accessors() {
        let well_mixed = Topology::default();
        assert_eq!(well_mixed, Topology::WellMixed);
        assert_eq!(well_mixed.shard_count(), 1);
        assert!(!well_mixed.is_sharded());
        assert!(well_mixed.shard_config().is_none());

        let sharded = Topology::sharded(8, 0.01).unwrap();
        assert_eq!(sharded.shard_count(), 8);
        assert!(sharded.is_sharded());
        let config = sharded.shard_config().unwrap();
        assert_eq!(config.shards(), 8);
        assert_eq!(config.migration(), 0.01);
        assert_eq!(config.placement(), Placement::Blocks);

        // A single explicit shard is still "sharded" (it selects the sharded
        // runtime; semantics match the well-mixed group).
        assert!(Topology::sharded(1, 0.5).unwrap().is_sharded());
        assert_eq!(Topology::sharded(1, 0.5).unwrap().shard_count(), 1);
    }

    #[test]
    fn shard_config_validation() {
        assert!(ShardConfig::new(0, 0.1).is_err());
        assert!(ShardConfig::new(4, -0.1).is_err());
        assert!(ShardConfig::new(4, 1.5).is_err());
        let config = ShardConfig::new(4, 1.0)
            .unwrap()
            .with_placement(Placement::Uniform);
        assert_eq!(config.placement(), Placement::Uniform);
    }

    #[test]
    fn partition_window_is_inclusive() {
        let p = ShardPartition {
            shard: 2,
            from_period: 5,
            to_period: 9,
        };
        assert!(!p.active_at(4));
        assert!(p.active_at(5));
        assert!(p.active_at(9));
        assert!(!p.active_at(10));
    }
}

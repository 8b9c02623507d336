//! The environment a run executes in, applied at every period boundary.
//!
//! The paper judges its protocols under a hostile environment: massive
//! failures, crash/recovery and churn. An [`Environment`] is that
//! environment as one automaton composed with the protocol's, built once per
//! run (once per column of a block) from the [`Scenario`] and the
//! [`RunConfig`]. Its [`boundary`](Environment::boundary) step applies, in
//! this order, the scheduled events due this period, the crash/recovery
//! model, churn, and the adversary's injections — the adversary sees the
//! post-event population, and every injection it plans is validated,
//! applied and recorded for observers.
//!
//! It acts on a [`Population`]: a count column (`ColumnMut`: single runs,
//! ensemble and shard columns, SSA, tau-leap), the sharded master over all
//! `S × states` cells, or per-process ids ([`Processes`]: agent and async,
//! which differ only in their [`Bookkeeping`]). Count-level populations
//! draw victims exchangeably (hypergeometric draws), per-process ones
//! uniformly by id, always from the population's own PRNG. Adversary
//! *decisions* draw from a stream derived from the seed, never the run's, so
//! an oblivious adversary is bit-for-bit the scheduled-event path.

use super::RunConfig;
use crate::error::CoreError;
use crate::state_machine::StateId;
use crate::Result;
use netsim::adversary::{AdversaryState, AdversaryView, Injection, InjectionRecord};
use netsim::stochastic::sample_without_replacement;
use netsim::{ChurnEvent, FailureEvent, FailureModel, Group, ProcessId, Rng, Scenario};

/// Stream tweak XORed into the seed for the adversary's decision PRNG.
const ADVERSARY_STREAM: u64 = 0x5EED_AD7E_CA5C_ADE5;

/// Which processes a strike hits: a fraction of the alive ones in a
/// target, or of all the crashed ones.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Strike {
    Crash(Target),
    /// Recovering processes land in their remembered state, or in the
    /// rejoin state when it is set.
    Recover(Option<StateId>),
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    All,
    State(usize),
    Shard(usize),
}

#[derive(Debug, Clone, Copy)]
enum Scheduled {
    /// A massive failure, global or confined to one shard.
    Crash(Target, f64),
    /// One named process crashes or recovers.
    Named { id: ProcessId, alive: bool },
}

/// The environment of one run (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Environment {
    /// Sorted by period; events sharing a period keep the scenario's order,
    /// failure schedule first, then shard failures.
    schedule: Vec<(u64, Scheduled)>,
    model: FailureModel,
    /// Sorted by period.
    churn: Vec<ChurnEvent>,
    rejoin: Option<StateId>,
    /// The adversary's per-run strategy and its decision stream.
    adversary: Option<(Box<dyn AdversaryState>, Rng)>,
    /// The injections applied at the most recent boundary.
    log: Vec<InjectionRecord>,
    /// No boundary of the run has anything to apply (`false` is always
    /// safe: `calm` then checks the period).
    quiet: bool,
}

/// `⌊fraction · population⌋`: how many processes a fractional strike hits.
pub(crate) fn victim_count(fraction: f64, population: u64) -> u64 {
    ((fraction * population as f64).floor() as u64).min(population)
}

/// The entries of a period-sorted list that fall on `period`.
#[inline(always)]
fn due<T>(list: &[T], period: u64, key: impl Fn(&T) -> u64) -> &[T] {
    let start = list.partition_point(|entry| key(entry) < period);
    let len = list[start..].partition_point(|entry| key(entry) == period);
    &list[start..start + len]
}

impl Environment {
    /// The environment of a run of `scenario` whose adversary decides from
    /// `seed` (a block column's seed, otherwise the scenario's own).
    pub(crate) fn new(scenario: &Scenario, seed: u64, config: &RunConfig) -> Self {
        let failures = scenario.failure_schedule().events().iter();
        let failures = failures.map(|&(period, ref event)| match *event {
            FailureEvent::MassiveFailure { fraction } => {
                (period, Scheduled::Crash(Target::All, fraction))
            }
            FailureEvent::Crash(id) => (period, Scheduled::Named { id, alive: false }),
            FailureEvent::Recover(id) => (period, Scheduled::Named { id, alive: true }),
        });
        let shards = scenario.shard_failures().iter().map(|f| {
            let event = Scheduled::Crash(Target::Shard(f.shard), f.fraction);
            (f.period, event)
        });
        let mut schedule: Vec<_> = failures.chain(shards).collect();
        schedule.sort_by_key(|&(period, _)| period);
        let mut churn = scenario.churn_events().to_vec();
        churn.sort_by_key(|event| event.period);
        let adversary = (scenario.adversary())
            .map(|handle| (handle.fork(), Rng::seed_from(seed ^ ADVERSARY_STREAM)));
        let model = *scenario.failure_model();
        Environment {
            quiet: (schedule.is_empty() && churn.is_empty() && adversary.is_none())
                && model == FailureModel::none(),
            schedule,
            model,
            churn,
            rejoin: config.rejoin_state,
            adversary,
            log: Vec::new(),
        }
    }

    /// Splits a sharded run's environment into the master's, which keeps
    /// what spans shards (the schedule and the adversary), and the one each
    /// shard lives in: the crash/recovery model, on the shard's own stream.
    pub(crate) fn split_shards(mut self) -> (Self, Self) {
        let shard = Environment {
            model: std::mem::take(&mut self.model),
            rejoin: self.rejoin,
            ..Environment::default()
        };
        (self, shard)
    }

    /// The injections applied at the most recent boundary.
    pub(crate) fn records(&self) -> &[InjectionRecord] {
        &self.log
    }

    /// Whether the boundary of `period` has nothing to apply.
    #[inline(always)]
    pub(crate) fn calm(&self, period: u64) -> bool {
        self.quiet
            || self.adversary.is_none()
                && self.model == FailureModel::none()
                && due(&self.schedule, period, |&(at, _)| at).is_empty()
                && due(&self.churn, period, |event| event.period).is_empty()
    }

    /// Applies the boundary of `period` to `population`. A calm period costs
    /// a few branches; only a boundary with something to do is a call.
    ///
    /// # Errors
    ///
    /// Propagates the population's errors, and rejects an injection that is
    /// invalid, targets a state, shard or worker that does not exist, or that
    /// the population cannot represent.
    #[inline(always)]
    pub(crate) fn boundary<P: Population>(
        &mut self,
        period: u64,
        population: &mut P,
    ) -> Result<()> {
        if self.calm(period) {
            return Ok(());
        }
        self.apply(period, population)
    }

    #[inline(never)]
    fn apply<P: Population>(&mut self, period: u64, population: &mut P) -> Result<()> {
        let rejoin = self.rejoin;
        for &(_, event) in due(&self.schedule, period, |&(at, _)| at) {
            match event {
                Scheduled::Crash(target, fraction) => {
                    population.strike(Strike::Crash(target), fraction)?;
                }
                Scheduled::Named { id, alive } => population.set_alive(&[id], alive, rejoin)?,
            }
        }
        if self.model != FailureModel::none() {
            population.failure_model(&self.model, rejoin)?;
        }
        for event in due(&self.churn, period, |event| event.period) {
            population.set_alive(&event.leaves, false, rejoin)?;
            population.set_alive(&event.joins, true, rejoin)?;
        }
        let Some((strategy, rng)) = &mut self.adversary else {
            return Ok(());
        };
        self.log.clear();
        // What exists to be targeted: states, and shards and workers where
        // the population has them.
        let (planned, states, shards, segments) = population.view(period, |view| {
            let shards = view.shard_counts_alive.map_or(0, <[_]>::len);
            let segments = view.segments_alive.map_or(0, <[_]>::len);
            let planned = strategy.plan(view, rng);
            (planned, view.counts_alive.len(), shards, segments)
        });
        let invalid = |reason: String| CoreError::InvalidConfig {
            name: "adversary",
            reason,
        };
        for injection in &planned {
            injection
                .validate()
                .map_err(|e| invalid(format!("strategy emitted an invalid injection: {e}")))?;
        }
        let in_range = |index: usize, count: usize, what: &str| {
            if index < count {
                Ok(())
            } else {
                Err(invalid(format!(
                    "injection targets {what} {index}, but the run has only {count}"
                )))
            }
        };
        for injection in planned {
            let victims = match injection {
                Injection::CrashUniform { fraction } => {
                    population.strike(Strike::Crash(Target::All), fraction)?
                }
                Injection::CrashState { state, fraction } => {
                    in_range(state, states, "state")?;
                    population.strike(Strike::Crash(Target::State(state)), fraction)?
                }
                Injection::CrashShard { shard, fraction } if shards > 0 => {
                    in_range(shard, shards, "shard")?;
                    population.strike(Strike::Crash(Target::Shard(shard)), fraction)?
                }
                Injection::RecoverUniform { fraction } => {
                    population.strike(Strike::Recover(rejoin), fraction)?
                }
                Injection::KillWorker { segment } if segments > 0 => {
                    in_range(segment, segments, "worker")?;
                    population.kill_worker(segment, period)?
                }
                // `Injection` is non_exhaustive: what a population cannot
                // represent is rejected, never skipped.
                unsupported => {
                    let runtime = P::RUNTIME;
                    return Err(invalid(format!(
                        "the adversary emitted {unsupported:?}, which the {runtime} runtime \
                         cannot represent"
                    )));
                }
            };
            self.log.push(InjectionRecord {
                period,
                injection,
                victims,
            });
        }
        Ok(())
    }
}

/// What an [`Environment`] acts on.
pub(crate) trait Population {
    /// The runtime an unsupported injection's error names.
    const RUNTIME: &'static str;

    /// Hands `plan` the adversary's view of the population at `period`.
    fn view<R>(&mut self, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R;

    /// Hits `⌊fraction · pool⌋` uniformly random processes of the pool
    /// `strike` names — a scheduled massive failure and an injection alike —
    /// and returns how many. A shard is targeted only where the view
    /// carries shards.
    fn strike(&mut self, strike: Strike, fraction: f64) -> Result<u64>;

    /// One period of the probabilistic crash/recovery model.
    fn failure_model(&mut self, model: &FailureModel, rejoin: Option<StateId>) -> Result<()>;

    /// Crashes, or recovers into `rejoin`, the named processes not already
    /// so; count-level runtimes reject per-id events at init.
    fn set_alive(&mut self, _: &[ProcessId], _alive: bool, _: Option<StateId>) -> Result<()> {
        unreachable!("only per-process populations have names")
    }

    /// Kills the worker of transport segment `segment`; asked only of a
    /// population whose view carries segments.
    fn kill_worker(&mut self, _segment: usize, _period: u64) -> Result<u64> {
        unreachable!("only the async runtime has workers")
    }
}

/// What a per-process tier books when one of its processes crashes or
/// recovers, beside the liveness bit its [`Group`] keeps.
pub(crate) trait Bookkeeping {
    /// See [`Population::RUNTIME`].
    const RUNTIME: &'static str;

    fn counts_alive(&self) -> &[u64];

    fn state_of(&self, p: usize) -> usize;

    /// Books the crash of alive process `p`.
    fn crashed(&mut self, p: usize);

    /// Books the recovery of crashed process `p`, moving it to `rejoin`
    /// when set.
    fn recovered(&mut self, p: usize, rejoin: Option<StateId>);

    /// See [`Population::view`]: the alive counts, plus whatever the tier
    /// shows besides.
    fn view<R>(&self, group: &Group, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R {
        plan(&AdversaryView {
            period,
            counts_alive: self.counts_alive(),
            alive: group.alive_count() as u64,
            shard_counts_alive: None,
            transport: None,
            segments_alive: None,
        })
    }

    /// See [`Population::kill_worker`].
    fn kill_worker(&mut self, _group: &mut Group, _segment: usize, _period: u64) -> Result<u64> {
        unreachable!("only the async runtime has workers")
    }
}

/// A per-process population: the liveness bitset, the run's PRNG and the
/// tier's bookkeeping.
pub(crate) struct Processes<'a, B> {
    pub(crate) group: &'a mut Group,
    pub(crate) rng: &'a mut Rng,
    pub(crate) book: &'a mut B,
}

impl<B: Bookkeeping> Population for Processes<'_, B> {
    const RUNTIME: &'static str = B::RUNTIME;

    fn view<R>(&mut self, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R {
        self.book.view(self.group, period, plan)
    }

    /// The victims are drawn without replacement from the pool's ids in
    /// ascending order, the same draw a scheduled massive failure makes.
    fn strike(&mut self, strike: Strike, fraction: f64) -> Result<u64> {
        let (recover, rejoin) = match strike {
            Strike::Recover(rejoin) => (true, rejoin),
            Strike::Crash(_) => (false, None),
        };
        let pool: Vec<usize> = (0..self.group.size())
            .filter(|&p| self.group.is_alive_unchecked(p) != recover)
            .filter(|&p| match strike {
                Strike::Crash(Target::State(state)) => self.book.state_of(p) == state,
                _ => true,
            })
            .collect();
        let k = victim_count(fraction, pool.len() as u64);
        let victims = sample_without_replacement(self.rng, pool.len(), k as usize);
        let victims: Vec<ProcessId> = victims.into_iter().map(|i| ProcessId(pool[i])).collect();
        self.set_alive(&victims, recover, rejoin)?;
        Ok(k)
    }

    fn failure_model(&mut self, model: &FailureModel, rejoin: Option<StateId>) -> Result<()> {
        let (down, up) = model.step(self.group, self.rng)?;
        down.iter().for_each(|p| self.book.crashed(p.index()));
        up.iter()
            .for_each(|p| self.book.recovered(p.index(), rejoin));
        Ok(())
    }

    fn set_alive(&mut self, ids: &[ProcessId], alive: bool, rejoin: Option<StateId>) -> Result<()> {
        for &id in ids {
            if alive {
                if self.group.recover(id)? {
                    self.book.recovered(id.index(), rejoin);
                }
            } else if self.group.crash(id)? {
                self.book.crashed(id.index());
            }
        }
        Ok(())
    }

    fn kill_worker(&mut self, segment: usize, period: u64) -> Result<u64> {
        self.book.kill_worker(self.group, segment, period)
    }
}

//! The sharded count-batched runtime: S locally-mixed populations.
//!
//! The paper's protocols (and the batched runtime that executes them) assume
//! one uniformly mixed population. [`ShardedRuntime`] relaxes that: the group
//! is split into `S` shards (cells / subnets), each advanced as its own
//! count-batched population, with processes exchanged between shards at
//! period boundaries. Inter-shard contact is realized entirely through this
//! migration — a process interacts with whichever shard it currently
//! inhabits — so the per-shard dynamics stay exactly the batched runtime's
//! and the well-mixed limit is recovered as the migration probability
//! approaches 1.
//!
//! # Shards are the columns of one block
//!
//! [`BatchedRuntime`] writes its period kernel once, over `states × W`
//! blocks of columns. A sharded run is one such block of width `S`: column
//! `j` is shard `j`, with its own PRNG and its own density denominator (the
//! shard's current population), and each period advances every shard in a
//! single kernel call. Observers see the block's row sums — counts, alive
//! counts and transitions over all shards — plus the per-shard alive counts.
//!
//! # The exchange, by exchangeability
//!
//! Within a shard every alive process is exchangeable, so the *set* of
//! emigrants leaving it is a uniformly random subset of its alive
//! population: its split across protocol states is a multivariate
//! hypergeometric draw — the same argument the batched runtime uses for
//! massive failures and the hybrid runtime uses for its mid-run handoff.
//! Each period boundary therefore costs O(S · states) count-level draws from
//! one master PRNG, which reads the shards' columns of the block, draws, and
//! writes the columns back in place, refreshing each rewritten column's alive
//! total and density denominator:
//!
//! 1. **Emigration.** For each non-partitioned shard, the emigrant count is
//!    binomial(alive, migration) and is split across states by a
//!    multivariate hypergeometric draw.
//! 2. **Immigration.** Per state, the pooled emigrants are scattered over
//!    the non-partitioned shards by a uniform multinomial draw (the
//!    destination is uniform, including the source — at migration 1 the
//!    whole population reshuffles, which is statistically well-mixed; the
//!    equivalence tests pin exactly that limit).
//!
//! Crashed processes never migrate: a crashed host stays where it is, and
//! recoveries (under a probabilistic failure model) rejoin their shard.
//!
//! # Shard-targeted events
//!
//! * Global massive failures hit a uniform fraction of the whole alive
//!   population: one multivariate hypergeometric draw over all
//!   `S × states` cells.
//! * [`ShardFailure`](netsim::ShardFailure)s confine the draw to one shard.
//! * [`ShardPartition`](netsim::ShardPartition)s suspend migration in and
//!   out of a shard for a period window; its internal dynamics (and any
//!   failures) continue unaffected.
//!
//! # Fidelity and the S = 1 contract
//!
//! Shards are batched columns — not hybrid ones — because migration changes
//! shard populations every period, which a fixed-id membership cannot
//! represent. Small shard populations stay trustworthy anyway: every sampler
//! used here walks an exact inverse CDF below
//! [`netsim::stochastic::NORMAL_APPROX_CUTOFF`], so boundary probabilities
//! (extinction, an empty shard) are preserved. A run with one shard and no
//! shard-targeted events is a width-1 block whose boundary hooks apply the
//! full scenario (failure schedule and adversary included) and whose column
//! draws from the seed stream [`BatchedRuntime`] builds: it is
//! **bit-for-bit identical** to [`BatchedRuntime`]; the property tests pin
//! this.

use super::batched::{ColumnBlock, ColumnMut};
use super::inject::{self, InjectionPoint};
use super::observer::default_observers;
use super::simulation::drive;
use super::{BatchedRuntime, InitialStates, PeriodEvents, RunConfig, RunResult, Runtime};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::adversary::{AdversaryView, Injection};
use netsim::topology::Placement;
use netsim::{FailureEvent, Rng, Scenario};

/// Executes a protocol over a population split into `S` locally-mixed
/// shards, each advanced at count level, with inter-shard migration drawn
/// via multivariate hypergeometric exchange at period boundaries.
///
/// Select it explicitly with [`Simulation::run`](super::Simulation::run), or
/// implicitly: [`Simulation::run_auto`](super::Simulation::run_auto) picks
/// the sharded tier for any scenario whose
/// [`Topology`](netsim::Topology) is sharded or that carries shard-targeted
/// events.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{InitialStates, ShardedRuntime}};
/// use netsim::{Scenario, Topology};
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// // One million processes in 8 shards; the epidemic seed starts in the
/// // last shard (block placement) and must migrate to spread.
/// let scenario = Scenario::new(1_000_000, 60)?
///     .with_topology(Topology::sharded(8, 0.02)?)
///     .with_seed(7);
/// let result = ShardedRuntime::new(protocol)
///     .run(&scenario, &InitialStates::counts(&[999_999, 1]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 900_000.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedRuntime {
    inner: BatchedRuntime,
}

/// The mutable execution state of a [`ShardedRuntime`] run: the shards as
/// the columns of one batched block, the master PRNG driving exchange and
/// shard-targeted events, and the aggregated views observers consume.
#[derive(Debug, Clone)]
pub struct ShardedState {
    /// Column `j` is shard `j`. The block's boundary hooks apply what every
    /// shard runs on its own: losses and the crash/recovery model — and, for
    /// a single shard without shard events, the whole scenario.
    block: ColumnBlock,
    /// Per shard: the density denominator, its population (alive and
    /// crashed), which only migration changes.
    n_f: Vec<f64>,
    /// Drives every cross-shard draw (exchange, global and shard-targeted
    /// failures, injections, uniform placement); per-shard PRNGs are forked
    /// separately so shard streams never interleave with exchange streams.
    master_rng: Rng,
    scenario: Scenario,
    migration: f64,
    /// The global massive failures the master draws, as `(period,
    /// fraction)` sorted by period (empty when a single shard's hooks apply
    /// the schedule themselves).
    global_failures: Vec<(u64, f64)>,
    /// The scenario's adversary, driven at the master level so one strategy
    /// sees the whole population (`None` where a single shard's hooks apply
    /// it).
    injector: Option<InjectionPoint>,
    // Aggregated views, refreshed after every step.
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    alive_n: u64,
    messages: u64,
    transitions: Vec<(StateId, StateId, u64)>,
    shard_alive: Vec<Vec<u64>>,
    // Scratch buffers reused every period.
    hits: Vec<u64>,
    pool: Vec<u64>,
    weights: Vec<f64>,
    dest_draws: Vec<u64>,
    open: Vec<usize>,
    /// The `S × states` cells of a draw over the whole population,
    /// shard-major (`[j * states + s]`).
    flat_cells: Vec<u64>,
    flat_hits: Vec<u64>,
}

impl ShardedState {
    /// The next period to execute (also the number of periods executed).
    pub fn period(&self) -> u64 {
        self.block.period()
    }

    /// Per-shard alive counts (`[shard][state]`) at the current snapshot.
    pub fn shard_alive_counts(&self) -> &[Vec<u64>] {
        &self.shard_alive
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.block.width()
    }

    fn num_states(&self) -> usize {
        self.counts.len()
    }

    /// Refreshes every aggregated view from the block: row sums of its
    /// counts and of the last period's transition tallies, the per-shard
    /// alive counts, and the messages each shard would have reported.
    fn refresh_views(&mut self, inner: &BatchedRuntime) {
        let w = self.block.width();
        let rows = self.block.counts(false).chunks_exact(w);
        for (total, row) in self.counts.iter_mut().zip(rows) {
            *total = row.iter().sum();
        }
        let rows = self.block.counts(true).chunks_exact(w);
        for (s, (total, row)) in self.counts_alive.iter_mut().zip(rows).enumerate() {
            *total = row.iter().sum();
            for (shard, &alive) in self.shard_alive.iter_mut().zip(row) {
                shard[s] = alive;
            }
        }
        self.alive_n = self.counts_alive.iter().sum();
        self.messages = self.block.messages().iter().map(|m| m.round() as u64).sum();
        inner
            .plan()
            .render_transitions(self.block.tallies(), w, &mut self.transitions);
    }

    /// Copies the `(shard, state)` cells that `keep` selects from a
    /// `states × S` matrix of the block into [`Self::flat_cells`],
    /// shard-major, zeroes the others and returns the total kept. Empty
    /// cells draw nothing, so a draw over the flattened cells consumes the
    /// master PRNG exactly as a draw over the kept cells alone would.
    fn flatten(
        &mut self,
        matrix: fn(&ColumnBlock) -> &[u64],
        keep: impl Fn(usize, usize) -> bool,
    ) -> u64 {
        let states = self.num_states();
        let w = self.block.width();
        for (s, row) in matrix(&self.block).chunks_exact(w).enumerate() {
            for (j, &count) in row.iter().enumerate() {
                self.flat_cells[j * states + s] = if keep(j, s) { count } else { 0 };
            }
        }
        self.flat_cells.iter().sum()
    }

    /// Draws `k` uniform victims over [`Self::flat_cells`] from the master
    /// PRNG and hands each shard its share.
    fn strike_flat(&mut self, k: u64, mut apply: impl FnMut(&mut ColumnMut<'_>, &[u64])) {
        self.master_rng
            .multivariate_hypergeometric_into(&self.flat_cells, k, &mut self.flat_hits);
        let states = self.num_states();
        for (j, hits) in self.flat_hits.chunks_exact(states).enumerate() {
            apply(&mut self.block.column(j), hits);
        }
    }

    /// Crashes `fraction` of the alive processes in the `(shard, state)`
    /// cells `keep` selects, as one uniform draw from the master PRNG, and
    /// returns how many.
    fn crash_where(&mut self, fraction: f64, keep: impl Fn(usize, usize) -> bool) -> u64 {
        let alive = self.flatten(|block| block.counts(true), keep);
        let k = inject::victim_count(fraction, alive);
        self.strike_flat(k, |shard, hits| shard.crash(hits));
        k
    }
}

impl ShardedRuntime {
    /// Creates a sharded runtime with the default [`RunConfig`].
    pub fn new(protocol: Protocol) -> Self {
        ShardedRuntime {
            inner: BatchedRuntime::new(protocol),
        }
    }

    /// Replaces the run configuration ([`RunConfig::rejoin_state`] steers
    /// where recovering processes land, within their shard).
    #[must_use]
    pub fn with_config(self, config: RunConfig) -> Self {
        ShardedRuntime {
            inner: self.inner.with_config(config),
        }
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &Protocol {
        self.inner.protocol()
    }

    /// Runs the protocol under the given scenario and initial state
    /// distribution with the standard recording set (counts, transitions,
    /// alive counts, messages). Attach a
    /// [`ShardCountsRecorder`](super::ShardCountsRecorder) through
    /// [`Simulation`](super::Simulation) for per-shard series.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (mismatched initial distribution,
    /// invalid protocol, identity-needing scenarios, shard events targeting
    /// nonexistent shards) and propagates scenario errors.
    pub fn run(&self, scenario: &Scenario, initial: &InitialStates) -> Result<RunResult> {
        drive(self, scenario, initial, &mut default_observers())
    }

    fn events<'s>(&self, state: &'s ShardedState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.period(),
            counts: &state.counts,
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.alive_n,
            counts_alive: Some(&state.counts_alive),
            membership: None,
            shard_counts_alive: Some(&state.shard_alive),
            transport: None,
            injections: match &state.injector {
                Some(master) => master.records(),
                None => state.block.injection_records(0),
            },
            virtual_time: None,
        }
    }

    /// The per-period migration exchange: emigrants leave each open shard as
    /// a binomial of its alive population, split across states
    /// hypergeometrically, then scatter uniformly over the open shards.
    fn exchange(&self, state: &mut ShardedState) {
        let w = state.block.width();
        if state.migration <= 0.0 || w < 2 {
            return;
        }
        let period = state.period();
        let scenario = &state.scenario;
        state.open.clear();
        state
            .open
            .extend((0..w).filter(|&j| !scenario.is_shard_partitioned(j, period)));
        if state.open.len() < 2 {
            return;
        }
        let states = state.num_states();
        state.flatten(|block| block.counts(true), |_, _| true);
        state.pool.fill(0);
        for &j in &state.open {
            let cells = &mut state.flat_cells[j * states..(j + 1) * states];
            let emigrants = state
                .master_rng
                .binomial(cells.iter().sum(), state.migration);
            state
                .master_rng
                .multivariate_hypergeometric_into(cells, emigrants, &mut state.hits);
            for ((cell, pooled), &hit) in cells.iter_mut().zip(&mut state.pool).zip(&state.hits) {
                *cell -= hit;
                *pooled += hit;
            }
        }
        // Immigration: each emigrant lands in a uniformly random open shard
        // (including its source — at migration 1 this is a full reshuffle).
        let open_count = state.open.len();
        state.weights.clear();
        state.weights.resize(open_count, 1.0 / open_count as f64);
        for s in 0..states {
            if state.pool[s] == 0 {
                continue;
            }
            state.master_rng.multinomial_into(
                state.pool[s],
                &state.weights,
                &mut state.dest_draws[..open_count],
            );
            for (&j, &arrived) in state.open.iter().zip(&state.dest_draws) {
                state.flat_cells[j * states + s] += arrived;
            }
        }
        for &j in &state.open {
            let cells = &state.flat_cells[j * states..(j + 1) * states];
            state.n_f[j] = state.block.column(j).rebase(cells) as f64;
        }
    }

    /// Applies this period's global massive failures: one multivariate
    /// hypergeometric draw over all `S × states` alive cells, so the victims
    /// are a uniform subset of the whole population — exactly the semantics
    /// the batched runtime gives a single group.
    fn apply_global_failures(&self, state: &mut ShardedState) -> Result<()> {
        let period = state.period();
        let first = state.global_failures.partition_point(|&(p, _)| p < period);
        for i in first..state.global_failures.len() {
            let (p, fraction) = state.global_failures[i];
            if p > period {
                break;
            }
            if !(0.0..=1.0).contains(&fraction) {
                return Err(CoreError::InvalidProbability {
                    context: "massive failure fraction".into(),
                    value: fraction,
                });
            }
            state.crash_where(fraction, |_, _| true);
        }
        Ok(())
    }

    /// Applies this period's shard-targeted massive failures: the draw is
    /// confined to the target shard's alive cells.
    fn apply_shard_failures(&self, state: &mut ShardedState) {
        let period = state.period();
        for i in 0..state.scenario.shard_failures().len() {
            let failure = state.scenario.shard_failures()[i];
            if failure.period == period {
                state.crash_where(failure.fraction, |j, _| j == failure.shard);
            }
        }
    }

    /// Shows the adversary (if any) the live per-shard alive counts and
    /// applies the injections it emits from the master PRNG: uniform and
    /// state-targeted crashes draw multivariate hypergeometrics over the
    /// `S × states` alive cells — the same exchangeable semantics the
    /// scheduled global events use — while shard-targeted crashes confine
    /// the draw to one shard.
    fn apply_injections(&self, state: &mut ShardedState) -> Result<()> {
        let Some(mut injector) = state.injector.take() else {
            return Ok(());
        };
        let result = self.drive_injections(state, &mut injector);
        state.injector = Some(injector);
        result
    }

    fn drive_injections(
        &self,
        state: &mut ShardedState,
        injector: &mut InjectionPoint,
    ) -> Result<()> {
        let num_states = state.num_states();
        let num_shards = state.block.width();
        let period = state.period();
        // The adversary sees the post-event population: the views are
        // otherwise refreshed only after the protocol step.
        state.refresh_views(&self.inner);
        let planned = injector.plan(&AdversaryView {
            period,
            counts_alive: &state.counts_alive,
            alive: state.alive_n,
            shard_counts_alive: Some(&state.shard_alive),
            transport: None,
            segments_alive: None,
        })?;
        for injection in planned {
            let victims = match injection {
                Injection::CrashUniform { fraction } => state.crash_where(fraction, |_, _| true),
                Injection::CrashState { state: s, fraction } => {
                    if s >= num_states {
                        return Err(CoreError::InvalidConfig {
                            name: "adversary",
                            reason: format!(
                                "injection targets state {s}, but the protocol has only \
                                 {num_states} states"
                            ),
                        });
                    }
                    // Victims are exchangeable within the state but spread
                    // over shards: one draw over that state's cells.
                    state.crash_where(fraction, |_, cell_state| cell_state == s)
                }
                Injection::CrashShard { shard: j, fraction } => {
                    if j >= num_shards {
                        return Err(CoreError::InvalidConfig {
                            name: "adversary",
                            reason: format!(
                                "injection targets shard {j}, but the topology has only \
                                 {num_shards} shard(s)"
                            ),
                        });
                    }
                    state.crash_where(fraction, |shard, _| shard == j)
                }
                Injection::RecoverUniform { fraction } => {
                    let crashed = state.flatten(ColumnBlock::crashed_counts, |_, _| true);
                    let k = inject::victim_count(fraction, crashed);
                    let rejoin = self.inner.rejoin_state();
                    state.strike_flat(k, |shard, hits| shard.recover(hits, rejoin));
                    k
                }
                // `Injection` is non_exhaustive: unknown future injections
                // are rejected rather than silently skipped.
                unsupported => {
                    return Err(inject::unsupported_injection("sharded", &unsupported));
                }
            };
            injector.record(period, injection, victims);
        }
        Ok(())
    }
}

/// Splits the resolved initial counts across shards according to the
/// placement policy, as a row-major `states × S` matrix. Blocks fill shards
/// to capacity in state order (the minority state lands in the last shard);
/// Uniform scatters each state with a uniform multinomial draw from the
/// master PRNG.
fn place(counts: &[u64], num_shards: usize, placement: Placement, master: &mut Rng) -> Vec<u64> {
    let mut alloc = vec![0u64; counts.len() * num_shards];
    match placement {
        Placement::Blocks => {
            let n: u64 = counts.iter().sum();
            let base = n / num_shards as u64;
            let rem = (n % num_shards as u64) as usize;
            let capacity = |j: usize| base + u64::from(j < rem);
            let mut shard = 0usize;
            let mut room = capacity(0);
            for (s, &count) in counts.iter().enumerate() {
                let mut left = count;
                while left > 0 {
                    while room == 0 {
                        shard += 1;
                        room = capacity(shard);
                    }
                    let take = left.min(room);
                    alloc[s * num_shards + shard] += take;
                    room -= take;
                    left -= take;
                }
            }
        }
        Placement::Uniform => {
            let weights = vec![1.0 / num_shards as f64; num_shards];
            for (row, &count) in alloc.chunks_exact_mut(num_shards).zip(counts) {
                master.multinomial_into(count, &weights, row);
            }
        }
    }
    alloc
}

impl Runtime for ShardedRuntime {
    type State = ShardedState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        ShardedRuntime::new(protocol).with_config(config.clone())
    }

    fn protocol(&self) -> &Protocol {
        self.inner.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<ShardedState> {
        self.protocol().validate()?;
        super::reject_transport(scenario, "sharded")?;
        if !scenario.count_level_compatible() {
            return Err(CoreError::InvalidConfig {
                name: "scenario",
                reason: "the sharded runtime is count-level: per-id failure \
                         schedules and churn traces need host identity and \
                         have no sharded equivalent yet"
                    .into(),
            });
        }
        let num_shards = scenario.topology().shard_count();
        let n = scenario.group_size() as u64;
        if (num_shards as u64) > n {
            return Err(CoreError::InvalidConfig {
                name: "scenario",
                reason: format!("{num_shards} shards cannot partition a group of {n} processes"),
            });
        }
        let failures = scenario.shard_failures().iter();
        let partitions = scenario.shard_partitions().iter();
        let mut targets = (failures.map(|f| ("failure", f.shard)))
            .chain(partitions.map(|p| ("partition", p.shard)));
        if let Some((event, shard)) = targets.find(|&(_, shard)| shard >= num_shards) {
            return Err(CoreError::InvalidConfig {
                name: "scenario",
                reason: format!(
                    "shard {event} targets shard {shard} but the topology has {num_shards} shard(s)"
                ),
            });
        }
        let num_states = self.protocol().num_states();
        let counts = initial.resolve(num_states, n)?;
        let migration = scenario
            .topology()
            .shard_config()
            .map_or(0.0, |config| config.migration());

        let placement = scenario
            .topology()
            .shard_config()
            .map_or(Placement::Blocks, |config| config.placement());
        let mut root = scenario.build_rng();
        let mut master_rng = root.fork(0);
        let columns = place(&counts, num_shards, placement, &mut master_rng);
        let (hooks, rngs, global_failures, injector) =
            if num_shards == 1 && !scenario.has_shard_events() {
                // One shard without shard events is the batched run, bit for
                // bit: its hooks apply the full scenario (failure schedule
                // and adversary included) and its column draws the exact
                // stream BatchedRuntime::init builds. The master PRNG is
                // never drawn from.
                (
                    scenario.clone(),
                    vec![scenario.build_rng()],
                    Vec::new(),
                    None,
                )
            } else {
                let rngs = (1..=num_shards as u64).map(|j| root.fork(j)).collect();
                // Every shard applies the exchangeable iid environment
                // (loss, failure model) on its own; global massive failures
                // and the adversary span shards, so the master draws them.
                let local = Scenario::new(n as usize, scenario.periods())?
                    .with_loss(*scenario.loss())
                    .with_failure_model(*scenario.failure_model())
                    .with_clock(*scenario.clock());
                // Per-id events were rejected above.
                let events = scenario.failure_schedule().events().iter();
                let mut global_failures: Vec<(u64, f64)> = (events)
                    .filter_map(|(period, event)| match event {
                        FailureEvent::MassiveFailure { fraction } => Some((*period, *fraction)),
                        _ => None,
                    })
                    .collect();
                // Stable: failures sharing a period strike in schedule order.
                global_failures.sort_by_key(|&(period, _)| period);
                let injector = InjectionPoint::from_scenario(scenario);
                (local, rngs, global_failures, injector)
            };
        // The lane's own PRNG is parked whenever a column is swapped in.
        let zeros = vec![0; num_states];
        let lane = (self.inner).state_from_counts(&hooks, counts, zeros, 0, Rng::seed_from(0));
        let injectors = vec![InjectionPoint::from_scenario(&hooks); num_shards];
        let n_f = (0..num_shards)
            .map(|j| columns.iter().skip(j).step_by(num_shards).sum::<u64>() as f64)
            .collect();
        let block = self.inner.block_of_columns(lane, columns, rngs, injectors);

        let mut state = ShardedState {
            block,
            n_f,
            master_rng,
            scenario: scenario.clone(),
            migration,
            global_failures,
            injector,
            counts: vec![0; num_states],
            counts_alive: vec![0; num_states],
            alive_n: 0,
            messages: 0,
            transitions: Vec::new(),
            shard_alive: vec![vec![0; num_states]; num_shards],
            hits: vec![0; num_states],
            pool: vec![0; num_states],
            weights: Vec::with_capacity(num_shards),
            dest_draws: vec![0; num_shards],
            open: Vec::with_capacity(num_shards),
            flat_cells: vec![0; num_shards * num_states],
            flat_hits: vec![0; num_shards * num_states],
        };
        state.refresh_views(&self.inner);
        Ok(state)
    }

    fn step<'s>(&self, state: &'s mut ShardedState) -> Result<PeriodEvents<'s>> {
        // Period-boundary order: migration first (processes move, then
        // experience the period's events where they land), then global and
        // shard-targeted failures, then adversary injections (which observe
        // the post-event counts), then every shard's own hooks and the
        // protocol period, one kernel call over all shards.
        self.exchange(state);
        self.apply_global_failures(state)?;
        self.apply_shard_failures(state);
        self.apply_injections(state)?;
        self.inner.step_columns(&mut state.block, &state.n_f[..])?;
        state.refresh_views(&self.inner);
        debug_assert_eq!(
            state.counts.iter().sum::<u64>(),
            state.scenario.group_size() as u64,
            "a sharded period (exchange, failures and the shard kernel) must conserve the population"
        );
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s ShardedState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::fixtures::epidemic_protocol;
    use crate::runtime::{CountsRecorder, ShardCountsRecorder, Simulation};
    use netsim::topology::{ShardConfig, Topology};

    #[test]
    fn single_shard_delegates_bit_for_bit() {
        // S = 1 without shard events is the batched run, byte for byte —
        // including under massive failures and a failure model.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(100_000, 40)
            .unwrap()
            .with_massive_failure(20, 0.5)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.001, 0.01).unwrap())
            .with_seed(13)
            .with_topology(Topology::sharded(1, 0.3).unwrap());
        let initial = InitialStates::counts(&[99_990, 10]);
        let sharded = ShardedRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        // The batched runtime refuses sharded scenarios, so compare against
        // the same scenario without the topology marker.
        let plain = Scenario::new(100_000, 40)
            .unwrap()
            .with_massive_failure(20, 0.5)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.001, 0.01).unwrap())
            .with_seed(13);
        let batched = BatchedRuntime::new(protocol).run(&plain, &initial).unwrap();
        assert_eq!(sharded, batched);
    }

    #[test]
    fn epidemic_crosses_shards_and_conserves_population() {
        let protocol = epidemic_protocol();
        let n = 1_000_000u64;
        let scenario = Scenario::new(n as usize, 80)
            .unwrap()
            .with_topology(Topology::sharded(8, 0.02).unwrap())
            .with_seed(3);
        let runtime = ShardedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[n - 1, 1]))
            .unwrap();
        // Block placement concentrates the seed in the last shard.
        assert_eq!(state.shard_alive_counts()[7][1], 1);
        assert_eq!(state.shard_alive_counts()[0][1], 0);
        for _ in 0..80 {
            let events = runtime.step(&mut state).unwrap();
            assert_eq!(
                events.counts.iter().sum::<u64>(),
                n,
                "population conserved at period {}",
                state.period()
            );
        }
        // The epidemic escaped the seed shard: every shard is mostly infected.
        for (j, shard) in state.shard_alive_counts().iter().enumerate() {
            let total: u64 = shard.iter().sum();
            assert!(
                shard[1] as f64 > 0.9 * total as f64,
                "shard {j} not infected: {shard:?}"
            );
        }
    }

    #[test]
    fn every_shard_is_a_run_over_its_own_population() {
        // Without migration shard j is the batched run of its own counts on
        // the PRNG forked for it, under its own density denominator. Uniform
        // placement makes the shards unequal, so a denominator shared across
        // them would move every trajectory; the shard failure makes alive
        // and total counts differ, so must the denominator (the total).
        let (n, periods, shards, failed) = (40_000u64, 30, 4, 1);
        let uniform = ShardConfig::new(shards, 0.0).unwrap();
        let scenario = Scenario::new(n as usize, periods)
            .unwrap()
            .with_topology(Topology::Sharded(
                uniform.with_placement(Placement::Uniform),
            ))
            .with_shard_massive_failure(6, failed, 0.5)
            .unwrap()
            .with_seed(17);
        let initial = [n - 4_000, 4_000];
        let runtime = ShardedRuntime::new(epidemic_protocol());
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&initial))
            .unwrap();
        let column = |matrix: &[u64], j: usize| -> Vec<u64> {
            matrix.iter().skip(j).step_by(shards).copied().collect()
        };

        // At migration 0 the master draws the placement and, at the
        // failure, the victims; nothing else.
        let mut root = scenario.build_rng();
        let mut master = root.fork(0);
        let columns = place(&initial, shards, Placement::Uniform, &mut master);
        let mut references: Vec<ColumnBlock> = (0..shards)
            .map(|j| {
                let counts = column(&columns, j);
                let own = Scenario::new(counts.iter().sum::<u64>() as usize, periods).unwrap();
                let zeros = vec![0; 2];
                let lane = (runtime.inner).state_from_counts(
                    &own,
                    counts.clone(),
                    zeros,
                    0,
                    own.build_rng(),
                );
                let rng = root.fork(j as u64 + 1);
                (runtime.inner).block_of_columns(lane, counts, vec![rng], vec![None])
            })
            .collect();
        let size = |block: &ColumnBlock| block.counts(false).iter().sum::<u64>();
        assert_ne!(size(&references[0]), size(&references[1]));

        let mut hits = [0; 2];
        for period in 0..periods {
            if period == 6 {
                let reference = &mut references[failed];
                let k = inject::victim_count(0.5, reference.counts(true).iter().sum());
                master.multivariate_hypergeometric_into(reference.counts(true), k, &mut hits);
                reference.column(0).crash(&hits);
            }
            runtime.step(&mut state).unwrap();
            for (j, reference) in references.iter_mut().enumerate() {
                runtime.inner.step_block(reference).unwrap();
                for alive_only in [false, true] {
                    let shard = column(state.block.counts(alive_only), j);
                    let expected = reference.counts(alive_only);
                    assert_eq!(shard, expected, "shard {j}, period {period}");
                }
            }
        }
        assert!(references[failed].crashed_counts().iter().sum::<u64>() > 0);
    }

    #[test]
    fn shard_failure_hits_only_its_shard() {
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(80_000, 10)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.0).unwrap())
            .with_shard_massive_failure(5, 2, 0.5)
            .unwrap()
            .with_seed(1);
        let runtime = ShardedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[40_000, 40_000]))
            .unwrap();
        for _ in 0..10 {
            runtime.step(&mut state).unwrap();
        }
        let alive: Vec<u64> = state
            .shard_alive_counts()
            .iter()
            .map(|shard| shard.iter().sum())
            .collect();
        assert_eq!(alive, vec![20_000, 20_000, 10_000, 20_000]);
    }

    #[test]
    fn partitioned_shard_is_isolated_while_the_window_lasts() {
        let protocol = epidemic_protocol();
        let n = 100_000u64;
        // Seed in the last shard; shard 3 partitioned for the whole run at
        // full migration: it cannot be infected, everyone else mixes freely.
        let scenario = Scenario::new(n as usize, 50)
            .unwrap()
            .with_topology(Topology::sharded(4, 1.0).unwrap())
            .with_shard_partition(3, 0, 1_000)
            .unwrap()
            .with_seed(5);
        let runtime = ShardedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[n - 1, 1]))
            .unwrap();
        for _ in 0..50 {
            runtime.step(&mut state).unwrap();
        }
        let shards = state.shard_alive_counts();
        // The partitioned shard held the seed (block placement put the
        // single infected process in the last shard) — the epidemic rages
        // inside it but never escapes.
        assert!(
            shards[3][1] > 20_000,
            "seed shard infected: {:?}",
            shards[3]
        );
        for (j, shard) in shards.iter().enumerate().take(3) {
            assert_eq!(shard[1], 0, "shard {j} must stay uninfected");
        }
        // Population in the partitioned shard is frozen at its initial size.
        assert_eq!(shards[3].iter().sum::<u64>(), n / 4);
    }

    #[test]
    fn uniform_placement_spreads_every_state() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(80_000, 5)
            .unwrap()
            .with_topology(Topology::Sharded(
                ShardConfig::new(8, 0.0)
                    .unwrap()
                    .with_placement(Placement::Uniform),
            ))
            .with_seed(2);
        let runtime = ShardedRuntime::new(protocol);
        let state = runtime
            .init(&scenario, &InitialStates::counts(&[40_000, 40_000]))
            .unwrap();
        for (j, shard) in state.shard_alive_counts().iter().enumerate() {
            // Each shard holds roughly 5_000 of each state (±5σ).
            for (s, &count) in shard.iter().enumerate() {
                assert!(
                    (count as f64 - 5_000.0).abs() < 350.0,
                    "shard {j} state {s}: {count}"
                );
            }
        }
    }

    #[test]
    fn rejects_identity_scenarios_and_bad_shard_targets() {
        let protocol = epidemic_protocol();
        let runtime = ShardedRuntime::new(protocol);
        let initial = InitialStates::counts(&[99, 1]);
        // Per-id failure schedules need host identity.
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, FailureEvent::Crash(netsim::ProcessId(3)));
        let with_id = Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap()
            .with_topology(Topology::sharded(2, 0.1).unwrap());
        assert!(runtime.init(&with_id, &initial).is_err());
        // Shard events must target existing shards.
        let bad_failure = Scenario::new(100, 10)
            .unwrap()
            .with_topology(Topology::sharded(2, 0.1).unwrap())
            .with_shard_massive_failure(1, 2, 0.5)
            .unwrap();
        assert!(runtime.init(&bad_failure, &initial).is_err());
        let bad_partition = Scenario::new(100, 10)
            .unwrap()
            .with_topology(Topology::sharded(2, 0.1).unwrap())
            .with_shard_partition(7, 0, 5)
            .unwrap();
        assert!(runtime.init(&bad_partition, &initial).is_err());
        // More shards than processes is unsatisfiable.
        let tiny = Scenario::new(4, 10)
            .unwrap()
            .with_topology(Topology::sharded(8, 0.1).unwrap());
        assert!(runtime
            .init(&tiny, &InitialStates::counts(&[3, 1]))
            .is_err());
    }

    #[test]
    fn oblivious_adversary_matches_scheduled_global_failure_bit_for_bit() {
        // The master-level injection path consumes the master PRNG exactly
        // like a scheduled global massive failure of the same fraction.
        let protocol = epidemic_protocol();
        let initial = InitialStates::counts(&[99_900, 100]);
        let runtime = ShardedRuntime::new(protocol);
        let scheduled = Scenario::new(100_000, 30)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.1).unwrap())
            .with_massive_failure(5, 0.5)
            .unwrap()
            .with_seed(19);
        let injected = Scenario::new(100_000, 30)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.1).unwrap())
            .with_seed(19)
            .with_adversary(
                netsim::adversary::ObliviousSchedule::new()
                    .crash_uniform_at(5, 0.5)
                    .unwrap(),
            );
        let a = runtime.run(&scheduled, &initial).unwrap();
        let b = runtime.run(&injected, &initial).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_targeted_injection_hits_only_its_shard() {
        // The injected twin of shard_failure_hits_only_its_shard: an
        // oblivious CrashShard at period 5 halves shard 2 and nothing else.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let adversary = netsim::adversary::ObliviousSchedule::new()
            .inject_at(
                5,
                netsim::adversary::Injection::CrashShard {
                    shard: 2,
                    fraction: 0.5,
                },
            )
            .unwrap();
        let scenario = Scenario::new(80_000, 10)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.0).unwrap())
            .with_seed(1)
            .with_adversary(adversary);
        let runtime = ShardedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[40_000, 40_000]))
            .unwrap();
        for _ in 0..10 {
            runtime.step(&mut state).unwrap();
        }
        let alive: Vec<u64> = state
            .shard_alive_counts()
            .iter()
            .map(|shard| shard.iter().sum())
            .collect();
        assert_eq!(alive, vec![20_000, 20_000, 10_000, 20_000]);
    }

    #[test]
    fn shard_observer_records_per_shard_series() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(10_000, 20)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.1).unwrap())
            .with_seed(8);
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[9_999, 1]))
            .observe(CountsRecorder::new())
            .observe(ShardCountsRecorder::new())
            .run::<ShardedRuntime>()
            .unwrap();
        for j in 0..4 {
            let series = result.metrics.series(&format!("shard{j}:x")).unwrap();
            assert_eq!(series.len(), 21, "shard {j} series covers every period");
        }
        // Per-shard series sum to the aggregate at the final period.
        let aggregate = result.final_counts().unwrap()[0];
        let sharded_sum: f64 = (0..4)
            .map(|j| {
                result
                    .metrics
                    .series(&format!("shard{j}:x"))
                    .unwrap()
                    .last()
                    .unwrap()
                    .1
            })
            .sum();
        assert_eq!(sharded_sum, aggregate);
    }

    #[test]
    fn zero_migration_keeps_shards_isolated() {
        let protocol = epidemic_protocol();
        let n = 40_000u64;
        let scenario = Scenario::new(n as usize, 60)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.0).unwrap())
            .with_seed(6);
        let runtime = ShardedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[n - 1, 1]))
            .unwrap();
        for _ in 0..60 {
            runtime.step(&mut state).unwrap();
        }
        let shards = state.shard_alive_counts();
        // The epidemic saturates its own shard and never leaves it.
        assert!(shards[3][1] > 9_000, "seed shard: {:?}", shards[3]);
        for (j, shard) in shards.iter().enumerate().take(3) {
            assert_eq!(shard[1], 0, "shard {j} must stay uninfected");
        }
    }
}

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
//! shard-targeted events is a width-1 block whose column lives in the full
//! scenario's environment (failure schedule and adversary included) and
//! draws from the seed stream [`BatchedRuntime`] builds: it is
//! **bit-for-bit identical** to [`BatchedRuntime`]; the property tests pin
//! this.

use super::batched::ColumnBlock;
use super::environment::{Environment, Population, Strike};
use super::{BatchedRuntime, InitialStates, Needs, PeriodEvents, RunConfig, Runtime};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::adversary::AdversaryView;
use netsim::topology::Placement;
use netsim::{FailureModel, Rng, Scenario};

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
/// use dpde_core::{ProtocolCompiler, runtime::{InitialStates, Runtime, ShardedRuntime}};
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
/// the columns of one batched block, the master environment and PRNG
/// driving exchange and cross-shard events, and the aggregated views
/// observers consume.
#[derive(Debug, Clone)]
pub struct ShardedState {
    /// Column `j` is shard `j`. Every column's environment is what each
    /// shard runs on its own: the crash/recovery model — or, for a single
    /// shard without shard events, the whole scenario.
    block: ColumnBlock,
    /// Per shard: the density denominator, its population (alive and
    /// crashed), which only migration changes.
    n_f: Vec<f64>,
    /// What spans shards: the scheduled global and shard-targeted failures
    /// and the adversary, which sees the whole population (calm where a
    /// single shard's column applies the whole scenario).
    env: Environment,
    /// Drives every cross-shard draw (exchange, global and shard-targeted
    /// failures, injections, uniform placement); per-shard PRNGs are forked
    /// separately so shard streams never interleave with exchange streams.
    master_rng: Rng,
    scenario: Scenario,
    migration: f64,
    // Aggregated views, refreshed after every step.
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    alive_n: u64,
    messages: u64,
    transitions: Vec<(StateId, StateId, u64)>,
    shard_alive: Vec<Vec<u64>>,
    // Scratch buffers reused every period.
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
    /// Per-shard alive counts (`[shard][state]`) at the current snapshot.
    #[cfg(test)]
    pub(crate) fn shard_alive_counts(&self) -> &[Vec<u64>] {
        &self.shard_alive
    }

    /// The next period to execute (also the number of periods executed).
    pub(crate) fn period(&self) -> u64 {
        self.block.period
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
        self.alive_n = sum_alive(&self.block, &mut self.counts_alive, &mut self.shard_alive);
        self.messages = self.block.messages.iter().map(|m| m.round() as u64).sum();
        inner
            .plan()
            .render_transitions(&self.block.tallies, w, &mut self.transitions);
    }
}

/// Sums the block's alive counts over shards into `counts_alive`, copies
/// each shard's into `shard_alive` and returns the alive total.
fn sum_alive(block: &ColumnBlock, counts_alive: &mut [u64], shard_alive: &mut [Vec<u64>]) -> u64 {
    let rows = block.counts(true).chunks_exact(block.width());
    for (s, (total, row)) in counts_alive.iter_mut().zip(rows).enumerate() {
        *total = row.iter().sum();
        for (shard, &alive) in shard_alive.iter_mut().zip(row) {
            shard[s] = alive;
        }
    }
    counts_alive.iter().sum()
}

/// The whole population as the master PRNG strikes it: one draw over the
/// `S × states` cells of the block, the cells a strike does not target
/// zeroed — the exchangeable semantics the batched runtime gives a single
/// group.
struct Shards<'a> {
    block: &'a mut ColumnBlock,
    rng: &'a mut Rng,
    cells: &'a mut [u64],
    hits: &'a mut [u64],
    /// The adversary's view: alive counts summed over shards, and per shard.
    counts_alive: &'a mut [u64],
    shard_alive: &'a mut [Vec<u64>],
}

impl Population for Shards<'_> {
    const RUNTIME: &'static str = "sharded";

    fn view<R>(&mut self, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R {
        let alive = sum_alive(self.block, self.counts_alive, self.shard_alive);
        plan(&AdversaryView {
            period,
            counts_alive: self.counts_alive,
            alive,
            shard_counts_alive: Some(self.shard_alive),
            transport: None,
            segments_alive: None,
        })
    }

    fn strike(&mut self, strike: Strike, fraction: f64) -> Result<u64> {
        (self.block.all_columns(self.rng, self.cells, self.hits)).strike(strike, fraction)
    }

    fn failure_model(&mut self, _model: &FailureModel, _rejoin: Option<StateId>) -> Result<()> {
        unreachable!("every shard runs the crash/recovery model on its own stream")
    }
}

impl ShardedRuntime {
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
            // The adversary lives in the master's environment, or in the
            // single shard's.
            injections: match state.env.records() {
                [] => state.block.environments[0].records(),
                master => master,
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
        let states = state.counts.len();
        let (rng, hits) = (&mut state.master_rng, &mut state.flat_hits);
        (state.block.all_columns(rng, &mut state.flat_cells, hits)).gather(false, |_, _| true);
        state.pool.fill(0);
        for &j in &state.open {
            let cells = &mut state.flat_cells[j * states..(j + 1) * states];
            let emigrants = state
                .master_rng
                .binomial(cells.iter().sum(), state.migration);
            state.master_rng.multivariate_hypergeometric_into(
                cells,
                emigrants,
                &mut state.flat_hits,
            );
            let hits = &state.flat_hits;
            for ((cell, pooled), &hit) in cells.iter_mut().zip(&mut state.pool).zip(hits) {
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
        ShardedRuntime {
            inner: BatchedRuntime::build(protocol, config),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.inner.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<ShardedState> {
        self.protocol().validate()?;
        Needs::of(scenario).check(super::SHARDED)?;
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
        let env = Environment::new(scenario, scenario.seed(), self.inner.config());
        let (env, shard_env, rngs) = if num_shards == 1 && !scenario.has_shard_events() {
            // One shard without shard events is the batched run, bit for
            // bit: its column lives in the whole environment (failure
            // schedule and adversary included) and draws the exact stream
            // BatchedRuntime::init builds. The master PRNG is never drawn
            // from.
            (Environment::default(), env, vec![scenario.build_rng()])
        } else {
            let (master, shard) = env.split_shards();
            let rngs = (1..=num_shards as u64).map(|j| root.fork(j)).collect();
            (master, shard, rngs)
        };
        let n_f = (0..num_shards)
            .map(|j| columns.iter().skip(j).step_by(num_shards).sum::<u64>() as f64)
            .collect();
        let environments = vec![shard_env; num_shards];
        let block = (self.inner).block_of_columns(scenario, columns, rngs, environments);

        let mut state = ShardedState {
            block,
            n_f,
            env,
            master_rng,
            scenario: scenario.clone(),
            migration,
            counts: vec![0; num_states],
            counts_alive: vec![0; num_states],
            alive_n: 0,
            messages: 0,
            transitions: Vec::new(),
            shard_alive: vec![vec![0; num_states]; num_shards],
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
        // experience the period's events where they land), then the master
        // environment (global and shard-targeted failures, then adversary
        // injections, which observe the post-event counts), then every
        // shard's own environment and the protocol period, one kernel call
        // over all shards.
        self.exchange(state);
        let period = state.period();
        let mut shards = Shards {
            block: &mut state.block,
            rng: &mut state.master_rng,
            cells: &mut state.flat_cells,
            hits: &mut state.flat_hits,
            counts_alive: &mut state.counts_alive,
            shard_alive: &mut state.shard_alive,
        };
        state.env.boundary(period, &mut shards)?;
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
    use crate::fixtures::epidemic_protocol;
    use crate::runtime::environment::victim_count;
    use crate::runtime::{CountsRecorder, ShardCountsRecorder, Simulation};
    use netsim::topology::{ShardConfig, Topology};
    use netsim::FailureEvent;

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
                let rng = root.fork(j as u64 + 1);
                let calm = vec![Environment::default()];
                (runtime.inner).block_of_columns(&own, counts, vec![rng], calm)
            })
            .collect();
        let size = |block: &ColumnBlock| block.counts(false).iter().sum::<u64>();
        assert_ne!(size(&references[0]), size(&references[1]));

        let mut hits = [0; 2];
        for period in 0..periods {
            if period == 6 {
                let reference = &mut references[failed];
                let k = victim_count(0.5, reference.counts(true).iter().sum());
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

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
//! # The exchange, by exchangeability
//!
//! Within a shard every alive process is exchangeable, so the *set* of
//! emigrants leaving it is a uniformly random subset of its alive
//! population: its split across protocol states is a multivariate
//! hypergeometric draw — the same argument the batched runtime uses for
//! massive failures and the hybrid runtime uses for its mid-run handoff.
//! Each period boundary therefore costs O(S · states) count-level draws:
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
//! Shards are advanced by [`BatchedRuntime`] states — not hybrid ones —
//! because migration changes shard populations every period, which a
//! fixed-id membership cannot represent. Small shard populations stay
//! trustworthy anyway: every sampler used here walks an exact inverse CDF
//! below [`netsim::stochastic::NORMAL_APPROX_CUTOFF`], so boundary
//! probabilities (extinction, an empty shard) are preserved. A run with one
//! shard and no shard-targeted events delegates wholesale to the batched
//! path — same scenario, same seed stream — and is **bit-for-bit identical**
//! to [`BatchedRuntime`]; the property tests pin this.
//!
//! # Threads
//!
//! [`ShardedRuntime::with_parallel`] steps shards on scoped worker threads.
//! Per-shard work is O(actions) arithmetic plus one draw per distinct
//! transition edge, regardless of N, so parallelism only pays when that
//! inner work is heavy (many states) or cores are plentiful; the default is
//! sequential stepping, which also keeps single-core CI benches honest.

use super::inject::{self, InjectionPoint};
use super::observer::default_observers;
use super::simulation::drive;
use super::{
    BatchedRuntime, BatchedState, InitialStates, PeriodEvents, RunConfig, RunResult, Runtime,
};
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
    parallel: bool,
}

/// The mutable execution state of a [`ShardedRuntime`] run: one
/// [`BatchedState`] per shard, the master PRNG driving exchange and
/// shard-targeted events, and the aggregated views observers consume.
#[derive(Debug, Clone)]
pub struct ShardedState {
    shards: Vec<BatchedState>,
    /// Drives every cross-shard draw (exchange, global and shard-targeted
    /// failures, uniform placement); per-shard PRNGs are forked separately
    /// so shard streams never interleave with exchange streams.
    master_rng: Rng,
    scenario: Scenario,
    /// `true` when the run is a single shard with no shard-targeted events:
    /// the shard holds the full scenario and the exact seed stream of
    /// [`BatchedRuntime`], making the run bit-for-bit identical to it.
    delegate: bool,
    migration: f64,
    period: u64,
    /// The scenario's adversary, driven at the master level so one strategy
    /// instance sees the whole sharded population (`None` in delegate mode —
    /// there the single shard's own injection point applies it, keeping the
    /// bit-for-bit contract with [`BatchedRuntime`]).
    injector: Option<InjectionPoint>,
    // Aggregated views, refreshed after every step.
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    alive_n: u64,
    messages: u64,
    transitions_dense: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    shard_alive: Vec<Vec<u64>>,
    // Scratch buffers reused every period.
    scratch_alive: Vec<Vec<u64>>,
    scratch_hits: Vec<u64>,
    pool: Vec<u64>,
    weights: Vec<f64>,
    dest_draws: Vec<u64>,
    open: Vec<usize>,
    flat_cells: Vec<u64>,
    flat_hits: Vec<u64>,
}

impl ShardedState {
    /// The next period to execute (also the number of periods executed).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Per-shard alive counts (`[shard][state]`) at the current snapshot.
    pub fn shard_alive_counts(&self) -> &[Vec<u64>] {
        &self.shard_alive
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn num_states(&self) -> usize {
        self.counts.len()
    }

    fn refresh_aggregates(&mut self) {
        let num_states = self.num_states();
        self.counts.fill(0);
        self.counts_alive.fill(0);
        self.transitions_dense.fill(0);
        self.transitions.clear();
        self.messages = 0;
        for (j, shard) in self.shards.iter().enumerate() {
            for (s, (&alive, &total)) in shard
                .alive_counts()
                .iter()
                .zip(shard.total_counts())
                .enumerate()
            {
                self.counts_alive[s] += alive;
                self.counts[s] += total;
                self.shard_alive[j][s] = alive;
            }
            self.messages += shard.last_messages();
            for &(from, to, count) in shard.last_transitions() {
                self.transitions_dense[from.index() * num_states + to.index()] += count;
            }
        }
        self.alive_n = self.counts_alive.iter().sum();
        super::render_sparse_transitions(
            &self.transitions_dense,
            num_states,
            &mut self.transitions,
        );
    }
}

impl ShardedRuntime {
    /// Creates a sharded runtime with the default [`RunConfig`] and
    /// sequential shard stepping.
    pub fn new(protocol: Protocol) -> Self {
        ShardedRuntime {
            inner: BatchedRuntime::new(protocol),
            parallel: false,
        }
    }

    /// Replaces the run configuration ([`RunConfig::rejoin_state`] steers
    /// where recovering processes land, within their shard).
    #[must_use]
    pub fn with_config(self, config: RunConfig) -> Self {
        ShardedRuntime {
            inner: self.inner.with_config(config),
            parallel: self.parallel,
        }
    }

    /// Steps shards on scoped worker threads instead of sequentially.
    ///
    /// Per-shard work is independent of the shard population, so this pays
    /// only for protocols with heavy per-period work on multi-core hosts;
    /// results are identical either way (each shard owns its PRNG).
    #[must_use]
    pub fn with_parallel(mut self) -> Self {
        self.parallel = true;
        self
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
            period: state.period,
            counts: &state.counts,
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.alive_n,
            counts_alive: Some(&state.counts_alive),
            membership: None,
            shard_counts_alive: Some(&state.shard_alive),
            transport: None,
            injections: if state.delegate {
                state.shards[0].injection_records()
            } else {
                inject::records_of(&state.injector)
            },
            virtual_time: None,
        }
    }

    /// Splits the resolved initial counts across shards according to the
    /// placement policy. Blocks fill shards to capacity in state order (the
    /// minority state lands in the last shard); Uniform scatters each state
    /// with a uniform multinomial draw from the master PRNG.
    fn place(
        &self,
        counts: &[u64],
        num_shards: usize,
        placement: Placement,
        master: &mut Rng,
    ) -> Vec<Vec<u64>> {
        let num_states = counts.len();
        let mut alloc = vec![vec![0u64; num_states]; num_shards];
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
                        alloc[shard][s] += take;
                        room -= take;
                        left -= take;
                    }
                }
            }
            Placement::Uniform => {
                let weights = vec![1.0 / num_shards as f64; num_shards];
                let mut draws = vec![0u64; num_shards];
                for (s, &count) in counts.iter().enumerate() {
                    master.multinomial_into(count, &weights, &mut draws);
                    for (j, &d) in draws.iter().enumerate() {
                        alloc[j][s] = d;
                    }
                }
            }
        }
        alloc
    }

    /// The per-period migration exchange (general mode only): emigrants
    /// leave each open shard as a binomial of its alive population, split
    /// across states hypergeometrically, then scatter uniformly over the
    /// open shards.
    fn exchange(&self, state: &mut ShardedState) {
        if state.migration <= 0.0 || state.shards.len() < 2 {
            return;
        }
        let period = state.period;
        state.open.clear();
        for j in 0..state.shards.len() {
            if !state.scenario.is_shard_partitioned(j, period) {
                state.open.push(j);
            }
        }
        if state.open.len() < 2 {
            return;
        }
        let num_states = state.num_states();
        state.pool.fill(0);
        for &j in &state.open {
            let alive_total = state.shards[j].alive_total();
            let emigrants = state.master_rng.binomial(alive_total, state.migration);
            state.master_rng.multivariate_hypergeometric_into(
                state.shards[j].alive_counts(),
                emigrants,
                &mut state.scratch_hits[..num_states],
            );
            state.scratch_alive[j].copy_from_slice(state.shards[j].alive_counts());
            for s in 0..num_states {
                let hit = state.scratch_hits[s];
                state.scratch_alive[j][s] -= hit;
                state.pool[s] += hit;
            }
        }
        // Immigration: each emigrant lands in a uniformly random open shard
        // (including its source — at migration 1 this is a full reshuffle).
        let open_count = state.open.len();
        state.weights.clear();
        state.weights.resize(open_count, 1.0 / open_count as f64);
        for s in 0..num_states {
            if state.pool[s] == 0 {
                continue;
            }
            state.master_rng.multinomial_into(
                state.pool[s],
                &state.weights,
                &mut state.dest_draws[..open_count],
            );
            for (idx, &j) in state.open.iter().enumerate() {
                state.scratch_alive[j][s] += state.dest_draws[idx];
            }
        }
        for &j in &state.open {
            state.shards[j].rebase_alive(&state.scratch_alive[j]);
        }
    }

    /// Applies this period's global massive failures (general mode only):
    /// one multivariate hypergeometric draw over all `S × states` alive
    /// cells, so the victims are a uniform subset of the whole population —
    /// exactly the semantics the batched runtime gives a single group.
    fn apply_global_failures(&self, state: &mut ShardedState) -> Result<()> {
        let period = state.period;
        let num_states = state.num_states();
        for (p, event) in state.scenario.failure_schedule().events() {
            if *p != period {
                continue;
            }
            match event {
                FailureEvent::MassiveFailure { fraction } => {
                    if !(0.0..=1.0).contains(fraction) {
                        return Err(CoreError::InvalidProbability {
                            context: "massive failure fraction".into(),
                            value: *fraction,
                        });
                    }
                    for (j, shard) in state.shards.iter().enumerate() {
                        state.flat_cells[j * num_states..(j + 1) * num_states]
                            .copy_from_slice(shard.alive_counts());
                    }
                    let total_alive: u64 = state.flat_cells.iter().sum();
                    let k = (fraction * total_alive as f64).floor() as u64;
                    state.master_rng.multivariate_hypergeometric_into(
                        &state.flat_cells,
                        k,
                        &mut state.flat_hits,
                    );
                    for (j, shard) in state.shards.iter_mut().enumerate() {
                        shard.crash_counts(&state.flat_hits[j * num_states..(j + 1) * num_states]);
                    }
                }
                FailureEvent::Crash(_) | FailureEvent::Recover(_) => {
                    unreachable!("init rejects per-id failure schedules")
                }
            }
        }
        Ok(())
    }

    /// Applies this period's shard-targeted massive failures (general mode
    /// only): the draw is confined to the target shard's alive cells.
    fn apply_shard_failures(&self, state: &mut ShardedState) {
        let period = state.period;
        let num_states = state.num_states();
        for i in 0..state.scenario.shard_failures().len() {
            let failure = state.scenario.shard_failures()[i];
            if failure.period != period {
                continue;
            }
            let j = failure.shard;
            let alive_total = state.shards[j].alive_total();
            let k = (failure.fraction * alive_total as f64).floor() as u64;
            state.master_rng.multivariate_hypergeometric_into(
                state.shards[j].alive_counts(),
                k,
                &mut state.scratch_hits[..num_states],
            );
            state.shards[j].crash_counts(&state.scratch_hits[..num_states]);
        }
    }

    /// Shows the adversary (if any) the live per-shard alive counts and
    /// applies the injections it emits from the master PRNG (general mode
    /// only): uniform and state-targeted crashes draw multivariate
    /// hypergeometrics over the flattened `S × states` alive cells — the
    /// same exchangeable semantics the scheduled global events use — while
    /// shard-targeted crashes confine the draw to one shard.
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
        let num_shards = state.shards.len();
        // Fresh post-event alive view: the cached aggregates are refreshed
        // only after the protocol step, so recompute from the shards.
        for (j, shard) in state.shards.iter().enumerate() {
            state.scratch_alive[j].copy_from_slice(shard.alive_counts());
        }
        let mut counts_alive = vec![0u64; num_states];
        for shard in &state.scratch_alive {
            for (s, &c) in shard.iter().enumerate() {
                counts_alive[s] += c;
            }
        }
        let alive: u64 = counts_alive.iter().sum();
        let planned = injector.plan(&AdversaryView {
            period: state.period,
            counts_alive: &counts_alive,
            alive,
            shard_counts_alive: Some(&state.scratch_alive),
            transport: None,
            segments_alive: None,
        })?;
        for injection in planned {
            let victims = match injection {
                Injection::CrashUniform { fraction } => {
                    for (j, shard) in state.shards.iter().enumerate() {
                        state.flat_cells[j * num_states..(j + 1) * num_states]
                            .copy_from_slice(shard.alive_counts());
                    }
                    let total: u64 = state.flat_cells.iter().sum();
                    let k = inject::victim_count(fraction, total);
                    state.master_rng.multivariate_hypergeometric_into(
                        &state.flat_cells,
                        k,
                        &mut state.flat_hits,
                    );
                    for (j, shard) in state.shards.iter_mut().enumerate() {
                        shard.crash_counts(&state.flat_hits[j * num_states..(j + 1) * num_states]);
                    }
                    k
                }
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
                    // over shards: split the kill across shards by a
                    // hypergeometric draw over that state's per-shard cells.
                    let cells: Vec<u64> = state
                        .shards
                        .iter()
                        .map(|shard| shard.alive_counts()[s])
                        .collect();
                    let total: u64 = cells.iter().sum();
                    let k = inject::victim_count(fraction, total);
                    state.master_rng.multivariate_hypergeometric_into(
                        &cells,
                        k,
                        &mut state.dest_draws[..num_shards],
                    );
                    for (j, shard) in state.shards.iter_mut().enumerate() {
                        state.scratch_hits[..num_states].fill(0);
                        state.scratch_hits[s] = state.dest_draws[j];
                        shard.crash_counts(&state.scratch_hits[..num_states]);
                    }
                    k
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
                    let alive_total = state.shards[j].alive_total();
                    let k = inject::victim_count(fraction, alive_total);
                    state.master_rng.multivariate_hypergeometric_into(
                        state.shards[j].alive_counts(),
                        k,
                        &mut state.scratch_hits[..num_states],
                    );
                    state.shards[j].crash_counts(&state.scratch_hits[..num_states]);
                    k
                }
                Injection::RecoverUniform { fraction } => {
                    for (j, shard) in state.shards.iter().enumerate() {
                        state.flat_cells[j * num_states..(j + 1) * num_states]
                            .copy_from_slice(shard.crashed_counts());
                    }
                    let total: u64 = state.flat_cells.iter().sum();
                    let k = inject::victim_count(fraction, total);
                    state.master_rng.multivariate_hypergeometric_into(
                        &state.flat_cells,
                        k,
                        &mut state.flat_hits,
                    );
                    let rejoin = self.inner.rejoin_state();
                    for (j, shard) in state.shards.iter_mut().enumerate() {
                        shard.recover_counts(
                            &state.flat_hits[j * num_states..(j + 1) * num_states],
                            rejoin,
                        );
                    }
                    k
                }
                // `Injection` is non_exhaustive: unknown future injections
                // are rejected rather than silently skipped.
                unsupported => {
                    return Err(inject::unsupported_injection("sharded", &unsupported));
                }
            };
            injector.record(state.period, injection, victims);
        }
        Ok(())
    }
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
        for failure in scenario.shard_failures() {
            if failure.shard >= num_shards {
                return Err(CoreError::InvalidConfig {
                    name: "scenario",
                    reason: format!(
                        "shard failure targets shard {} but the topology has {} shard(s)",
                        failure.shard, num_shards
                    ),
                });
            }
        }
        for partition in scenario.shard_partitions() {
            if partition.shard >= num_shards {
                return Err(CoreError::InvalidConfig {
                    name: "scenario",
                    reason: format!(
                        "shard partition targets shard {} but the topology has {} shard(s)",
                        partition.shard, num_shards
                    ),
                });
            }
        }
        let num_states = self.protocol().num_states();
        let counts = initial.resolve(num_states, n)?;
        let delegate = num_shards == 1 && !scenario.has_shard_events();
        let migration = scenario
            .topology()
            .shard_config()
            .map_or(0.0, |config| config.migration());

        let (shards, master_rng) = if delegate {
            // The single shard carries the full scenario (failure schedule
            // included) and the exact PRNG BatchedRuntime::init would build:
            // the run is bit-for-bit the batched run. The master PRNG is
            // never drawn from in this mode.
            let shard = self.inner.state_from_counts(
                scenario,
                counts.clone(),
                vec![0; num_states],
                0,
                scenario.build_rng(),
            );
            (vec![shard], scenario.build_rng())
        } else {
            let mut root = scenario.build_rng();
            let mut master = root.fork(0);
            let placement = scenario
                .topology()
                .shard_config()
                .map_or(Placement::Blocks, |config| config.placement());
            let alloc = self.place(&counts, num_shards, placement, &mut master);
            let mut shards = Vec::with_capacity(num_shards);
            for (j, shard_counts) in alloc.into_iter().enumerate() {
                let shard_n: u64 = shard_counts.iter().sum();
                // Per-shard scenarios keep the exchangeable iid environment
                // (loss, failure model, clock) but drop the failure schedule:
                // global massive failures span shards, so the outer layer
                // draws them. Scenario sizes must be positive, so an
                // initially empty shard gets a placeholder population that is
                // immediately rebased away.
                let shard_scenario = Scenario::new(shard_n.max(1) as usize, scenario.periods())?
                    .with_loss(*scenario.loss())
                    .with_failure_model(*scenario.failure_model())
                    .with_clock(*scenario.clock());
                let rng = root.fork(j as u64 + 1);
                let shard = if shard_n > 0 {
                    self.inner.state_from_counts(
                        &shard_scenario,
                        shard_counts,
                        vec![0; num_states],
                        0,
                        rng,
                    )
                } else {
                    let mut placeholder = vec![0u64; num_states];
                    placeholder[0] = 1;
                    let mut empty = self.inner.state_from_counts(
                        &shard_scenario,
                        placeholder,
                        vec![0; num_states],
                        0,
                        rng,
                    );
                    empty.rebase_alive(&shard_counts);
                    empty
                };
                shards.push(shard);
            }
            (shards, master)
        };

        let mut state = ShardedState {
            shards,
            master_rng,
            // In delegate mode the single shard carries the full scenario and
            // therefore its own injection point; a master-level one would
            // apply every injection twice.
            injector: if delegate {
                None
            } else {
                InjectionPoint::from_scenario(scenario)
            },
            scenario: scenario.clone(),
            delegate,
            migration,
            period: 0,
            counts: vec![0; num_states],
            counts_alive: vec![0; num_states],
            alive_n: 0,
            messages: 0,
            transitions_dense: vec![0; num_states * num_states],
            transitions: Vec::new(),
            shard_alive: vec![vec![0; num_states]; num_shards],
            scratch_alive: vec![vec![0; num_states]; num_shards],
            scratch_hits: vec![0; num_states],
            pool: vec![0; num_states],
            weights: Vec::with_capacity(num_shards),
            dest_draws: vec![0; num_shards],
            open: Vec::with_capacity(num_shards),
            flat_cells: vec![0; num_shards * num_states],
            flat_hits: vec![0; num_shards * num_states],
        };
        state.refresh_aggregates();
        Ok(state)
    }

    fn step<'s>(&self, state: &'s mut ShardedState) -> Result<PeriodEvents<'s>> {
        if !state.delegate {
            // Period-boundary order: migration first (processes move, then
            // experience the period's events where they land), then global
            // and shard-targeted failures, then adversary injections (which
            // observe the post-event counts), then the protocol period.
            self.exchange(state);
            self.apply_global_failures(state)?;
            self.apply_shard_failures(state);
            self.apply_injections(state)?;
        }
        if self.parallel && state.shards.len() > 1 {
            let inner = &self.inner;
            let mut results: Vec<Result<()>> = state.shards.iter().map(|_| Ok(())).collect();
            std::thread::scope(|scope| {
                for (shard, slot) in state.shards.iter_mut().zip(results.iter_mut()) {
                    scope.spawn(move || *slot = inner.step(shard).map(|_| ()));
                }
            });
            results.into_iter().collect::<Result<()>>()?;
        } else {
            for shard in &mut state.shards {
                self.inner.step(shard)?;
            }
        }
        state.period += 1;
        state.refresh_aggregates();
        debug_assert_eq!(
            state.counts.iter().sum::<u64>(),
            state.scenario.group_size() as u64,
            "a sharded period (exchange, failures and every shard kernel) must conserve the population"
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
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::{CountsRecorder, ShardCountsRecorder, Simulation};
    use netsim::topology::{ShardConfig, Topology};
    use odekit::system::EquationSystemBuilder;

    fn epidemic_protocol() -> Protocol {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        ProtocolCompiler::new("epidemic").compile(&sys).unwrap()
    }

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
    fn full_mixing_with_parallel_stepping_matches_sequential() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(100_000, 30)
            .unwrap()
            .with_topology(Topology::sharded(4, 1.0).unwrap())
            .with_seed(9);
        let initial = InitialStates::counts(&[99_900, 100]);
        let sequential = ShardedRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        let parallel = ShardedRuntime::new(protocol)
            .with_parallel()
            .run(&scenario, &initial)
            .unwrap();
        assert_eq!(sequential, parallel);
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

//! The count-batched stochastic protocol runtime.

use super::environment::{victim_count, Environment, Population, Strike, Target};
use super::plan::{PlanAction, ProtocolPlan};
use super::{InitialStates, Needs, PeriodEvents, RunConfig, Runtime, Serves};
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::adversary::AdversaryView;
use netsim::{FailureModel, Rng, Scenario};

/// Executes a protocol by advancing whole state-count vectors, sampling the
/// *number* of processes taking each transition per period instead of
/// simulating every process — O(actions) arithmetic plus one conditional
/// binomial draw per *distinct transition edge* per period, independent of
/// the group size `N`.
///
/// The paper's protocols are symmetric and memoryless: within a period every
/// process in the same state performs exchangeable Bernoulli/sampling trials,
/// so the per-state outcome tallies are binomially/multinomially distributed
/// and can be drawn directly (the "batched" technique of population-protocol
/// simulators). This is what makes N = 10⁶–10⁷ runs interactive.
///
/// # Semantics (and how they relate to [`AgentRuntime`](super::AgentRuntime))
///
/// * **Synchronous update.** All firing probabilities are evaluated against
///   the **start-of-period** alive counts and all transitions are applied at
///   the period boundary, whereas the agent runtime updates states in process
///   order within a period. The discrepancy vanishes as per-period transition
///   probabilities shrink (the compiler's normalizing constant keeps them
///   small), and the ensemble-equivalence property tests pin both fidelities
///   to the same mean trajectories.
/// * **First-move-wins.** Within one state's action list the agent runtime
///   stops at the first action that moves the process; the batched runtime
///   reproduces this with survival accounting: action `j` fires for the
///   `k_s · survive_j` processes that no earlier action moved, and the joint
///   outcome is a single multinomial draw per state.
/// * **One cell per destination.** The compiler emits one action per
///   polynomial term, so a many-variable system has states whose actions
///   nearly all lead to the same destination (32 of the 33 plurality states
///   carry 31 actions into the undecided state). The cells of a multinomial
///   that share a destination are *merged before the draw*: their
///   first-move-wins weights `survive_j · fire_j` are summed into one bucket
///   per distinct destination (in order of first appearance in the action
///   list) and the state makes one draw over those buckets plus "stay". The
///   merge is exact, not an approximation: summing cells of a multinomial
///   vector gives a multinomial over the summed probabilities, and nothing
///   downstream — the count update, [`PeriodEvents::transitions`] — ever saw
///   more than the per-destination sum. A state with no repeated destination
///   has one bucket per action and consumes the PRNG stream exactly as a
///   per-action draw would.
/// * **`PushSample`/`Tokenize` ordering.** The executor pool of a push/token
///   action is thinned by the same survival probability as the self-moving
///   actions (an executor that already moved never reaches it, exactly as in
///   the agent's first-move-wins loop). The conversions themselves are drawn
///   as binomial tallies against start-of-period counts, in action order,
///   and *applied after every state's self-move draw*: they land on the
///   members of the target state that did not move themselves this period,
///   capped at however many of those earlier conversions have left. A
///   process therefore leaves its state at most once per period and the
///   population is conserved exactly (the agent runtime resolves the same
///   races in process order). The cap binds only when self-moves and
///   conversions together would drain a state — O(per-period-probability²)
///   at the paper's parameters — and the property tests in
///   `tests/property.rs` validate the agreement through the `Runtime` trait.
///
/// # Column blocks
///
/// The period arithmetic is written once, over `W` runs at a time. All
/// per-state and per-edge quantities are row-major `states × W` /
/// `edges × W` matrices whose column `r` belongs to run `r`, with one PRNG
/// per column, and the loops go state → action → column. A single run
/// ([`step`](Runtime::step)) is the `W = 1` instance — its matrices *are* the
/// state's count vectors. A block's columns are either the seeds of one
/// scenario ([`Ensemble`](super::Ensemble) advances 64 at a time) or the
/// shards of one population ([`ShardedRuntime`](super::ShardedRuntime)
/// advances all `S` at once); either way they share the protocol, the
/// compiled plan and everything that is constant per action. The
/// density denominator is per column — a shard's population changes at
/// every exchange — but it is a type parameter of the kernel, so seeds and
/// single runs, which share one, compile to a scalar.
/// Putting the column loop innermost reorders draws only *between* columns,
/// which share nothing; within a column the order is still state by state,
/// action by action, multinomial last, so column `r` consumes its stream
/// draw for draw as a run on its own would and ends every period with the
/// same counts. At each period boundary every column's own environment acts
/// on a view of that column (its strided cells and its PRNG), so the failure
/// and injection arithmetic is written once for single runs, seeds and
/// shards; a period with nothing due costs the block one check.
///
/// # Environment support
///
/// The batched runtime models all *exchangeable* environment events at count
/// level, through the same environment layer every runtime applies at its
/// period boundaries:
///
/// * **massive failures** — crashing a uniform fraction of the alive
///   processes splits across states as a multivariate hypergeometric draw;
/// * **probabilistic failure models** — per-period crash/recovery become
///   per-state binomial draws, with crashed processes remembering their state
///   (or rejoining into [`RunConfig::rejoin_state`]);
/// * **adversary injections** — uniform and state-targeted crashes and
///   uniform recoveries, with the victims drawn the same way;
/// * **message/connection loss** — folded into the firing probabilities.
///
/// Only environments that name *specific* processes (per-id failure
/// schedules, churn traces) still need host identity:
/// [`init`](Runtime::init) rejects those loudly, and
/// [`Simulation::run_auto`](super::Simulation::run_auto) falls back to the
/// agent runtime for them automatically.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{BatchedRuntime, InitialStates, Runtime}};
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// // One million processes, half of them crashing at period 15 — still
/// // milliseconds, because work is independent of N.
/// let scenario = Scenario::new(1_000_000, 30)?
///     .with_massive_failure(15, 0.5)?
///     .with_seed(7);
/// let result = BatchedRuntime::new(protocol)
///     .run(&scenario, &InitialStates::counts(&[999_999, 1]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 400_000.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchedRuntime {
    plan: ProtocolPlan,
    config: RunConfig,
    /// A seed whose column panics when its block is built — how the
    /// ensemble tests exercise per-block panic isolation.
    #[cfg(test)]
    poisoned_seed: Option<u64>,
}

/// The mutable execution state of a [`BatchedRuntime`] run: per-state alive
/// and crashed counts, the PRNG, and reusable scratch buffers so the
/// per-period step allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchedState {
    pub(super) rng: Rng,
    /// The density denominator (the group size as `f64`), i.e. the `n` in
    /// "sample a uniform member of this group".
    pub(super) n_f: f64,
    /// The per-contact success rate of the scenario's network
    /// (`1 − LossConfig::effective_contact_failure(1)`).
    pub(super) contact_ok: f64,
    pub(super) alive_n: u64,
    /// Total processes per state (alive + crashed; crashed processes remember
    /// their state, mirroring the agent runtime's frozen membership).
    pub(super) counts: Vec<u64>,
    /// Alive processes per state — what the protocol actions act on.
    pub(super) counts_alive: Vec<u64>,
    /// Crashed processes per state — the pool recoveries draw from.
    pub(super) counts_crashed: Vec<u64>,
    pub(super) period: u64,
    pub(super) messages: u64,
    pub(super) transitions: Vec<(StateId, StateId, u64)>,
    pub(super) env: Environment,
    /// Per edge slot: processes that crossed the edge this period.
    pub(super) tallies: Vec<u64>,
    // Scratch buffers reused every period.
    /// Per state: the start-of-period members that have not left it yet this
    /// period — what a push/token conversion can still take.
    stayed: Vec<u64>,
    /// Per conversion row (push/token action): the conversions it drew
    /// this period.
    pending: Vec<u64>,
    weights: Vec<f64>,
    draws: Vec<u64>,
    /// Per-state scratch of the boundary (see [`ColumnMut`]).
    pool: Vec<u64>,
    hits: Vec<u64>,
}

/// What one call of the period kernel advances: `W` independent runs of the
/// same protocol under the same scenario, side by side. Every per-state (or
/// per-edge) quantity is a row-major `states × W` (`edges × W`) matrix, so
/// entry `[s * W + r]` belongs to run ("column") `r`, and column `r` draws
/// from `rngs[r]` only. At `W = 1` the matrices are a [`BatchedState`]'s own
/// vectors; a [`ColumnBlock`] lends its `W`-wide ones.
struct Columns<'a> {
    /// One PRNG per column; the slice length is the width `W`.
    rngs: &'a mut [Rng],
    counts: &'a mut [u64],
    counts_alive: &'a mut [u64],
    stayed: &'a mut [u64],
    tallies: &'a mut [u64],
    /// `conversions × W`: what every push/token action drew this period;
    /// zero between periods, as landing the conversions clears it.
    pending: &'a mut [u64],
    /// The state being drawn's bucket weights plus "stay", one contiguous
    /// run per column (`W × (buckets + 1)`) — the layout
    /// [`Rng::multinomial_into`] reads. Sized for the widest state and zero
    /// between states: each draw clears the cells it read, which at width 1
    /// costs less than a `memset` call per state.
    weights: &'a mut [f64],
    draws: &'a mut [u64],
    /// Per column: probability of not having moved yet within the state
    /// being drawn.
    survive: &'a mut [f64],
    /// Per column: expected messages of the period.
    messages: &'a mut [f64],
}

/// The density denominator of columns that share one population size: a
/// single run, or the seeds of one scenario. Indexing it by column returns
/// the one value, so [`BatchedRuntime::advance`] instantiated over it keeps
/// the denominator in a register; shards index a per-column slice instead.
struct Shared(f64);

impl std::ops::Index<usize> for Shared {
    type Output = f64;

    #[inline(always)]
    fn index(&self, _column: usize) -> &f64 {
        &self.0
    }
}

/// Consecutive columns of row-major `states × width` count matrices — a
/// [`BatchedState`]'s own vectors at width 1, one column of a
/// [`ColumnBlock`], or all of a sharded run's — with the PRNG their strikes
/// draw from: the population the environment acts on at count level.
/// Crashes, recoveries and rebases are written once, here, for all of them.
pub(super) struct ColumnMut<'a> {
    counts: &'a mut [u64],
    counts_alive: &'a mut [u64],
    counts_crashed: &'a mut [u64],
    /// Per column of the view: its alive total.
    alive_n: &'a mut [u64],
    width: usize,
    /// The view's first column.
    first: usize,
    rng: &'a mut Rng,
    /// The view's alive (or crashed) cells, gathered column-major
    /// (`[j * states + s]`) as the samplers and the adversary read them.
    pool: &'a mut [u64],
    /// The victims of one draw over `pool`.
    hits: &'a mut [u64],
}

impl ColumnMut<'_> {
    /// The cell of state `s` in the view's column `j`.
    fn cell(&self, j: usize, s: usize) -> usize {
        s * self.width + self.first + j
    }

    /// Moves `hits[j * states + s]` processes of state `s` in column `j`
    /// from alive to crashed. State totals and the density denominator are
    /// unchanged: crashed processes remember their state.
    pub(super) fn crash(&mut self, hits: &[u64]) {
        let states = self.counts.len() / self.width;
        for (j, hits) in hits.chunks_exact(states).enumerate() {
            for (s, &hit) in hits.iter().enumerate() {
                let cell = self.cell(j, s);
                debug_assert!(hit <= self.counts_alive[cell]);
                self.counts_alive[cell] -= hit;
                self.counts_crashed[cell] += hit;
            }
            self.alive_n[j] -= hits.iter().sum::<u64>();
        }
    }

    /// Moves `hits[j * states + s]` processes of state `s` in column `j`
    /// from crashed back to alive: into their remembered state, or all into
    /// `rejoin`.
    fn recover(&mut self, hits: &[u64], rejoin: Option<StateId>) {
        let states = self.counts.len() / self.width;
        for (j, hits) in hits.chunks_exact(states).enumerate() {
            for (s, &hit) in hits.iter().enumerate() {
                let cell = self.cell(j, s);
                debug_assert!(hit <= self.counts_crashed[cell]);
                // Rejoiners are reset: they change state, so the totals move
                // too.
                let to = rejoin.map_or(cell, |to| self.cell(j, to.index()));
                self.counts_crashed[cell] -= hit;
                self.counts_alive[to] += hit;
                self.counts[cell] -= hit;
                self.counts[to] += hit;
            }
            self.alive_n[j] += hits.iter().sum::<u64>();
        }
    }

    /// Replaces a single column's alive counts (crashed counts are
    /// untouched), refreshes the totals and returns the population, alive
    /// and crashed — the density denominator of a group whose size just
    /// changed.
    pub(super) fn rebase(&mut self, counts_alive: &[u64]) -> u64 {
        let mut population = 0;
        for (s, &alive) in counts_alive.iter().enumerate() {
            let cell = self.cell(0, s);
            self.counts_alive[cell] = alive;
            self.counts[cell] = alive + self.counts_crashed[cell];
            population += self.counts[cell];
        }
        self.alive_n[0] = counts_alive.iter().sum();
        population
    }

    /// Gathers the alive (or crashed) cells `keep(j, s)` selects into
    /// `pool`, zeroing the others, and returns their sum. Empty cells draw
    /// nothing, so a draw over the pool consumes the PRNG exactly as a draw
    /// over the kept cells alone would.
    pub(super) fn gather(&mut self, crashed: bool, keep: impl Fn(usize, usize) -> bool) -> u64 {
        let states = self.counts.len() / self.width;
        let matrix: &[u64] = if crashed {
            self.counts_crashed
        } else {
            self.counts_alive
        };
        for (i, slot) in self.pool.iter_mut().enumerate() {
            let (j, s) = (i / states, i % states);
            let cell = s * self.width + self.first + j;
            *slot = if keep(j, s) { matrix[cell] } else { 0 };
        }
        self.pool.iter().sum()
    }

    /// Applies the victims drawn into `hits`.
    fn apply(&mut self, strike: Strike) {
        let hits = std::mem::take(&mut self.hits);
        match strike {
            Strike::Recover(rejoin) => self.recover(hits, rejoin),
            Strike::Crash(_) => self.crash(hits),
        }
        self.hits = hits;
    }
}

/// Victims are drawn exchangeably: a strike over the view's cells is one
/// multivariate hypergeometric draw (on one column, a state-targeted crash
/// is a count move the draw makes without randomness), the crash/recovery
/// model one binomial per cell.
impl Population for ColumnMut<'_> {
    const RUNTIME: &'static str = "batched";

    /// One column's view (the sharded master shows the adversary its own).
    fn view<R>(&mut self, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R {
        self.gather(false, |_, _| true);
        plan(&AdversaryView {
            period,
            counts_alive: self.pool,
            alive: self.alive_n[0],
            shard_counts_alive: None,
            transport: None,
            segments_alive: None,
        })
    }

    fn strike(&mut self, strike: Strike, fraction: f64) -> Result<u64> {
        let pool = self.gather(matches!(strike, Strike::Recover(_)), |j, s| match strike {
            Strike::Crash(Target::State(state)) => s == state,
            Strike::Crash(Target::Shard(shard)) => j == shard,
            _ => true,
        });
        let k = victim_count(fraction, pool);
        (self.rng).multivariate_hypergeometric_into(self.pool, k, self.hits);
        self.apply(strike);
        Ok(k)
    }

    fn failure_model(&mut self, model: &FailureModel, rejoin: Option<StateId>) -> Result<()> {
        // A cell's draw reads only its own count, so drawing every cell
        // before moving anyone consumes the stream as moving cell by cell
        // would.
        for (p, strike) in [
            (model.crash_prob(), Strike::Crash(Target::All)),
            (model.recover_prob(), Strike::Recover(rejoin)),
        ] {
            if p > 0.0 {
                self.gather(matches!(strike, Strike::Recover(_)), |_, _| true);
                for (hit, &count) in self.hits.iter_mut().zip(&*self.pool) {
                    *hit = self.rng.binomial(count, p);
                }
                self.apply(strike);
            }
        }
        Ok(())
    }
}

/// `W` runs advanced together by [`BatchedRuntime::step_columns`]: the seeds
/// of one scenario, which [`Ensemble`](super::Ensemble) folds instead of `W`
/// separate [`BatchedState`]s (column `r` is, count for count and draw for
/// draw, the run [`BatchedRuntime`] produces at the `r`-th seed), or the
/// shards of one [`ShardedRuntime`](super::ShardedRuntime) population.
#[derive(Debug, Clone)]
pub(super) struct ColumnBlock {
    /// The next period to execute.
    pub(super) period: u64,
    /// The density denominator the seeds share (shards pass their own).
    n_f: f64,
    contact_ok: f64,
    rngs: Vec<Rng>,
    /// Per column: its environment, with its own adversary.
    pub(super) environments: Vec<Environment>,
    alive_n: Vec<u64>,
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    counts_crashed: Vec<u64>,
    stayed: Vec<u64>,
    /// The row-major `edges × width` matrix of the last period's transition
    /// tallies, one row per edge of the runtime's plan.
    pub(super) tallies: Vec<u64>,
    pending: Vec<u64>,
    weights: Vec<f64>,
    draws: Vec<u64>,
    survive: Vec<f64>,
    /// Per column: the expected messages of the last period.
    pub(super) messages: Vec<f64>,
    pool: Vec<u64>,
    hits: Vec<u64>,
}

impl ColumnBlock {
    /// The number of columns.
    pub(super) fn width(&self) -> usize {
        self.rngs.len()
    }

    /// The row-major `states × width` count matrix observers would see:
    /// every process, or only the alive ones.
    pub(super) fn counts(&self, alive_only: bool) -> &[u64] {
        if alive_only {
            &self.counts_alive
        } else {
            &self.counts
        }
    }

    /// The row-major `states × width` matrix of crashed processes.
    #[cfg(test)]
    pub(super) fn crashed_counts(&self) -> &[u64] {
        &self.counts_crashed
    }

    /// Column `r`, for the crash, recovery and rebase arithmetic.
    pub(super) fn column(&mut self, r: usize) -> ColumnMut<'_> {
        self.split(r).1
    }

    /// Every column at once, striking with `rng` over the `width × states`
    /// scratch `pool` and `hits`.
    pub(super) fn all_columns<'a>(
        &'a mut self,
        rng: &'a mut Rng,
        pool: &'a mut [u64],
        hits: &'a mut [u64],
    ) -> ColumnMut<'a> {
        ColumnMut {
            counts: &mut self.counts,
            counts_alive: &mut self.counts_alive,
            counts_crashed: &mut self.counts_crashed,
            alive_n: &mut self.alive_n,
            width: self.rngs.len(),
            first: 0,
            rng,
            pool,
            hits,
        }
    }

    /// Column `r` beside its environment.
    fn split(&mut self, r: usize) -> (&mut Environment, ColumnMut<'_>) {
        let column = ColumnMut {
            counts: &mut self.counts,
            counts_alive: &mut self.counts_alive,
            counts_crashed: &mut self.counts_crashed,
            alive_n: std::slice::from_mut(&mut self.alive_n[r]),
            width: self.rngs.len(),
            first: r,
            rng: &mut self.rngs[r],
            pool: &mut self.pool,
            hits: &mut self.hits,
        };
        (&mut self.environments[r], column)
    }
}

impl BatchedState {
    /// Applies the environment at the boundary of the period about to run
    /// (the continuous-time runtimes' too, between their event windows) to
    /// the run's count vectors, a width-1 column.
    #[inline(always)]
    pub(super) fn boundary(&mut self) -> Result<()> {
        let mut column = ColumnMut {
            counts: &mut self.counts,
            counts_alive: &mut self.counts_alive,
            counts_crashed: &mut self.counts_crashed,
            alive_n: std::slice::from_mut(&mut self.alive_n),
            width: 1,
            first: 0,
            rng: &mut self.rng,
            pool: &mut self.pool,
            hits: &mut self.hits,
        };
        self.env.boundary(self.period, &mut column)
    }
}

impl BatchedRuntime {
    /// Makes every block that holds `seed` panic.
    #[cfg(test)]
    pub(super) fn poisoned(mut self, seed: u64) -> Self {
        self.poisoned_seed = Some(seed);
        self
    }

    /// The compiled plan the kernel executes (the continuous-time and
    /// sharded tiers built on this runtime read it too).
    pub(super) fn plan(&self) -> &ProtocolPlan {
        &self.plan
    }

    /// The run configuration (the sharded runtime builds its master
    /// environment from it).
    pub(super) fn config(&self) -> &RunConfig {
        &self.config
    }

    /// What observers see of a state (the continuous-time tiers stamp it
    /// with its virtual time).
    pub(super) fn events<'s>(&self, state: &'s BatchedState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.period,
            counts: &state.counts,
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.alive_n,
            counts_alive: Some(&state.counts_alive),
            membership: None,
            shard_counts_alive: None,
            transport: None,
            injections: state.env.records(),
            virtual_time: None,
        }
    }

    /// Checks a scenario against the row of the count-level runtime `row`
    /// on this plan and builds the start-of-run state:
    /// [`init`](Runtime::init), and the continuous-time tiers' too.
    pub(super) fn start(
        &self,
        scenario: &Scenario,
        initial: &InitialStates,
        row: Serves,
    ) -> Result<BatchedState> {
        self.plan.protocol().validate()?;
        Needs::of(scenario).check(row)?;
        let counts = initial.resolve(self.plan.num_states(), scenario.group_size() as u64)?;
        let crashed = vec![0; counts.len()];
        Ok(self.state_from_counts(scenario, counts, crashed, 0, scenario.build_rng()))
    }

    /// Builds a mid-run [`BatchedState`] from per-state alive/crashed counts
    /// — the membership→counts projection of the hybrid runtime's handoff
    /// (also the tail of [`init`](Runtime::init), with all-zero crashed
    /// counts and period 0).
    ///
    /// The caller guarantees the counts sum to the scenario's group size and
    /// that the scenario is count-level compatible.
    pub(super) fn state_from_counts(
        &self,
        scenario: &Scenario,
        counts_alive: Vec<u64>,
        counts_crashed: Vec<u64>,
        period: u64,
        rng: Rng,
    ) -> BatchedState {
        let num_states = self.plan.num_states();
        let n = scenario.group_size() as u64;
        let alive_n: u64 = counts_alive.iter().sum();
        debug_assert_eq!(
            alive_n + counts_crashed.iter().sum::<u64>(),
            n,
            "handoff counts must cover the whole group"
        );
        let counts: Vec<u64> = counts_alive
            .iter()
            .zip(&counts_crashed)
            .map(|(a, c)| a + c)
            .collect();
        // Scratch sized once: one cell per bucket, plus "stay".
        let max_outcomes = self.plan.max_buckets + 1;
        BatchedState {
            env: Environment::new(scenario, scenario.seed(), &self.config),
            rng,
            n_f: n as f64,
            contact_ok: 1.0 - scenario.loss().effective_contact_failure(1),
            alive_n,
            counts_alive,
            counts_crashed,
            counts,
            period,
            messages: 0,
            transitions: Vec::with_capacity(self.plan.edges.len()),
            stayed: vec![0; num_states],
            tallies: vec![0; self.plan.edges.len()],
            pending: vec![0; self.plan.conversion_edges.len()],
            weights: vec![0.0; max_outcomes],
            draws: vec![0; max_outcomes],
            pool: vec![0; num_states],
            hits: vec![0; num_states],
        }
    }
}

impl BatchedRuntime {
    /// One protocol period over the start-of-period alive counts of every
    /// column — the only implementation of the period arithmetic.
    ///
    /// The loops run state → action → column, column innermost: whatever
    /// depends only on the protocol (the action's kind and constants, its
    /// plan slots, `contact_ok`) is read once per action, and the
    /// matrices are walked along their rows. Reordering *across* columns is
    /// free because no column ever reads another's PRNG; *within* a column
    /// the draws still come state by state, action by action, multinomial
    /// last, so each stream is consumed exactly as a run on its own would
    /// consume it. A column with nobody in the state draws nothing.
    ///
    /// `n_f[r]` is column `r`'s density denominator: [`Shared`] for columns
    /// of one population size, a per-column slice for shards.
    #[inline(always)]
    fn advance<D>(&self, cols: Columns<'_>, n_f: &D, contact_ok: f64)
    where
        D: std::ops::Index<usize, Output = f64> + ?Sized,
    {
        let Columns {
            rngs,
            counts,
            counts_alive,
            stayed,
            tallies,
            pending,
            weights,
            draws,
            survive,
            messages,
        } = cols;
        let w = rngs.len();
        // The alive counts stay the start-of-period counts until the moves
        // at the end.
        let start: &[u64] = counts_alive;
        stayed.copy_from_slice(start);
        tallies.fill(0);
        // Expected messages, matching the agent runtime's accounting: a
        // process pays for an action only if it has not already moved on an
        // earlier action this period (including the action that moves it).
        messages.fill(0.0);

        let plan = &self.plan;
        for s in 0..plan.num_states() {
            let actions = plan.range(s);
            let row = s * w;
            if actions.is_empty() || start[row..row + w].iter().all(|&k| k == 0) {
                continue;
            }
            // Per-process probability of moving to each distinct
            // destination: every self-moving action adds its first-move-wins
            // weight to its destination's bucket. Push/token actions affect
            // other states and are drawn separately.
            let bucket_edges = plan.bucket_edges(s);
            let buckets = bucket_edges.len();
            let cells = buckets + 1; // the buckets, then "stay"
            survive.fill(1.0); // probability of not having moved yet
            for a in actions {
                let slot = plan.draw_slots[a] as usize;
                let cost = f64::from(plan.messages[a]);
                for r in 0..w {
                    let k_s = start[row + r];
                    if k_s == 0 {
                        continue;
                    }
                    messages[r] += k_s as f64 * survive[r] * cost;
                    let count = |s: usize| start[s * w + r];
                    let fire = plan.fire_probability(a, count, n_f[r], contact_ok);
                    // Push/token actions convert members of another state:
                    // a binomial tally over `trials` independent attempts.
                    let (trials, success) = match plan.actions[a] {
                        PlanAction::Flip { .. }
                        | PlanAction::Sample { .. }
                        | PlanAction::SampleAny { .. } => {
                            weights[r * cells + slot] += survive[r] * fire;
                            survive[r] *= 1.0 - fire;
                            continue;
                        }
                        PlanAction::PushSample {
                            target,
                            samples,
                            prob,
                            ..
                        } => {
                            // Executors do not move themselves, but only
                            // those that no earlier self-moving action
                            // already moved reach this action (the agent
                            // runtime breaks out of the list on a move) —
                            // fold `survive` into the per-draw probability.
                            // Each surviving executor's samples convert
                            // alive members of the target state.
                            let per_draw = (count(target as usize) as f64 / n_f[r])
                                * prob
                                * contact_ok
                                * survive[r];
                            (k_s.saturating_mul(u64::from(samples)), per_draw)
                        }
                        // Each executor reaches this action only if it has
                        // not moved on an earlier action (probability
                        // `survive`, independent of the token draw).
                        PlanAction::Tokenize { .. } => (k_s, survive[r] * fire),
                    };
                    pending[slot * w + r] = rngs[r].binomial(trials, success);
                }
            }

            if buckets > 0 {
                for r in 0..w {
                    let k_s = start[row + r];
                    if k_s == 0 {
                        continue;
                    }
                    // One multinomial draw over (dest_1, ..., dest_m, stay).
                    let cell = &mut weights[r * cells..(r + 1) * cells];
                    cell[buckets] = (1.0 - cell[..buckets].iter().sum::<f64>()).max(0.0);
                    rngs[r].multinomial_into(k_s, cell, &mut draws[..cells]);
                    // Tally the movers, and leave the cells zero for the
                    // next state's sums.
                    let mut left = 0;
                    for (b, (&edge, &moved)) in bucket_edges.iter().zip(&*draws).enumerate() {
                        tallies[edge as usize * w + r] += moved;
                        left += moved;
                        cell[b] = 0.0;
                    }
                    cell[buckets] = 0.0;
                    stayed[row + r] = k_s - left;
                }
            }
        }

        // Conversions land after every self-move draw, then everything moves
        // along its edge.
        plan.land_conversions(pending, stayed, tallies, w);
        plan.move_along_edges(tallies, counts_alive, counts, w);
        debug_assert!(
            (0..w).all(|r| counts.iter().skip(r).step_by(w).sum::<u64>() as f64 == n_f[r]),
            "a batched period must conserve the population of every column"
        );
    }

    /// Builds the start-of-run [`ColumnBlock`] of `seeds.len()` runs of
    /// `scenario`, column `r` seeded with `seeds[r]` exactly as
    /// [`init`](Runtime::init) seeds a run of `scenario.with_seed(seeds[r])`.
    ///
    /// # Errors
    ///
    /// Same as [`init`](Runtime::init).
    pub(super) fn init_block(
        &self,
        scenario: &Scenario,
        initial: &InitialStates,
        seeds: &[u64],
    ) -> Result<ColumnBlock> {
        #[cfg(test)]
        assert!(
            !self.poisoned_seed.is_some_and(|seed| seeds.contains(&seed)),
            "injected test panic"
        );
        let counts = self.init(scenario, initial)?.counts_alive;
        let w = seeds.len();
        let counts_alive = counts
            .iter()
            .flat_map(|&count| std::iter::repeat(count).take(w))
            .collect();
        // `scenario.with_seed(seed).build_rng()`, without cloning the
        // scenario per column.
        let rngs = seeds.iter().map(|&seed| Rng::seed_from(seed)).collect();
        let environments = (seeds.iter())
            .map(|&seed| Environment::new(scenario, seed, &self.config))
            .collect();
        Ok(self.block_of_columns(scenario, counts_alive, rngs, environments))
    }

    /// Builds a start-of-run [`ColumnBlock`] of `scenario` whose column `r`
    /// holds column `r` of the row-major `states × W` alive-count matrix,
    /// with nobody crashed, draws from `rngs[r]` and lives in
    /// `environments[r]`.
    pub(super) fn block_of_columns(
        &self,
        scenario: &Scenario,
        counts_alive: Vec<u64>,
        rngs: Vec<Rng>,
        environments: Vec<Environment>,
    ) -> ColumnBlock {
        let w = rngs.len();
        let num_states = self.plan.num_states();
        debug_assert_eq!(counts_alive.len(), num_states * w);
        debug_assert_eq!(environments.len(), w);
        let cells = self.plan.max_buckets + 1;
        ColumnBlock {
            period: 0,
            n_f: scenario.group_size() as f64,
            contact_ok: 1.0 - scenario.loss().effective_contact_failure(1),
            alive_n: (0..w)
                .map(|r| counts_alive.iter().skip(r).step_by(w).sum())
                .collect(),
            counts: counts_alive.clone(),
            counts_alive,
            counts_crashed: vec![0; num_states * w],
            stayed: vec![0; num_states * w],
            tallies: vec![0; self.plan.edges.len() * w],
            pending: vec![0; self.plan.conversion_edges.len() * w],
            weights: vec![0.0; cells * w],
            draws: vec![0; cells],
            survive: vec![1.0; w],
            messages: vec![0.0; w],
            pool: vec![0; num_states],
            hits: vec![0; num_states],
            rngs,
            environments,
        }
    }

    /// Advances every column of a block of seeds by one period: the
    /// [`step_columns`](Self::step_columns) of columns that share the
    /// scenario's density denominator.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Runtime::step).
    pub(super) fn step_block(&self, block: &mut ColumnBlock) -> Result<()> {
        let n_f = Shared(block.n_f);
        self.step_columns(block, &n_f)
    }

    /// Advances every column of the block by one period: each column's
    /// environment at the boundary, then one call of the period kernel over
    /// the columns' density denominators `n_f`.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Runtime::step).
    pub(super) fn step_columns<D>(&self, block: &mut ColumnBlock, n_f: &D) -> Result<()>
    where
        D: std::ops::Index<usize, Output = f64> + ?Sized,
    {
        // Every column's environment comes from one scenario, so the first
        // says for all of them whether this boundary has anything to apply.
        let period = block.period;
        if !block.environments[0].calm(period) {
            for r in 0..block.width() {
                let (env, mut column) = block.split(r);
                env.boundary(period, &mut column)?;
            }
        }
        self.advance(
            Columns {
                rngs: &mut block.rngs,
                counts: &mut block.counts,
                counts_alive: &mut block.counts_alive,
                stayed: &mut block.stayed,
                tallies: &mut block.tallies,
                pending: &mut block.pending,
                weights: &mut block.weights,
                draws: &mut block.draws,
                survive: &mut block.survive,
                messages: &mut block.messages,
            },
            n_f,
            block.contact_ok,
        );
        block.period += 1;
        Ok(())
    }
}

impl Runtime for BatchedRuntime {
    type State = BatchedState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        BatchedRuntime {
            plan: ProtocolPlan::new(protocol),
            config: config.clone(),
            #[cfg(test)]
            poisoned_seed: None,
        }
    }

    fn protocol(&self) -> &Protocol {
        self.plan.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<BatchedState> {
        self.start(scenario, initial, super::BATCHED)
    }

    fn step<'s>(&self, state: &'s mut BatchedState) -> Result<PeriodEvents<'s>> {
        // 1. The environment at the period boundary.
        state.boundary()?;

        // 2. The protocol period: the width-1 instance of the column kernel.
        let mut survive = 1.0;
        let mut messages = 0.0;
        self.advance(
            Columns {
                rngs: std::slice::from_mut(&mut state.rng),
                counts: &mut state.counts,
                counts_alive: &mut state.counts_alive,
                stayed: &mut state.stayed,
                tallies: &mut state.tallies,
                pending: &mut state.pending,
                weights: &mut state.weights,
                draws: &mut state.draws,
                survive: std::slice::from_mut(&mut survive),
                messages: std::slice::from_mut(&mut messages),
            },
            &Shared(state.n_f),
            state.contact_ok,
        );
        self.plan
            .render_transitions(&state.tallies, 1, &mut state.transitions);
        state.messages = messages.round() as u64;
        state.period += 1;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s BatchedState) -> PeriodEvents<'s> {
        self.events(state)
    }

    fn block_kernel(&self) -> Option<&BatchedRuntime> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::error::CoreError;
    use crate::fixtures::{epidemic_protocol, figure1_protocol, plurality_protocol};
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::{AgentRuntime, CountsRecorder, Ensemble, ResilienceReport, Simulation};
    use netsim::adversary::{ObliviousSchedule, TargetLargestState};
    use netsim::{FailureEvent, FailureModel};
    use odekit::system::EquationSystemBuilder;

    #[test]
    fn epidemic_saturates_and_conserves_counts() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(1_000_000, 30).unwrap().with_seed(7);
        let result = BatchedRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[999_999, 1]))
            .unwrap();
        for (_, s) in result.counts.iter() {
            assert_eq!(s.iter().sum::<f64>(), 1_000_000.0);
        }
        assert!(result.final_counts().unwrap()[1] > 990_000.0);
        // Transition and message series are populated like the agent's.
        assert!(result.total_transitions("x", "y") > 990_000.0);
        assert!(result
            .metrics
            .series("messages")
            .unwrap()
            .iter()
            .any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(100_000, 25).unwrap().with_seed(3);
        let initial = InitialStates::counts(&[99_990, 10]);
        let a = BatchedRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        let b = BatchedRuntime::new(protocol)
            .run(&scenario, &initial)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn massive_failure_crashes_counts_hypergeometrically() {
        let protocol = epidemic_protocol();
        let n = 100_000u64;
        let scenario = Scenario::new(n as usize, 10)
            .unwrap()
            .with_massive_failure(5, 0.5)
            .unwrap()
            .with_seed(2);
        let runtime = BatchedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[60_000, 40_000]))
            .unwrap();
        for _ in 0..5 {
            runtime.step(&mut state).unwrap();
        }
        let before_alive = state.alive_n;
        assert_eq!(before_alive, n);
        runtime.step(&mut state).unwrap(); // period 5: the massive failure
        assert_eq!(state.alive_n, n / 2);
        // Total counts (alive + crashed) still cover everyone.
        assert_eq!(state.counts.iter().sum::<u64>(), n);
        assert_eq!(state.counts_alive.iter().sum::<u64>(), n / 2);
        // The crash split tracks the state proportions (x was mostly eaten by
        // the epidemic by period 5, so just check consistency per state).
        for s in 0..state.counts.len() {
            assert_eq!(
                state.counts[s],
                state.counts_alive[s] + state.counts_crashed[s]
            );
        }
    }

    #[test]
    fn failure_model_reaches_steady_state_availability() {
        // An inert protocol isolates the count-level crash/recovery model:
        // availability converges to recover / (crash + recover) = 0.8.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(50_000, 400)
            .unwrap()
            .with_failure_model(FailureModel::new(0.01, 0.04).unwrap())
            .with_seed(11);
        let runtime = BatchedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[25_000, 25_000]))
            .unwrap();
        for _ in 0..400 {
            runtime.step(&mut state).unwrap();
        }
        let availability = state.alive_n as f64 / 50_000.0;
        assert!(
            (availability - 0.8).abs() < 0.02,
            "availability {availability}"
        );
        // Without a rejoin state, recoveries return to their remembered
        // state: the x/y split stays balanced.
        let ratio = state.counts[0] as f64 / state.counts[1] as f64;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejoin_state_moves_recovered_processes() {
        // Crash-recovery with rejoin into y: every recovery converts an x.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let y = protocol.require_state("y").unwrap();
        let scenario = Scenario::new(10_000, 200)
            .unwrap()
            .with_failure_model(FailureModel::new(0.05, 0.2).unwrap())
            .with_seed(4);
        let runtime = BatchedRuntime::build(protocol, &RunConfig::rejoining_to(y));
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[10_000, 0]))
            .unwrap();
        for _ in 0..200 {
            runtime.step(&mut state).unwrap();
        }
        // Conservation holds and almost everyone has cycled through a crash.
        assert_eq!(state.counts.iter().sum::<u64>(), 10_000);
        assert!(state.counts[1] > 9_000, "y = {}", state.counts[1]);
    }

    #[test]
    fn per_id_scenarios_are_rejected() {
        let runtime = BatchedRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[99, 1]);
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, FailureEvent::Crash(netsim::ProcessId(3)));
        let scenario = Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap();
        assert!(matches!(
            runtime.init(&scenario, &initial),
            Err(CoreError::InvalidConfig {
                name: "scenario",
                ..
            })
        ));
        // Host 1's hour-0 downtime is in no churn event, but needs identity.
        let trace = netsim::ChurnTrace::from_availability(vec![vec![true, false, true]; 4]);
        let churned = Scenario::new(3, 10)
            .unwrap()
            .with_churn_trace(&trace.unwrap(), &mut Rng::seed_from(1))
            .unwrap();
        assert!(churned.churn_events().is_empty());
        assert!(runtime
            .init(&churned, &InitialStates::counts(&[2, 1]))
            .is_err());
        // Massive failures are fine.
        let massive = Scenario::new(100, 10)
            .unwrap()
            .with_massive_failure(5, 0.5)
            .unwrap();
        assert!(runtime.init(&massive, &initial).is_ok());
    }

    #[test]
    fn agrees_with_agent_runtime_under_massive_failure() {
        // Ensemble means of both fidelities under a 50% massive failure must
        // track each other (alive-only counts). The synchronous-update bias
        // of count batching scales with the per-period probabilities, so the
        // protocol is compiled with a small normalizing constant (exactly as
        // the ODE-equivalence property tests do) and the comparison uses a
        // trajectory-wide tolerance.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 20_000usize;
        let periods = 100;
        let scenario = Scenario::new(n, periods)
            .unwrap()
            .with_massive_failure(60, 0.5)
            .unwrap();
        // A 1% infected seed keeps the exponential phase short enough that
        // the agent's within-period cascade (a ~p/2-period head start per
        // period of growth) stays within the comparison tolerance — the same
        // regime the agent-vs-batched property test uses.
        let ensemble = Ensemble::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[n as u64 - 200, 200]))
            .seed_range(100..108)
            .count_alive_only();
        let agent = ensemble.run::<AgentRuntime>().unwrap();
        let batched = ensemble.run::<BatchedRuntime>().unwrap();
        let a = agent.mean_series("y").unwrap();
        let b = batched.mean_series("y").unwrap();
        for (period, (ya, yb)) in a.iter().zip(&b).enumerate() {
            let diff = (ya - yb).abs();
            assert!(
                diff < n as f64 * 0.15,
                "period {period}: agent {ya} vs batched {yb}"
            );
        }
        // Both saturate before the failure and halve right after it.
        assert!(a[59] > n as f64 * 0.95 && b[59] > n as f64 * 0.95);
        assert!(a[65] < n as f64 * 0.55 && b[65] < n as f64 * 0.55);
        assert!(a[65] > n as f64 * 0.4 && b[65] > n as f64 * 0.4);
    }

    #[test]
    fn small_count_extinction_frequency_matches_agent() {
        // Subcritical SIS (ẋ = −0.3xy + 0.5y, ẏ = 0.3xy − 0.5y): R₀ = 0.6,
        // so the 10 initial infectives die out, and *when* the count hits the
        // absorbing zero is a pure small-count observable. The batched
        // runtime reproduces the agent runtime's extinction frequency only
        // because the binomial sampler walks the exact inverse CDF below the
        // normal-approximation cutoff — a clamped-normal draw at these means
        // would visibly distort P[X = 0] (regression for the
        // netsim::stochastic boundary audit).
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -0.3, &[("x", 1), ("y", 1)])
            .term("x", 0.5, &[("y", 1)])
            .term("y", 0.3, &[("x", 1), ("y", 1)])
            .term("y", -0.5, &[("y", 1)])
            .build()
            .unwrap();
        // p = 0.2 keeps per-period probabilities small, so the synchronous-
        // update discretization bias of count batching stays below the
        // comparison tolerance (the same regime every equivalence test uses)
        // and the residual difference isolates the sampler boundary.
        let protocol = ProtocolCompiler::new("sis")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 1_000u64;
        let periods = 55;
        let seeds = 300u64;
        fn extinction_frequency<R: crate::runtime::Runtime>(
            protocol: &Protocol,
            n: u64,
            periods: u64,
            seeds: u64,
        ) -> f64 {
            let mut extinct = 0u64;
            for seed in 0..seeds {
                let scenario = Scenario::new(n as usize, periods).unwrap().with_seed(seed);
                let run = Simulation::of(protocol.clone())
                    .scenario(scenario)
                    .initial(InitialStates::counts(&[n - 10, 10]))
                    .observe(CountsRecorder::new())
                    .run::<R>()
                    .unwrap();
                if run.final_counts().unwrap()[1] == 0.0 {
                    extinct += 1;
                }
            }
            extinct as f64 / seeds as f64
        }
        let agent = extinction_frequency::<AgentRuntime>(&protocol, n, periods, seeds);
        let batched = extinction_frequency::<BatchedRuntime>(&protocol, n, periods, seeds);
        // The frequency is intermediate (the comparison has teeth) and the
        // fidelities agree within sampling noise (σ_diff ≈ 0.04 at 300
        // seeds; 0.12 is a 3σ band).
        assert!(
            (0.05..=0.95).contains(&agent),
            "agent extinction frequency {agent}"
        );
        assert!(
            (agent - batched).abs() < 0.12,
            "extinction frequency: agent {agent} vs batched {batched}"
        );
    }

    #[test]
    fn push_and_token_actions_work_at_count_level() {
        // Push: state a converts members of b into c.
        let mut protocol = Protocol::new("push", vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let a = protocol.require_state("a").unwrap();
        let b = protocol.require_state("b").unwrap();
        let c = protocol.require_state("c").unwrap();
        protocol
            .add_action(
                a,
                Action::PushSample {
                    target_state: b,
                    samples: 2,
                    prob: 1.0,
                    to: c,
                },
            )
            .unwrap();
        let scenario = Scenario::new(1_000, 30).unwrap().with_seed(3);
        let result = BatchedRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[500, 500, 0]))
            .unwrap();
        let last = result.final_counts().unwrap();
        assert_eq!(last.iter().sum::<f64>(), 1_000.0);
        assert_eq!(last[0], 500.0, "pushers never move");
        assert!(last[1] < 50.0, "b gets converted, got {}", last[1]);

        // Token: y' = 0.5y tokenizes x's into y.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -0.5, &[("y", 1)])
            .term("y", 0.5, &[("y", 1)])
            .build()
            .unwrap();
        let token = ProtocolCompiler::new("token").compile(&sys).unwrap();
        let scenario = Scenario::new(10_000, 200).unwrap().with_seed(11);
        let result = BatchedRuntime::new(token)
            .run(&scenario, &InitialStates::counts(&[5_000, 5_000]))
            .unwrap();
        let last = result.final_counts().unwrap();
        assert!(last[0] < 100.0);
        assert_eq!(last.iter().sum::<f64>(), 10_000.0);
    }

    #[test]
    fn oblivious_adversary_matches_scheduled_massive_failure_bit_for_bit() {
        // A CrashUniform injection consumes the run's main PRNG stream
        // exactly like a scheduled massive failure: same seed, same victims,
        // same trajectory — the equivalence the proptests pin across seeds.
        let protocol = epidemic_protocol();
        let initial = InitialStates::counts(&[99_990, 10]);
        let scheduled = Scenario::new(100_000, 30)
            .unwrap()
            .with_massive_failure(15, 0.5)
            .unwrap()
            .with_seed(7);
        let injected = Scenario::new(100_000, 30)
            .unwrap()
            .with_seed(7)
            .with_adversary(ObliviousSchedule::new().crash_uniform_at(15, 0.5).unwrap());
        let a = BatchedRuntime::new(protocol.clone())
            .run(&scheduled, &initial)
            .unwrap();
        let b = BatchedRuntime::new(protocol)
            .run(&injected, &initial)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_adversary_strikes_the_leading_state() {
        // An inert protocol isolates the injection: TargetLargestState
        // spends 30% of the *total* alive population (3000 processes), all
        // drawn from the leader (x, 6000 strong).
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(10_000, 20)
            .unwrap()
            .with_seed(3)
            .with_adversary(TargetLargestState::new(0.3, 10, 5, 1).unwrap());
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[6_000, 4_000]))
            .observe(CountsRecorder::alive_only())
            .observe(ResilienceReport::new())
            .run::<BatchedRuntime>()
            .unwrap();
        let last = result.final_counts().unwrap();
        assert_eq!(last, &[3_000.0, 4_000.0]);
        // The injection surfaced to observers (applied during period 10, so
        // it rides on snapshot 11).
        assert_eq!(
            result.metrics.series("resilience:victims").unwrap(),
            &[(11, 3_000.0)]
        );
        assert_eq!(
            result
                .metrics
                .series("resilience:injections_total")
                .unwrap(),
            &[(0, 1.0)]
        );
    }

    #[test]
    fn recovery_injections_restore_crashed_processes() {
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let adversary = ObliviousSchedule::new()
            .crash_uniform_at(2, 0.5)
            .unwrap()
            .inject_at(5, netsim::Injection::RecoverUniform { fraction: 1.0 })
            .unwrap();
        let scenario = Scenario::new(10_000, 10)
            .unwrap()
            .with_seed(9)
            .with_adversary(adversary);
        let runtime = BatchedRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[5_000, 5_000]))
            .unwrap();
        for _ in 0..3 {
            runtime.step(&mut state).unwrap();
        }
        assert_eq!(state.alive_n, 5_000);
        for _ in 3..6 {
            runtime.step(&mut state).unwrap();
        }
        // Everyone recovered into their remembered state.
        assert_eq!(state.alive_n, 10_000);
        assert_eq!(state.counts_crashed.iter().sum::<u64>(), 0);
        assert_eq!(state.counts.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn non_adjacent_repeats_share_one_bucket() {
        let mut protocol = Protocol::new("abc", vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let [b, c] = [1, 2].map(StateId::new);
        for to in [b, c, b] {
            protocol
                .add_action(StateId::new(0), Action::Flip { prob: 0.1, to })
                .unwrap();
        }
        // b is reached first with 0.1, then by the 0.9 · 0.9 that passed
        // both earlier coins: its bucket holds 0.1 + 0.081.
        let runtime = BatchedRuntime::new(protocol);
        let scenario = Scenario::new(1_000_000, 1).unwrap().with_seed(5);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[1_000_000, 0, 0]))
            .unwrap();
        runtime.step(&mut state).unwrap();
        let moved_to_b = state.counts[1] as f64;
        assert!((moved_to_b - 181_000.0).abs() < 5.0 * (181_000.0f64 * 0.819).sqrt());
        let moved_to_c = state.counts[2] as f64;
        assert!((moved_to_c - 90_000.0).abs() < 5.0 * (90_000.0f64 * 0.91).sqrt());
        assert_eq!(state.counts.iter().sum::<u64>(), 1_000_000);
    }

    /// The kernel this module's bucket merge replaced, kept as the test
    /// oracle: one multinomial cell per self-moving action. Returns state
    /// `s`'s `(destination, first-move-wins weight)` cells in action order.
    fn per_action_weights(plan: &ProtocolPlan, s: usize, start: &[u64]) -> Vec<(usize, f64)> {
        let n_f = start.iter().sum::<u64>() as f64;
        let mut survive = 1.0;
        plan.range(s)
            .map(|a| {
                assert!(
                    plan.actions[a].moves_self(),
                    "the oracle covers self-moving actions"
                );
                let fire = plan.fire_probability(a, |s| start[s], n_f, 1.0);
                let weight = survive * fire;
                survive *= 1.0 - fire;
                (plan.edge(a).1, weight)
            })
            .collect()
    }

    /// One period of the per-action oracle: draws every state's cells and
    /// sums them into dense `from * states + to` tallies.
    fn per_action_period(plan: &ProtocolPlan, start: &[u64], rng: &mut Rng) -> Vec<u64> {
        let num_states = start.len();
        let mut tallies = vec![0u64; num_states * num_states];
        for s in 0..num_states {
            let cells = per_action_weights(plan, s, start);
            let mut weights: Vec<f64> = cells.iter().map(|&(_, w)| w).collect();
            weights.push((1.0 - weights.iter().sum::<f64>()).max(0.0));
            let draws = rng.multinomial(start[s], &weights);
            for (&(dest, _), moved) in cells.iter().zip(draws) {
                tallies[s * num_states + dest] += moved;
            }
        }
        tallies
    }

    #[test]
    fn merged_buckets_draw_the_per_action_weight_sums() {
        // Draw for draw, a period is one multinomial per state over the
        // oracle's per-action weights summed per destination (in order of
        // first appearance), then "stay".
        let runtime = BatchedRuntime::new(plurality_protocol(32));
        let start: Vec<u64> = (0..33).map(|i| 50_000 + 3_000 * i).collect();
        let n: u64 = start.iter().sum();
        for seed in 0..4 {
            let scenario = Scenario::new(n as usize, 1).unwrap().with_seed(seed);
            let mut state = runtime
                .init(&scenario, &InitialStates::counts(&start))
                .unwrap();
            runtime.step(&mut state).unwrap();
            let mut rng = Rng::seed_from(seed);
            for s in 0..33 {
                let mut buckets: Vec<(usize, f64)> = Vec::new();
                for (dest, weight) in per_action_weights(&runtime.plan, s, &start) {
                    match buckets.iter_mut().find(|(d, _)| *d == dest) {
                        Some((_, sum)) => *sum += weight,
                        None => buckets.push((dest, weight)),
                    }
                }
                let mut weights: Vec<f64> = buckets.iter().map(|&(_, w)| w).collect();
                weights.push((1.0 - weights.iter().sum::<f64>()).max(0.0));
                let draws = rng.multinomial(start[s], &weights);
                for (&(dest, _), moved) in buckets.iter().zip(draws) {
                    let edge = (StateId::new(s), StateId::new(dest));
                    let tally = (state.transitions.iter()).find(|t| (t.0, t.1) == edge);
                    assert_eq!(tally.map_or(0, |t| t.2), moved, "seed {seed}: {edge:?}");
                }
            }
        }
    }

    #[test]
    fn merged_draw_has_the_per_action_marginals() {
        // One period of plurality-33 from a fixed configuration, over 4000
        // fixed seeds each through the kernel and through the per-action
        // oracle: every one of the 64 edge tallies must agree in mean and
        // variance. 128 comparisons at |z| < 4.5 leave a false-alarm budget
        // of 128 · 6.8e-6 ≈ 1e-3 (and the seeds are fixed).
        const SEEDS: u64 = 4_000;
        const Z: f64 = 4.5;
        let start: Vec<u64> = (0..33).map(|i| 50_000 + 3_000 * i).collect();
        let n: u64 = start.iter().sum();
        let runtime = BatchedRuntime::new(plurality_protocol(32));
        let mut kernel = vec![netsim::OnlineStats::new(); 33 * 33];
        let mut oracle = kernel.clone();
        for seed in 0..SEEDS {
            let scenario = Scenario::new(n as usize, 1).unwrap().with_seed(seed);
            let mut state = runtime
                .init(&scenario, &InitialStates::counts(&start))
                .unwrap();
            runtime.step(&mut state).unwrap();
            let mut tallies = vec![0u64; 33 * 33];
            for &(from, to, moved) in &state.transitions {
                tallies[from.index() * 33 + to.index()] = moved;
            }
            let mut rng = Rng::seed_from(seed ^ 0x5eed_0ac1e);
            let reference = per_action_period(&runtime.plan, &start, &mut rng);
            for (cell, (&k, &r)) in tallies.iter().zip(&reference).enumerate() {
                kernel[cell].push(k as f64);
                oracle[cell].push(r as f64);
            }
        }
        let mut edges = 0;
        for (cell, (k, r)) in kernel.iter().zip(&oracle).enumerate() {
            if r.mean() == 0.0 {
                assert_eq!(k.mean(), 0.0, "cell {cell} is not an edge");
                continue;
            }
            edges += 1;
            let runs = SEEDS as f64;
            let mean_se = ((k.variance() + r.variance()) / runs).sqrt();
            assert!(
                (k.mean() - r.mean()).abs() < Z * mean_se,
                "edge {cell}: mean {} vs oracle {}",
                k.mean(),
                r.mean()
            );
            // Var of a sample variance of a near-normal tally: 2σ⁴/(R−1).
            let var_se = r.variance() * (4.0 / (runs - 1.0)).sqrt();
            assert!(
                (k.variance() - r.variance()).abs() < Z * var_se,
                "edge {cell}: variance {} vs oracle {}",
                k.variance(),
                r.variance()
            );
        }
        assert_eq!(edges, 64);
    }

    #[test]
    fn conversions_cannot_overdraw_a_state_that_also_moves_itself() {
        // 990 000 stashers push onto 10 000 receptives that nearly all fetch
        // the object themselves in the same period: capping the push at the
        // start-of-period receptives alone counted each of them twice and
        // the period ended with 1 009 999 processes.
        let runtime = BatchedRuntime::new(figure1_protocol(true));
        let scenario = Scenario::new(1_000_000, 1).unwrap().with_seed(1);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[10_000, 990_000, 0]))
            .unwrap();
        runtime.step(&mut state).unwrap();
        assert_eq!(state.counts.iter().sum::<u64>(), 1_000_000);
        assert_eq!(state.counts_alive.iter().sum::<u64>(), 1_000_000);
        // Every receptive left exactly once, along the one edge out.
        let receptive_out: u64 = (state.transitions.iter())
            .filter(|(from, _, _)| from.index() == 0)
            .map(|&(_, _, moved)| moved)
            .sum();
        assert_eq!(receptive_out, 10_000);
        assert_eq!(state.counts[0], 0);
    }

    /// The count trajectory of every column of one block over `seeds`, as
    /// `[column][period][state]`.
    fn block_trajectories(
        runtime: &BatchedRuntime,
        scenario: &Scenario,
        initial: &InitialStates,
        seeds: &[u64],
        alive_only: bool,
    ) -> Vec<Vec<Vec<f64>>> {
        let mut block = runtime.init_block(scenario, initial, seeds).unwrap();
        let w = block.width();
        let mut columns = vec![Vec::new(); w];
        for period in 0..=scenario.periods() {
            if period > 0 {
                runtime.step_block(&mut block).unwrap();
            }
            for (r, column) in columns.iter_mut().enumerate() {
                let counts = block.counts(alive_only).iter().skip(r).step_by(w);
                column.push(counts.map(|&c| c as f64).collect());
            }
        }
        columns
    }

    /// What a single run records at `seed`.
    fn scalar_trajectory(
        runtime: &BatchedRuntime,
        scenario: &Scenario,
        initial: &InitialStates,
        seed: u64,
        alive_only: bool,
    ) -> Vec<Vec<f64>> {
        let recorder = if alive_only {
            CountsRecorder::alive_only()
        } else {
            CountsRecorder::new()
        };
        Simulation::of(runtime.protocol().clone())
            .scenario(scenario.clone().with_seed(seed))
            .initial(initial.clone())
            .observe(recorder)
            .run_on(runtime)
            .unwrap()
            .counts
            .states()
            .to_vec()
    }

    /// A massive failure at period 6, background crash/recovery and an
    /// oblivious adversary that crashes at 9 and recovers at 14.
    fn hostile(scenario: Scenario) -> Scenario {
        let adversary = ObliviousSchedule::new()
            .crash_uniform_at(9, 0.3)
            .unwrap()
            .inject_at(14, netsim::Injection::RecoverUniform { fraction: 0.5 })
            .unwrap();
        scenario
            .with_massive_failure(6, 0.4)
            .unwrap()
            .with_failure_model(FailureModel::new(0.01, 0.05).unwrap())
            .with_adversary(adversary)
    }

    #[test]
    fn every_column_of_a_block_is_the_run_of_its_seed() {
        let n = 200_000u64;
        let plurality8: Vec<u64> = (0..9)
            .map(|i| if i < 8 { 24_000 + i } else { 7_972 })
            .collect();
        let cases: [(Protocol, Vec<u64>); 4] = [
            (epidemic_protocol(), vec![n - 50, 50]),
            (figure1_protocol(true), vec![20_000, 150_000, 30_000]),
            (plurality_protocol(2), vec![110_000, 90_000, 0]),
            (plurality_protocol(8), plurality8),
        ];
        // Unordered, with a repeat: a column depends on its seed only.
        let seeds = [5, 0, 977, 5, 31, 1 << 40, 2, 64, 63, 12];
        for (protocol, initial) in cases {
            let initial = InitialStates::counts(&initial);
            let name = protocol.name().to_string();
            let rejoin = StateId::new(0);
            let runtime = BatchedRuntime::build(protocol, &RunConfig::rejoining_to(rejoin));
            let calm = Scenario::new(n as usize, 25).unwrap();
            for scenario in [calm.clone(), hostile(calm)] {
                for alive_only in [false, true] {
                    let columns =
                        block_trajectories(&runtime, &scenario, &initial, &seeds, alive_only);
                    for (&seed, column) in seeds.iter().zip(&columns) {
                        assert_eq!(
                            column,
                            &scalar_trajectory(&runtime, &scenario, &initial, seed, alive_only),
                            "{name}, seed {seed}, alive_only {alive_only}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_column_does_not_depend_on_the_width_of_its_block() {
        let runtime = BatchedRuntime::new(figure1_protocol(true));
        let scenario = hostile(Scenario::new(100_000, 20).unwrap());
        let initial = InitialStates::counts(&[10_000, 80_000, 10_000]);
        let seeds: Vec<u64> = (100..110).collect();
        let whole = block_trajectories(&runtime, &scenario, &initial, &seeds, false);
        for width in [1, 3, 64] {
            let cut: Vec<_> = seeds
                .chunks(width)
                .flat_map(|part| block_trajectories(&runtime, &scenario, &initial, part, false))
                .collect();
            assert_eq!(cut, whole, "width {width}");
        }
    }

    #[test]
    fn a_shared_denominator_and_a_slice_of_equal_ones_are_one_kernel() {
        // Seeds step over the scalar instantiation of the kernel, shards
        // over the per-column one. Given W copies of the same value, the two
        // must agree on every matrix and leave every PRNG at one position.
        let n = 100_000;
        let runtime = BatchedRuntime::build(
            figure1_protocol(true),
            &RunConfig::rejoining_to(StateId::new(0)),
        );
        let scenario = hostile(Scenario::new(n, 20).unwrap());
        let initial = InitialStates::counts(&[10_000, 80_000, 10_000]);
        let seeds: Vec<u64> = (40..47).collect();
        let mut shared = runtime.init_block(&scenario, &initial, &seeds).unwrap();
        let mut sliced = shared.clone();
        let n_f = vec![n as f64; seeds.len()];
        let view = |b: &ColumnBlock| {
            let matrices = [&b.counts, &b.counts_alive, &b.counts_crashed, &b.tallies];
            (matrices.map(Vec::clone), b.messages.clone())
        };
        for period in 0..20 {
            runtime.step_block(&mut shared).unwrap();
            runtime.step_columns(&mut sliced, &n_f[..]).unwrap();
            assert_eq!(view(&shared), view(&sliced), "period {period}");
        }
        for (a, b) in shared.rngs.iter_mut().zip(&mut sliced.rngs) {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn the_schedule_is_read_only_on_the_period_it_names() {
        // A massive failure at period 2 draws nothing before it: the
        // boundaries of periods 0 and 1 leave every column's stream where it
        // started (the inert protocol's kernel draws nothing either).
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(1_000, 5)
            .unwrap()
            .with_massive_failure(2, 0.5)
            .unwrap();
        let runtime = BatchedRuntime::new(protocol);
        let initial = InitialStates::counts(&[900, 100]);
        let seeds = [1, 2];
        let mut block = runtime.init_block(&scenario, &initial, &seeds).unwrap();
        for _ in 0..2 {
            runtime.step_block(&mut block).unwrap();
        }
        for (rng, &seed) in block.rngs.iter().zip(&seeds) {
            assert_eq!(rng.clone().next_u64(), Rng::seed_from(seed).next_u64());
        }
        assert_eq!(block.alive_n, [1_000, 1_000]);
        runtime.step_block(&mut block).unwrap();
        assert_eq!(block.alive_n, [500, 500]);
    }

    /// One million runs fold into per-block accumulators of a few hundred KB
    /// plus the `final_counts` rows; stored trajectories would need > 1 GB.
    #[test]
    #[ignore = "10⁶ seeds: run with --release (CI does)"]
    fn million_column_ensemble_streams_in_bounded_memory() {
        let n = 1_000_000u64;
        let result = Ensemble::of(figure1_protocol(true))
            .scenario(Scenario::new(n as usize, 20).unwrap())
            .initial(InitialStates::counts(&[100_000, 800_000, 100_000]))
            .seed_range(0..1_000_000)
            .run_auto()
            .unwrap();
        assert_eq!(result.runs(), 1_000_000);
        assert!(result.failures.is_empty());
        assert_eq!(result.mean.len(), 21);
        for (period, mean) in result.mean.iter() {
            let total: f64 = mean.iter().sum();
            assert!((total - n as f64).abs() < 1e-6, "period {period}: {total}");
        }
    }

    #[test]
    fn alive_only_recording_reports_survivors() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(10_000, 6)
            .unwrap()
            .with_massive_failure(3, 0.5)
            .unwrap()
            .with_seed(5);
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[10_000, 0]))
            .observe(CountsRecorder::alive_only())
            .run::<BatchedRuntime>()
            .unwrap();
        assert_eq!(result.final_counts().unwrap().iter().sum::<f64>(), 5_000.0);
    }
}

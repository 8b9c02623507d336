//! Parallel multi-seed / multi-scenario ensembles.
//!
//! The paper (and the mean-field literature it builds on) compares protocol
//! dynamics against the ODE limit through *ensembles*: many independent runs
//! of the same protocol under varied seeds or environments, summarized by
//! per-period mean/standard-deviation envelopes. [`Ensemble`] makes that a
//! one-liner — it cuts the seed list into jobs in seed order, fans the jobs
//! across `std::thread` workers, and merges each job's Welford accumulators
//! into the [`EnsembleResult`] *in job order*, so the result does not depend
//! on the number of threads or on which worker finished first.
//!
//! What a job is depends on the runtime:
//!
//! * **Count-batched ensembles** ([`BatchedRuntime`] — `run::<BatchedRuntime>`
//!   and [`run_auto`](Ensemble::run_auto) on the batched tier)
//!   advance a *block* of 64 consecutive seeds at a time as one
//!   `states × 64` count matrix through the column kernel of
//!   [`BatchedRuntime`]: the protocol, its compiled plan and the
//!   scenario are shared by the block, every column owns the PRNG its seed
//!   would get on its own, and each period's counts go straight into the
//!   block's accumulators. No trajectory is ever stored: memory is
//!   O(blocks in flight × periods × states) plus the O(seeds)
//!   [`final_counts`](EnsembleResult::final_counts) rows, however many seeds
//!   there are. Column `r` of a block is bit-for-bit the run
//!   `Simulation::run::<BatchedRuntime>` produces at that seed, so
//!   `final_counts`, the order of [`seeds`](EnsembleResult::seeds) and
//!   [`failures`](EnsembleResult::failures) are exact. An ensemble that
//!   fits one block folds its seeds one by one; across blocks the
//!   accumulators are combined with the pairwise update of Chan et al., so
//!   `mean`/`std_dev` of a larger ensemble may differ from a
//!   one-seed-at-a-time fold in the last ulp.
//! * **Every other runtime** runs one seed per job through the ordinary
//!   step loop with a [`CountsRecorder`]. A worker holds the full
//!   trajectory of the run it is executing (periods × states), folds it
//!   when the run ends, and drops it; finished single-run folds wait only
//!   until the seeds before them have been merged. Merging a single run is
//!   exactly a Welford push, so these envelopes equal a sequential fold over
//!   the seed list bit for bit.
//!
//! # A Figure-11-style convergence sweep in a few lines
//!
//! ```
//! use dpde_core::runtime::{BatchedRuntime, Ensemble, InitialStates};
//! use dpde_core::ProtocolCompiler;
//! use netsim::Scenario;
//! use odekit::parse::parse_system;
//!
//! let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
//! let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
//! let ensemble = Ensemble::of(protocol)
//!     .scenario(Scenario::new(10_000, 40)?)
//!     .initial(InitialStates::counts(&[9_990, 10]))
//!     .seed_range(0..16)
//!     .run::<BatchedRuntime>()?;
//! let infected = ensemble.mean_series("y")?;
//! assert!(infected.last().unwrap() > &9_900.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use super::observer::CountsRecorder;
use super::simulation::{dispatch, drive, run_spec_setters, OnTier, RunSpec};
use super::{
    BatchedRuntime, ErrorBudget, FidelityTier, InitialStates, Observer, RunConfig, Runtime,
};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::{OnlineStats, Scenario, Topology};
use odekit::integrate::Trajectory;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seeds one [`ColumnBlock`](super::batched::ColumnBlock) advances side by
/// side. Widths from 16 to 256 measured the same on a 3-state protocol;
/// below 8 the per-block set-up shows.
const BLOCK_WIDTH: usize = 64;

/// One ensemble run that panicked instead of completing.
///
/// A panicking seed does not bring the ensemble down: the worker catches the
/// unwind, records it here, and moves on to the next job. The aggregated
/// envelopes cover the seeds that completed;
/// [`EnsembleResult::failures`] lists the ones that did not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedFailure {
    /// The seed whose run panicked.
    pub seed: u64,
    /// The panic payload, stringified.
    pub message: String,
}

/// Stringifies a caught panic payload. Panics carry `&str` or `String` in
/// practice, which pass through verbatim; anything else at least names its
/// concrete type id, so an exotic `panic_any` in a failure list is
/// diagnosable rather than fully opaque.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        format!("non-string panic payload ({:?})", (*payload).type_id())
    }
}

/// Driver for ensembles: the same protocol and initial distribution executed
/// under many seeds (and optionally many scenarios), in parallel.
#[derive(Debug, Clone)]
pub struct Ensemble {
    spec: RunSpec,
    seeds: Vec<u64>,
    threads: Option<usize>,
    alive_only: bool,
}

impl Ensemble {
    /// Starts an ensemble of the given protocol. By default it runs seeds
    /// `0..8` on all available cores.
    pub fn of(protocol: Protocol) -> Self {
        Ensemble {
            spec: RunSpec::new("Ensemble", protocol),
            seeds: (0..8).collect(),
            threads: None,
            alive_only: false,
        }
    }

    run_spec_setters!();

    /// Sets an explicit seed list (one run per seed).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Convenience: one run per seed in `range`.
    #[must_use]
    pub fn seed_range(self, range: std::ops::Range<u64>) -> Self {
        self.seeds(range)
    }

    /// Caps the number of worker threads (default: all available cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Aggregates alive-only counts (the paper's churn and massive-failure
    /// figures plot alive populations).
    #[must_use]
    pub fn count_alive_only(mut self) -> Self {
        self.alive_only = true;
        self
    }

    /// Runs the ensemble over the configured seeds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the scenario, initial
    /// distribution or seed list is missing/empty, and propagates the first
    /// error any run reports.
    pub fn run<R: Runtime>(&self) -> Result<EnsembleResult> {
        let runtime = R::build(self.spec.protocol.clone(), &self.spec.config);
        self.run_blocks(&runtime, BLOCK_WIDTH)
    }

    /// The fidelity tier [`run_auto`](Self::run_auto) would execute this
    /// ensemble on (see [`FidelityTier`] for the policy; ensembles only record
    /// counts, so no observer ever needs host identity here).
    pub fn selected_tier(&self) -> FidelityTier {
        self.spec.tier(false)
    }

    /// Runs the ensemble on the fastest fidelity that can serve it
    /// ([`selected_tier`](Self::selected_tier)), chosen by the
    /// [`FidelityTier`] policy.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_auto(&self) -> Result<EnsembleResult> {
        dispatch(self, self.selected_tier())
    }

    /// [`run`](Self::run) on an already built runtime (shared by every
    /// worker: stepping takes `&self`), with count-batched seeds cut into
    /// blocks of `block_width`.
    fn run_blocks<R: Runtime>(&self, runtime: &R, block_width: usize) -> Result<EnsembleResult> {
        let scenario = self.spec.scenario.as_ref();
        let scenario = scenario.ok_or_else(|| self.spec.missing("scenario"))?;
        if self.seeds.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "seeds",
                reason: "ensemble needs at least one seed".into(),
            });
        }
        let initial = self.spec.initial()?;

        // The count-batched kernel advances whole blocks of seeds; every
        // other runtime takes them one at a time. Jobs are in seed order,
        // pulled off a shared counter by the workers and merged in job order
        // whatever order they finish in.
        let batched = runtime.block_kernel();
        let per_job = if batched.is_some() { block_width } else { 1 };
        let jobs: Vec<&[u64]> = self.seeds.chunks(per_job).collect();
        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(jobs.len())
            .max(1);

        // Runs are executed under `catch_unwind` and nothing that can panic
        // runs under these locks, so none of them is ever poisoned.
        const UNPOISONED: &str = "no worker panics while holding an ensemble lock";
        let next_job = AtomicUsize::new(0);
        let merged = Mutex::new(OrderedMerge {
            next: 0,
            parked: BTreeMap::new(),
            fold: EnvelopeFold::default(),
        });
        let first_error: Mutex<Option<CoreError>> = Mutex::new(None);
        let panics: Mutex<Vec<SeedFailure>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= jobs.len() || first_error.lock().expect(UNPOISONED).is_some() {
                        return;
                    }
                    let seeds = jobs[job];
                    let scenario = self
                        .spec
                        .with_topology(scenario.clone().with_seed(seeds[0]));
                    let run = |seeds: &[u64]| match batched {
                        Some(batched) => self.fold_block(batched, &scenario, initial, seeds),
                        None => self.fold_run(runtime, &scenario, initial),
                    };
                    let mut failed = |seed, message| {
                        panics
                            .lock()
                            .expect(UNPOISONED)
                            .push(SeedFailure { seed, message });
                    };
                    match fold_surviving(&run, seeds, &mut failed) {
                        Ok(fold) => merged.lock().expect(UNPOISONED).deposit(job, fold),
                        Err(err) => {
                            first_error.lock().expect(UNPOISONED).get_or_insert(err);
                            return;
                        }
                    }
                });
            }
        });

        if let Some(err) = first_error.into_inner().expect(UNPOISONED) {
            return Err(err);
        }
        // Workers race on the shared failure list; sort it so results are
        // deterministic regardless of scheduling.
        let mut failures = panics.into_inner().expect(UNPOISONED);
        failures.sort_by_key(|a| a.seed);

        let fold = merged.into_inner().expect(UNPOISONED).fold;
        if fold.seeds.is_empty() {
            return Err(CoreError::EnsemblePanicked {
                first_message: failures
                    .first()
                    .map(|f| f.message.clone())
                    .unwrap_or_default(),
            });
        }
        Ok(fold.finish(&self.spec.protocol, failures, threads))
    }

    /// The scenario's own seed through the ordinary step loop, folded when
    /// the run ends.
    fn fold_run<R: Runtime>(
        &self,
        runtime: &R,
        scenario: &Scenario,
        initial: &InitialStates,
    ) -> Result<EnvelopeFold> {
        let mut observers: Vec<Box<dyn Observer>> = vec![Box::new(if self.alive_only {
            CountsRecorder::alive_only()
        } else {
            CountsRecorder::new()
        })];
        let result = drive(runtime, scenario, initial, &mut observers, None)?;
        let mut fold = EnvelopeFold::default();
        fold.push_trajectory(scenario.seed(), &result.counts);
        Ok(fold)
    }

    /// One block of seeds through the column kernel, every period folded as
    /// it is produced.
    fn fold_block(
        &self,
        runtime: &BatchedRuntime,
        scenario: &Scenario,
        initial: &InitialStates,
        seeds: &[u64],
    ) -> Result<EnvelopeFold> {
        let mut block = runtime.init_block(scenario, initial, seeds)?;
        let mut fold = EnvelopeFold::default();
        fold.push_period(block.counts(self.alive_only), block.width());
        for _ in 0..scenario.periods() {
            runtime.step_block(&mut block)?;
            fold.push_period(block.counts(self.alive_only), block.width());
        }
        fold.push_finals(seeds, block.counts(self.alive_only));
        Ok(fold)
    }
}

impl OnTier for &Ensemble {
    type Output = Result<EnsembleResult>;

    fn spec(&self) -> &RunSpec {
        &self.spec
    }

    fn run<R: Runtime>(self, runtime: R) -> Result<EnsembleResult> {
        self.run_blocks(&runtime, BLOCK_WIDTH)
    }
}

/// Runs one job. A panic must not take its worker (let alone the whole
/// ensemble) down: the unwind is caught and the job's seeds are run again
/// one at a time, so whatever can complete is folded — in seed order, as if
/// the job had never held the others — and `failed` hears the seed and
/// message of each run that cannot.
fn fold_surviving(
    run: &impl Fn(&[u64]) -> Result<EnvelopeFold>,
    seeds: &[u64],
    failed: &mut impl FnMut(u64, String),
) -> Result<EnvelopeFold> {
    match catch_unwind(AssertUnwindSafe(|| run(seeds))) {
        Ok(fold) => fold,
        Err(payload) => {
            let mut fold = EnvelopeFold::default();
            match seeds {
                [seed] => failed(*seed, panic_message(payload)),
                _ => {
                    for seed in seeds {
                        fold.merge(fold_surviving(run, std::slice::from_ref(seed), failed)?);
                    }
                }
            }
            Ok(fold)
        }
    }
}

/// The fold of an ensemble, fed job by job in job order: a job that
/// finishes early is parked until every job before it has been merged.
struct OrderedMerge {
    /// The next job to merge.
    next: usize,
    /// Finished jobs still waiting for an earlier one: job → fold.
    parked: BTreeMap<usize, EnvelopeFold>,
    fold: EnvelopeFold,
}

impl OrderedMerge {
    /// Takes the fold of a finished job and merges every job that is now
    /// next in line.
    fn deposit(&mut self, job: usize, fold: EnvelopeFold) {
        self.parked.insert(job, fold);
        while let Some(fold) = self.parked.remove(&self.next) {
            self.fold.merge(fold);
            self.next += 1;
        }
    }
}

/// The envelope of a set of runs while it is being built: one Welford
/// accumulator per (period, state) plus the final-count row of every run.
/// The block path feeds it a period of columns at a time, the per-seed path
/// a finished trajectory at a time, and [`merge`](Self::merge) joins the
/// folds of consecutive jobs.
#[derive(Debug, Default)]
struct EnvelopeFold {
    /// Row-major `(periods + 1) × states`.
    accumulators: Vec<OnlineStats>,
    seeds: Vec<u64>,
    final_counts: Vec<Vec<f64>>,
}

impl EnvelopeFold {
    /// Folds one finished run.
    fn push_trajectory(&mut self, seed: u64, trajectory: &Trajectory) {
        self.accumulators
            .resize(trajectory.len() * trajectory.dim(), OnlineStats::new());
        for (acc, count) in self
            .accumulators
            .iter_mut()
            .zip(trajectory.states().iter().flatten())
        {
            acc.push(*count);
        }
        self.seeds.push(seed);
        self.final_counts.push(trajectory.last_state().to_vec());
    }

    /// Folds the next period of a block: `counts` is the row-major
    /// `states × width` matrix of the counts at that period.
    fn push_period(&mut self, counts: &[u64], width: usize) {
        let folded = self.accumulators.len();
        self.accumulators
            .resize(folded + counts.len() / width, OnlineStats::new());
        // Column by column, so each accumulator sees its seeds in order and
        // the states' independent update chains overlap.
        let accumulators = &mut self.accumulators[folded..];
        for r in 0..width {
            for (acc, row) in accumulators.iter_mut().zip(counts.chunks_exact(width)) {
                acc.push(row[r] as f64);
            }
        }
    }

    /// Records the runs of a finished block: `counts` is its final
    /// `states × seeds.len()` matrix.
    fn push_finals(&mut self, seeds: &[u64], counts: &[u64]) {
        let width = seeds.len();
        self.seeds.extend_from_slice(seeds);
        self.final_counts.extend((0..width).map(|r| {
            counts
                .iter()
                .skip(r)
                .step_by(width)
                .map(|&c| c as f64)
                .collect()
        }));
    }

    /// Appends the runs of the job that follows this fold's in seed order.
    fn merge(&mut self, other: EnvelopeFold) {
        if self.accumulators.is_empty() {
            self.accumulators = other.accumulators;
        } else {
            for (acc, theirs) in self.accumulators.iter_mut().zip(&other.accumulators) {
                acc.merge(theirs);
            }
        }
        self.seeds.extend(other.seeds);
        self.final_counts.extend(other.final_counts);
    }

    /// The finished envelopes. Needs at least one run.
    fn finish(
        self,
        protocol: &Protocol,
        failures: Vec<SeedFailure>,
        threads_used: usize,
    ) -> EnsembleResult {
        let dim = self.final_counts[0].len();
        let rows = self.accumulators.len() / dim;
        let mut mean = Trajectory::with_capacity(rows);
        let mut std_dev = Trajectory::with_capacity(rows);
        for (period, accs) in self.accumulators.chunks_exact(dim).enumerate() {
            mean.push(period as f64, accs.iter().map(OnlineStats::mean).collect());
            std_dev.push(
                period as f64,
                accs.iter().map(OnlineStats::std_dev).collect(),
            );
        }
        EnsembleResult {
            state_names: protocol.state_names().to_vec(),
            time_scale: protocol.time_scale(),
            seeds: self.seeds,
            mean,
            std_dev,
            final_counts: self.final_counts,
            threads_used,
            failures,
        }
    }
}

/// Per-period mean/std envelopes over an ensemble of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleResult {
    state_names: Vec<String>,
    time_scale: f64,
    /// The seeds that completed, in order; `final_counts[i]` belongs to
    /// `seeds[i]`. Panicked seeds are absent here and listed in
    /// [`failures`](Self::failures).
    pub seeds: Vec<u64>,
    /// Per-period mean counts across the ensemble (time is the period index).
    pub mean: Trajectory,
    /// Per-period sample standard deviation across the ensemble.
    pub std_dev: Trajectory,
    /// Final per-state counts of every run.
    pub final_counts: Vec<Vec<f64>>,
    /// Number of worker threads the ensemble actually spawned.
    pub threads_used: usize,
    /// Seeds whose run panicked (caught per worker; the envelopes above
    /// cover only the completed seeds). Empty for a fully healthy ensemble.
    pub failures: Vec<SeedFailure>,
}

impl EnsembleResult {
    /// Number of runs aggregated.
    pub fn runs(&self) -> usize {
        self.final_counts.len()
    }

    fn state_index(&self, name: &str) -> Result<usize> {
        self.state_names
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| CoreError::UnknownState(name.to_string()))
    }

    /// The ensemble-mean count series of one state (by name).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownState`] if the name is not a protocol
    /// state.
    pub fn mean_series(&self, name: &str) -> Result<Vec<f64>> {
        Ok(self.mean.component(self.state_index(name)?))
    }

    /// The ensemble standard-deviation series of one state (by name).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownState`] if the name is not a protocol
    /// state.
    pub fn std_series(&self, name: &str) -> Result<Vec<f64>> {
        Ok(self.std_dev.component(self.state_index(name)?))
    }

    /// `(mean, std)` per period for one state — the envelope the paper-style
    /// convergence plots draw.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownState`] if the name is not a protocol
    /// state.
    pub fn envelope(&self, name: &str) -> Result<Vec<(f64, f64)>> {
        let idx = self.state_index(name)?;
        Ok(self
            .mean
            .component(idx)
            .into_iter()
            .zip(self.std_dev.component(idx))
            .collect())
    }

    /// The mean counts re-timed to ODE time and normalized by `n` — directly
    /// comparable to an integration of the source equations over fractions.
    pub fn mean_as_ode_trajectory(&self, n: f64) -> Trajectory {
        let mut out = Trajectory::with_capacity(self.mean.len());
        for (t, s) in self.mean.iter() {
            out.push(t * self.time_scale, s.iter().map(|c| c / n).collect());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::AgentRuntime;
    use super::*;
    use crate::fixtures::epidemic_protocol;

    #[test]
    fn ensemble_aggregates_mean_and_std_over_seeds() {
        let ensemble = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(2_000, 25).unwrap())
            .initial(InitialStates::counts(&[1_999, 1]))
            .seed_range(0..8)
            .threads(4)
            .run::<AgentRuntime>()
            .unwrap();
        assert_eq!(ensemble.runs(), 8);
        assert_eq!(ensemble.seeds, (0..8).collect::<Vec<_>>());
        assert!(ensemble.threads_used > 1, "8 seeds should use > 1 worker");
        assert_eq!(ensemble.mean.len(), 26);
        // Every run saturates, so the mean does too and the final std is
        // small relative to N.
        let infected = ensemble.mean_series("y").unwrap();
        assert!(infected.last().unwrap() > &1_950.0);
        let std = ensemble.std_series("x").unwrap();
        assert!(std[0] == 0.0, "identical initial configurations");
        assert!(
            std.iter().cloned().fold(0.0, f64::max) > 0.0,
            "seeds differ"
        );
        // Envelope pairs match the two series.
        let envelope = ensemble.envelope("y").unwrap();
        assert_eq!(envelope.len(), infected.len());
        assert_eq!(envelope.last().unwrap().0, *infected.last().unwrap());
        assert!(ensemble.mean_series("nope").is_err());
        // Mean counts stay conserved (every run conserves them).
        for (_, s) in ensemble.mean.iter() {
            assert!((s.iter().sum::<f64>() - 2_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ensemble_validation_errors() {
        let base = Ensemble::of(epidemic_protocol());
        assert!(matches!(
            base.clone().run::<AgentRuntime>(),
            Err(CoreError::InvalidConfig {
                name: "scenario",
                ..
            })
        ));
        let with_scenario = base.scenario(Scenario::new(100, 5).unwrap());
        assert!(matches!(
            with_scenario.clone().run::<AgentRuntime>(),
            Err(CoreError::InvalidConfig {
                name: "initial",
                ..
            })
        ));
        let with_initial = with_scenario.initial(InitialStates::counts(&[99, 1]));
        assert!(matches!(
            with_initial.clone().seeds([]).run::<AgentRuntime>(),
            Err(CoreError::InvalidConfig { name: "seeds", .. })
        ));
        // A failing run propagates its error (mismatched initial distribution).
        let err = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(100, 5).unwrap())
            .initial(InitialStates::counts(&[50, 49]))
            .seed_range(0..4)
            .run::<AgentRuntime>()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    /// An [`AgentRuntime`] wrapper that panics mid-run for odd seeds —
    /// exercises the per-seed `catch_unwind` supervision.
    struct PanickyRuntime(AgentRuntime);

    struct PanickyState {
        poisoned: bool,
        inner: super::super::AgentState,
    }

    impl Runtime for PanickyRuntime {
        type State = PanickyState;

        fn build(protocol: Protocol, config: &RunConfig) -> Self {
            PanickyRuntime(AgentRuntime::build(protocol, config))
        }

        fn protocol(&self) -> &Protocol {
            self.0.protocol()
        }

        fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<PanickyState> {
            Ok(PanickyState {
                poisoned: scenario.seed() % 2 == 1,
                inner: self.0.init(scenario, initial)?,
            })
        }

        fn step<'s>(&self, state: &'s mut PanickyState) -> Result<super::super::PeriodEvents<'s>> {
            assert!(!state.poisoned, "injected test panic");
            self.0.step(&mut state.inner)
        }

        fn snapshot<'s>(&self, state: &'s PanickyState) -> super::super::PeriodEvents<'s> {
            self.0.snapshot(&state.inner)
        }
    }

    #[test]
    fn panicked_seeds_are_reported_not_fatal() {
        let ensemble = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(500, 10).unwrap())
            .initial(InitialStates::counts(&[499, 1]))
            .seeds([0, 1, 2, 3])
            .threads(2)
            .run::<PanickyRuntime>()
            .unwrap();
        // The even seeds completed and are the only ones aggregated …
        assert_eq!(ensemble.seeds, vec![0, 2]);
        assert_eq!(ensemble.runs(), 2);
        assert_eq!(ensemble.mean.len(), 11);
        // … and the odd seeds are reported, in deterministic order.
        assert_eq!(ensemble.failures.len(), 2);
        assert_eq!(
            ensemble.failures.iter().map(|f| f.seed).collect::<Vec<_>>(),
            vec![1, 3]
        );
        for failure in &ensemble.failures {
            assert!(failure.message.contains("injected test panic"));
        }
    }

    /// [`BatchedRuntime`] behind another type: the same runs, but taken one
    /// seed at a time through the step loop — the reference the block path
    /// is compared against.
    struct SeedBySeed(BatchedRuntime);

    impl Runtime for SeedBySeed {
        type State = super::super::BatchedState;

        fn build(protocol: Protocol, config: &RunConfig) -> Self {
            SeedBySeed(BatchedRuntime::build(protocol, config))
        }

        fn protocol(&self) -> &Protocol {
            self.0.protocol()
        }

        fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<Self::State> {
            self.0.init(scenario, initial)
        }

        fn step<'s>(&self, state: &'s mut Self::State) -> Result<super::super::PeriodEvents<'s>> {
            self.0.step(state)
        }

        fn snapshot<'s>(&self, state: &'s Self::State) -> super::super::PeriodEvents<'s> {
            self.0.snapshot(state)
        }
    }

    /// 200 seeds of an epidemic that loses 40 % of its processes at period 8
    /// under background crash/recovery — more than three blocks, the last
    /// one partial.
    fn stormy_ensemble() -> Ensemble {
        let scenario = Scenario::new(50_000, 20)
            .unwrap()
            .with_massive_failure(8, 0.4)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.01, 0.05).unwrap());
        Ensemble::of(epidemic_protocol())
            .scenario(scenario)
            .initial(InitialStates::counts(&[49_000, 1_000]))
            .seed_range(1_000..1_200)
    }

    /// Same runs and the same envelopes up to the rounding of a different
    /// fold order.
    fn assert_same_envelopes(a: &EnsembleResult, b: &EnsembleResult) {
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.final_counts, b.final_counts);
        assert_eq!(a.failures, b.failures);
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * y.abs().max(1.0);
        for (ours, theirs) in [(&a.mean, &b.mean), (&a.std_dev, &b.std_dev)] {
            assert_eq!(ours.times(), theirs.times());
            for (x, y) in ours
                .states()
                .iter()
                .flatten()
                .zip(theirs.states().iter().flatten())
            {
                assert!(close(*x, *y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn block_path_is_independent_of_the_thread_count() {
        let one = stormy_ensemble()
            .threads(1)
            .run::<BatchedRuntime>()
            .unwrap();
        let four = stormy_ensemble()
            .threads(4)
            .run::<BatchedRuntime>()
            .unwrap();
        assert_eq!(one.threads_used, 1);
        assert_eq!(four.threads_used, 4, "200 seeds are four blocks");
        assert_eq!(
            EnsembleResult {
                threads_used: 1,
                ..four
            },
            one
        );
        assert_eq!(one.runs(), 200);
        // run_auto picks the batched tier and is the same call.
        assert_eq!(stormy_ensemble().selected_tier(), FidelityTier::Batched);
        assert_eq!(stormy_ensemble().threads(1).run_auto().unwrap(), one);
    }

    #[test]
    fn block_path_matches_the_seed_by_seed_fold() {
        // The Welford merge over blocks against sequential pushes.
        let blocks = stormy_ensemble().run::<BatchedRuntime>().unwrap();
        let sequential = stormy_ensemble().run::<SeedBySeed>().unwrap();
        assert_same_envelopes(&blocks, &sequential);
        // Alive-only counts and other scenarios take the block path too.
        let alive = stormy_ensemble().count_alive_only();
        assert_same_envelopes(
            &alive.run::<BatchedRuntime>().unwrap(),
            &alive.run::<SeedBySeed>().unwrap(),
        );
        assert!(
            alive
                .run_auto()
                .unwrap()
                .mean
                .last_state()
                .iter()
                .sum::<f64>()
                < 40_000.0
        );
        let scenarios = [
            Scenario::new(30_000, 12).unwrap(),
            Scenario::new(60_000, 15)
                .unwrap()
                .with_massive_failure(3, 0.5)
                .unwrap(),
        ];
        for scenario in scenarios {
            let ensemble = Ensemble::of(epidemic_protocol())
                .scenario(scenario)
                .initial(InitialStates::fractions(&[0.98, 0.02]))
                .seed_range(0..70)
                .threads(3);
            let blocks = ensemble.run::<BatchedRuntime>().unwrap();
            assert_same_envelopes(&blocks, &ensemble.run::<SeedBySeed>().unwrap());
            assert_eq!(
                blocks.mean.len(),
                ensemble.spec.scenario.unwrap().periods() as usize + 1
            );
        }
    }

    #[test]
    fn block_width_changes_nothing_but_the_last_ulp() {
        let ensemble = stormy_ensemble().seed_range(0..70).threads(2);
        let runtime = BatchedRuntime::new(epidemic_protocol());
        let at = |width| ensemble.run_blocks(&runtime, width).unwrap();
        let whole = at(70);
        // One block folds its seeds one by one: exactly the per-seed fold.
        assert_eq!(
            EnsembleResult {
                threads_used: 2,
                ..whole.clone()
            },
            ensemble.run::<SeedBySeed>().unwrap()
        );
        // So do blocks of one seed each.
        assert_eq!(
            EnsembleResult {
                threads_used: 1,
                ..at(1)
            },
            whole
        );
        for width in [3, 64] {
            assert_same_envelopes(&at(width), &whole);
        }
    }

    #[test]
    fn single_seed_ensemble_is_the_scalar_run() {
        let ensemble = stormy_ensemble().seeds([77]);
        let run = super::super::Simulation::of(epidemic_protocol())
            .scenario(ensemble.spec.scenario.clone().unwrap().with_seed(77))
            .initial(InitialStates::counts(&[49_000, 1_000]))
            .observe(CountsRecorder::new())
            .run::<BatchedRuntime>()
            .unwrap();
        let result = ensemble.run::<BatchedRuntime>().unwrap();
        assert_eq!(result.mean, run.counts);
        assert_eq!(result.final_counts, [run.counts.last_state().to_vec()]);
        assert!(result.std_dev.states().iter().flatten().all(|&s| s == 0.0));
    }

    #[test]
    fn a_panicking_column_costs_only_its_own_seed() {
        let ensemble = stormy_ensemble().seed_range(0..128).threads(2);
        let poisoned = BatchedRuntime::new(epidemic_protocol()).poisoned(17);
        let result = ensemble.run_blocks(&poisoned, BLOCK_WIDTH).unwrap();
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].seed, 17);
        assert!(result.failures[0].message.contains("injected test panic"));
        assert_eq!(result.runs(), 127);
        // The other 63 columns of the block were run again one by one and
        // folded as if seed 17 had never been asked for.
        let healthy = ensemble
            .clone()
            .seeds((0..128).filter(|&seed| seed != 17))
            .run::<BatchedRuntime>()
            .unwrap();
        assert_eq!(result.seeds, healthy.seeds);
        assert_eq!(result.final_counts, healthy.final_counts);
        assert_same_envelopes(
            &EnsembleResult {
                failures: Vec::new(),
                ..result
            },
            &healthy,
        );
    }

    #[test]
    fn panic_messages_survive_for_every_payload_kind() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        // `panic_any` with an exotic payload still yields a diagnosable
        // message: the concrete type id is named instead of a blank shrug.
        let exotic = panic_message(Box::new(42u64));
        assert!(exotic.contains("non-string panic payload"));
        assert!(exotic.contains("TypeId"), "got: {exotic}");
    }

    #[test]
    fn an_ensemble_where_every_seed_panics_is_an_error() {
        let err = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(500, 10).unwrap())
            .initial(InitialStates::counts(&[499, 1]))
            .seeds([1, 3, 5])
            .run::<PanickyRuntime>()
            .unwrap_err();
        match err {
            CoreError::EnsemblePanicked { first_message } => {
                assert!(first_message.contains("injected test panic"));
            }
            other => panic!("expected EnsemblePanicked, got {other:?}"),
        }
    }

    #[test]
    fn ensemble_tier_selection_policy() {
        let protocol = epidemic_protocol();
        // Regression: no scenario attached → trivially exchangeable →
        // batched tier (used to fall back to the agent runtime).
        let bare = Ensemble::of(protocol.clone()).initial(InitialStates::counts(&[500, 500]));
        assert_eq!(bare.selected_tier(), FidelityTier::Batched);
        // Large balanced populations → batched; a small one → hybrid.
        let large = bare.clone().scenario(Scenario::new(1_000, 10).unwrap());
        assert_eq!(large.selected_tier(), FidelityTier::Batched);
        let small = Ensemble::of(protocol.clone())
            .scenario(Scenario::new(1_000, 10).unwrap())
            .initial(InitialStates::counts(&[999, 1]));
        assert_eq!(small.selected_tier(), FidelityTier::Hybrid);
        // Per-id events force the agent tier.
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
        let per_id = Ensemble::of(protocol.clone())
            .scenario(
                Scenario::new(1_000, 10)
                    .unwrap()
                    .with_failure_schedule(schedule)
                    .unwrap(),
            )
            .initial(InitialStates::counts(&[500, 500]));
        assert_eq!(per_id.selected_tier(), FidelityTier::Agent);
        // A builder-level sharded topology selects the sharded tier and the
        // ensemble runs on it.
        let sharded = Ensemble::of(protocol)
            .scenario(Scenario::new(10_000, 20).unwrap())
            .initial(InitialStates::counts(&[9_900, 100]))
            .topology(netsim::Topology::sharded(4, 0.05).unwrap())
            .seed_range(0..4);
        assert_eq!(sharded.selected_tier(), FidelityTier::Sharded);
        let result = sharded.run_auto().unwrap();
        assert!(result.mean_series("y").unwrap().last().unwrap() > &9_000.0);
    }

    #[test]
    fn ensemble_error_budget_selects_continuous_time_tiers() {
        let base = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(2_000, 15).unwrap())
            .initial(InitialStates::counts(&[1_500, 500]))
            .seed_range(0..4)
            .threads(2);
        // The default budget keeps the historical policy …
        assert_eq!(base.selected_tier(), FidelityTier::Batched);
        // … while explicit budgets redirect to the continuous-time tiers.
        let exact = base.clone().error_budget(ErrorBudget::Exact);
        assert_eq!(exact.selected_tier(), FidelityTier::Ssa);
        let bounded = base.clone().error_budget(ErrorBudget::Bounded(0.05));
        assert_eq!(bounded.selected_tier(), FidelityTier::TauLeap);
        // Both budgets actually run and conserve the population mean.
        for ensemble in [exact, bounded] {
            let result = ensemble.run_auto().unwrap();
            assert!(result.failures.is_empty());
            for (_, s) in result.mean.iter() {
                assert!((s.iter().sum::<f64>() - 2_000.0).abs() < 1e-9);
            }
            assert!(result.mean_series("y").unwrap().last().unwrap() > &1_500.0);
        }
        // Id-based scenarios still win over the budget: correctness first.
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(1, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
        let per_id = base
            .scenario(
                Scenario::new(2_000, 15)
                    .unwrap()
                    .with_failure_schedule(schedule)
                    .unwrap(),
            )
            .error_budget(ErrorBudget::Exact);
        assert_eq!(per_id.selected_tier(), FidelityTier::Agent);
    }

    #[test]
    fn run_auto_serves_exchangeable_and_id_based_scenarios() {
        // Exchangeable scenario → batched fidelity; N = 200 000 over 8 seeds
        // stays fast because the work is independent of N.
        let auto = Ensemble::of(epidemic_protocol())
            .scenario(Scenario::new(200_000, 30).unwrap())
            .initial(InitialStates::counts(&[199_990, 10]))
            .seed_range(0..8)
            .run_auto()
            .unwrap();
        assert!(auto.mean_series("y").unwrap().last().unwrap() > &198_000.0);

        // A churn trace needs identity; run_auto must still serve it (via the
        // agent runtime).
        let cfg = netsim::SyntheticChurnConfig {
            hosts: 300,
            hours: 2,
            mean_availability: 0.8,
            churn_min: 0.1,
            churn_max: 0.2,
        };
        let mut rng = netsim::Rng::seed_from(5);
        let trace = cfg.generate(&mut rng).unwrap();
        let churny = Ensemble::of(epidemic_protocol())
            .scenario(
                Scenario::new(300, 20)
                    .unwrap()
                    .with_churn_trace(&trace, &mut rng)
                    .unwrap(),
            )
            .initial(InitialStates::counts(&[299, 1]))
            .seed_range(0..4)
            .count_alive_only()
            .run_auto()
            .unwrap();
        // Alive-only counts reflect the partial availability.
        let total: f64 = auto.mean.last_state().iter().sum();
        assert_eq!(total, 200_000.0);
        let churny_total: f64 = churny.mean.last_state().iter().sum();
        assert!(churny_total < 295.0, "churn left {churny_total} alive");
    }

    #[test]
    fn both_fidelities_produce_compatible_envelopes() {
        let build = || {
            Ensemble::of(epidemic_protocol())
                .scenario(Scenario::new(5_000, 30).unwrap())
                .initial(InitialStates::counts(&[4_995, 5]))
                .seed_range(10..18)
        };
        let agent = build().run::<AgentRuntime>().unwrap();
        let batched = build().run::<BatchedRuntime>().unwrap();
        let a = agent.mean_series("y").unwrap();
        let b = batched.mean_series("y").unwrap();
        // Both saturate to (almost) everyone infected.
        assert!(a.last().unwrap() > &4_900.0);
        assert!(b.last().unwrap() > &4_900.0);
    }
}

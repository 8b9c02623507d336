//! The untraced pass: rounds of set-up plus timed user calls, folded into
//! the end-to-end metrics.
//!
//! Closed loop, one client, one thread: the next call is issued when the
//! previous one has returned and been checked.
//!
//! Every timing statistic is computed per round, divided by the round's
//! speed index (see [`crate::speed`]) and reported as the median round, with
//! all five beside it: the reference box changes speed in episodes of
//! seconds to minutes, the index takes out what such an episode does to a
//! whole round, and the median of five rounds ignores two that an episode
//! cut in half.

use crate::heap;
use crate::speed;
use crate::stats::{median, percentile};
use crate::trace::{Tracer, NO_SAMPLE};
use crate::workloads::{check, prepare, AnyError, Inputs, Prepared, Workload};
use std::time::{Duration, Instant};

/// Seed of the first warm-up call. The warm-up calls are the same few
/// calls in every round of every run, whatever `--seed`: set-up then does
/// the same work each time, where seed-dependent warm-ups made
/// `takeoff_hybrid`'s set-up time spread 17 % between runs.
const WARMUP_SEED: u64 = 0x5EED_0000;

/// How one process measures a workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed: inputs and sample seeds derive from it.
    pub seed: u64,
    /// Measuring time of the whole run, split evenly over the rounds.
    pub seconds: f64,
    /// Rounds (each with its own set-up).
    pub rounds: usize,
    /// Samples a round takes even when its time slice is already spent.
    pub min_samples: usize,
    /// `Some(k)`: exactly `k` samples per round, regardless of time.
    pub fixed_samples: Option<usize>,
    /// Discarded calls between set-up and the first timed sample.
    pub warmups: usize,
    /// Calls of the extra, untimed round whose peak live heap is reported.
    /// Enough that a call on the workload's most expensive path is among
    /// them: 2 in 5 `takeoff_hybrid` runs hand off to per-process state a
    /// second time and hold 5.4 MiB instead of 2.3.
    pub memory_calls: usize,
    /// Divisor on every group size (100 under `--smoke`).
    pub shrink: u64,
}

impl Plan {
    /// The measuring plan: 5 rounds, 3 warm-up calls, at least 5 samples.
    pub fn measure(seed: u64, seconds: f64) -> Self {
        Plan {
            seed,
            seconds,
            rounds: 5,
            min_samples: 5,
            fixed_samples: None,
            warmups: 3,
            memory_calls: 16,
            shrink: 1,
        }
    }

    /// The smoke plan: 1 round, 3 samples, N ÷ 100.
    pub fn smoke(seed: u64) -> Self {
        Plan {
            seed,
            seconds: 0.0,
            rounds: 1,
            min_samples: 3,
            fixed_samples: Some(3),
            warmups: 1,
            memory_calls: 1,
            shrink: 100,
        }
    }

    /// Seed of sample `i` of `round`. Rounds are a million seeds apart, so
    /// no two samples of a process share a seed.
    pub fn sample_seed(&self, round: usize, i: usize) -> u64 {
        self.seed
            .wrapping_add(round as u64 * 1_000_003)
            .wrapping_add(i as u64)
    }

    fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.rounds as f64)
    }
}

/// The timed calls of one round.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Duration of every timed call, in milliseconds of wall time.
    pub ms: Vec<f64>,
    /// Units of work every timed call performed (0 for an errored call).
    pub work: Vec<f64>,
    /// Reasons of the calls that failed.
    pub failures: Vec<String>,
    /// Duration of the reference loop run after every call, milliseconds.
    pub loop_ms: Vec<f64>,
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Everything before the first timed sample, warm-up included, in
    /// seconds of wall time.
    pub setup_s: f64,
    /// The timed calls.
    pub samples: Samples,
}

impl Round {
    /// How fast the box ran during this round (1: reference speed).
    pub fn speed_index(&self) -> f64 {
        speed::index(&self.samples.loop_ms)
    }

    /// The round's median call time, in milliseconds of wall time.
    pub fn raw_ms_p50(&self) -> f64 {
        median(&self.samples.ms)
    }

    /// The round's typical throughput at reference speed: the median over
    /// its calls of the call's work ÷ the call's duration, in units per
    /// second.
    pub fn work_per_s(&self) -> f64 {
        let per_call: Vec<f64> = self
            .samples
            .work
            .iter()
            .zip(&self.samples.ms)
            .map(|(work, ms)| work / (ms / 1e3))
            .collect();
        median(&per_call) * self.speed_index()
    }
}

/// Sets up one round: `prepare` plus the warm-up calls.
///
/// # Errors
///
/// A warm-up call that errors aborts the run: the workloads are chosen so
/// that no operation fails.
pub fn set_up(
    inputs: &Inputs,
    plan: &Plan,
    tracer: &mut Tracer,
) -> Result<(Prepared, f64), AnyError> {
    let start = Instant::now();
    let prepared = prepare(inputs, tracer)?;
    tracer.span("setup.warmup", NO_SAMPLE, || {
        (0..plan.warmups).try_for_each(|i| {
            prepared
                .user_call(WARMUP_SEED + i as u64)
                .map(std::mem::drop)
        })
    })?;
    Ok((prepared, start.elapsed().as_secs_f64()))
}

/// Issues the timed calls of one round on a prepared workload. `call` is
/// the unit being timed (the plain user call, or its traced replay); it
/// returns what [`check`] needs, or nothing when the replay has no
/// `RunResult` to check. Every call is followed by one untimed run of the
/// reference loop, so the round knows how fast the box was meanwhile.
pub fn timed_samples<T>(
    plan: &Plan,
    round: usize,
    mut call: impl FnMut(u64, u32) -> Result<T, AnyError>,
    mut judge: impl FnMut(u64, usize, T) -> (f64, Option<String>),
) -> Samples {
    let slice = plan.slice();
    let started = Instant::now();
    let mut samples = Samples::default();
    loop {
        let i = samples.ms.len();
        let done = match plan.fixed_samples {
            Some(k) => i >= k,
            None => i >= plan.min_samples && started.elapsed() >= slice,
        };
        if done {
            break;
        }
        let seed = plan.sample_seed(round, i);
        let begin = Instant::now();
        let outcome = call(seed, i as u32);
        samples.ms.push(begin.elapsed().as_secs_f64() * 1e3);
        samples.loop_ms.push(speed::reference_loop_ms());
        match outcome {
            Ok(value) => {
                let (units, failure) = judge(seed, i, value);
                samples.work.push(units);
                samples.failures.extend(failure);
            }
            Err(err) => {
                samples.work.push(0.0);
                samples.failures.push(format!("call errored: {err}"));
            }
        }
    }
    samples
}

/// One full round: set-up, then timed user calls, each checked outside its
/// timed region.
///
/// # Errors
///
/// See [`set_up`].
pub fn run_round(inputs: &Inputs, plan: &Plan, round: usize) -> Result<Round, AnyError> {
    let mut tracer = Tracer::new();
    let (prepared, setup_s) = set_up(inputs, plan, &mut tracer)?;
    let samples = timed_samples(
        plan,
        round,
        |seed, _| prepared.user_call(seed),
        |seed, _, outcome| {
            let verdict = check(&prepared, seed, &outcome);
            (verdict.work, verdict.failure)
        },
    );
    Ok(Round { setup_s, samples })
}

/// The end-to-end report of one process.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload measured.
    pub workload: &'static Workload,
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Peak live heap of one extra, untimed round (set-up and warm-up
    /// calls) as the counting allocator saw it, MiB.
    pub peak_heap_mb: f64,
}

impl Report {
    /// Runs `plan.rounds` rounds of `workload`.
    ///
    /// # Errors
    ///
    /// See [`set_up`].
    pub fn measure(workload: &'static Workload, plan: &Plan) -> Result<Self, AnyError> {
        let inputs = Inputs::generate(workload, plan.seed, plan.shrink)?;
        let rounds = (0..plan.rounds)
            .map(|round| run_round(&inputs, plan, round))
            .collect::<Result<Vec<_>, _>>()?;
        // Memory is measured apart from time: the allocator's counter is
        // off while the rounds above are timed.
        let memory_round = Plan {
            warmups: plan.memory_calls,
            ..*plan
        };
        let (extra_round, peak_bytes) =
            heap::peak_during(|| set_up(&inputs, &memory_round, &mut Tracer::new()).map(drop));
        extra_round?;
        Ok(Report {
            workload,
            rounds,
            peak_heap_mb: peak_bytes as f64 / (1024.0 * 1024.0),
        })
    }

    fn per_round(&self, stat: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(stat).collect()
    }

    /// Per-round speed index.
    pub fn speed_index(&self) -> Vec<f64> {
        self.per_round(Round::speed_index)
    }

    /// Per-round set-up time at reference speed, seconds.
    pub fn setup_s(&self) -> Vec<f64> {
        self.per_round(|r| r.setup_s / r.speed_index())
    }

    /// Per-round median call time at reference speed, milliseconds.
    pub fn run_ms_p50(&self) -> Vec<f64> {
        self.per_round(|r| r.raw_ms_p50() / r.speed_index())
    }

    /// Per-round median call time in wall time (diagnostic).
    pub fn raw_ms_p50(&self) -> Vec<f64> {
        self.per_round(Round::raw_ms_p50)
    }

    /// Per-round 90th percentile of the call time, wall time (diagnostic).
    pub fn raw_ms_p90(&self) -> Vec<f64> {
        self.per_round(|r| percentile(&r.samples.ms, 90.0))
    }

    /// Per-round typical throughput at reference speed.
    pub fn work_per_s(&self) -> Vec<f64> {
        self.per_round(Round::work_per_s)
    }

    /// User calls issued in timed regions.
    pub fn attempted(&self) -> usize {
        self.rounds.iter().map(|r| r.samples.ms.len()).sum()
    }

    /// User calls that failed a check.
    pub fn failed(&self) -> usize {
        self.rounds.iter().map(|r| r.samples.failures.len()).sum()
    }
}

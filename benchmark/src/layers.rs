//! The traced pass, in two parts: [`replay`] runs the workload's round 0
//! again with spans, and [`probes`] runs one probe per layer, each timing
//! calls into public functions from outside.
//!
//! The benchmark contract has every `--trace 1` run report every per-layer
//! metric, so that form runs both parts. The [`REPLAY_METRICS`] describe
//! the workload being traced and carry no workload suffix for that reason:
//! a run is identified by its workload already. The [`PROBE_METRICS`] come
//! from fixed probes whose inputs are the workloads' own, generated from
//! the same seed — so they, and their count-type rows exactly, are the same
//! whichever workload is traced, and `all` runs them once.

use crate::e2e::{set_up, timed_samples, Plan};
use crate::probe::{measure, time_loop, ProbePlan, ProbeResult};
use crate::stats::{mad, median};
use crate::trace::{Tracer, NO_SAMPLE};
use crate::workloads::{
    by_kind, check, checksum, churn_config, prepare, traced_call, AnyError, Driven, Inputs, Kind,
    Prepared, Workload, SHARDS,
};
use dpde_core::runtime::{
    AgentRuntime, AggregateRuntime, AliveTracker, AsyncRuntime, BatchedRuntime, CountsRecorder,
    HybridFidelity, HybridRuntime, InitialStates, MembershipTracker, MessageCounter, Observer,
    PeriodEvents, RunDeadline, Runtime, ShardedRuntime, Simulation, SsaRuntime, TauLeapRuntime,
    TransitionRecorder,
};
use dpde_core::{Protocol, ProtocolCompiler, StateId};
use netsim::{
    Group, InProcTransport, LatencyModel, LinkModel, ProcessId, Rng, Scenario, SocketConfig,
    Topology, Transport, TransportBackend, TransportConfig, UdsTransport, WorkerLauncher,
    WorkerSupervisor,
};
use odekit::analysis::EquilibriumFinder;
use odekit::integrate::{Integrator, Rk4};
use odekit::parse::parse_system;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One per-layer metric: its name and unit as listed in `BENCHMARK.json`,
/// and the end-to-end metric (and workload) an optimisation of the layer
/// should move — everywhere else the prediction is no change.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP_ALL: &str = "setup_s on every workload, most on manystate_plurality";
const BATCHED_S3: &str = "run_ms_p50/work_per_s on ensemble_endemic";
const BATCHED_S33: &str = "run_ms_p50/work_per_s on manystate_plurality";
const NOTHING: &str = "nothing end to end";

/// The rows of the fixed probes, in `BENCHMARK.json` order. A count that
/// must read 0 (async or socket messages timed out, socket sends retried)
/// is a check of its probe, not a row.
#[rustfmt::skip]
pub const PROBE_METRICS: &[LayerMetric] = &[
    row("odekit.parse.ns_per_system.epidemic", "ns", "lower", SETUP_ALL),
    row("odekit.parse.ns_per_system.endemic", "ns", "lower", SETUP_ALL),
    row("odekit.parse.ns_per_system.plurality33", "ns", "lower", SETUP_ALL),
    row("odekit.integrate.rk4_ns_per_step", "ns", "lower", SETUP_ALL),
    row("odekit.analysis.equilibrium_us", "us", "lower", NOTHING),
    row("core.mapping.compile_us.s3", "us", "lower", "setup_s on the epidemic workloads"),
    row("core.mapping.compile_us.s33", "us", "lower", "setup_s on manystate_plurality"),
    row("core.mapping.actions.s33", "count", "lower", BATCHED_S33),
    row("core.batched.init_ns", "ns", "lower", BATCHED_S3),
    row("core.batched.step_ns.s3", "ns", "lower", BATCHED_S3),
    row("core.batched.step_ns.s33", "ns", "lower", BATCHED_S33),
    row("core.batched.step_ns_per_action.s33", "ns", "lower", BATCHED_S33),
    row("core.aggregate.step_ns.s3", "ns", "lower", "nothing end to end (run_auto never selects it)"),
    row("core.agent.init_ns_per_process", "ns", "lower", "run_ms_p50 and peak_heap_mb on takeoff_hybrid, run_ms_p50 on churn_membership"),
    row("core.agent.step_ns_per_process_period.clean", "ns", "lower", "run_ms_p50/work_per_s on takeoff_hybrid"),
    row("core.agent.step_ns_per_process_period.churn", "ns", "lower", "run_ms_p50/work_per_s on churn_membership"),
    row("core.hybrid.handoffs", "count", "lower", "run_ms_p50 on takeoff_hybrid"),
    row("core.hybrid.agent_periods", "count", "lower", "run_ms_p50 on takeoff_hybrid"),
    row("core.hybrid.handoff_step_ms", "ms", "lower", "run_ms_p50 on takeoff_hybrid"),
    row("core.sharded.step_ns_per_shard_period.s64", "ns", "lower", "run_ms_p50/work_per_s on sharded_partition"),
    row("core.sharded.step_ns.s1", "ns", "lower", NOTHING),
    row("core.sharded.failure_step_us", "us", "lower", "run_ms_p50 on sharded_partition"),
    row("core.ssa.ns_per_event", "ns", "lower", "run_ms_p50/work_per_s on exact_ssa; bounded_tau through the fallback"),
    row("core.ssa.events", "count", "lower", "work_per_s on exact_ssa"),
    row("core.tau_leap.ns_per_leap", "ns", "lower", "run_ms_p50/work_per_s on bounded_tau"),
    row("core.tau_leap.leaps", "count", "lower", "run_ms_p50 on bounded_tau"),
    row("core.tau_leap.exact_steps", "count", "lower", "run_ms_p50 on bounded_tau"),
    row("core.tau_leap.leap_share", "ratio", "higher", "run_ms_p50 on bounded_tau"),
    row("core.async.init_ns_per_process", "ns", "lower", "run_ms_p50 on lossy_messages"),
    row("core.async.ns_per_message", "ns", "lower", "run_ms_p50/work_per_s on lossy_messages"),
    row("core.async.messages", "count", "lower", "work_per_s on lossy_messages"),
    row("core.async.dropped", "count", "lower", NOTHING),
    row("core.observer.counts_ns", "ns", "lower", "run_ms_p50 on every workload, most on ensemble_endemic"),
    row("core.observer.transitions_ns", "ns", "lower", "run_ms_p50 on the single-run workloads"),
    row("core.observer.alive_ns", "ns", "lower", "run_ms_p50 on the single-run workloads"),
    row("core.observer.messages_ns", "ns", "lower", "run_ms_p50 on the single-run workloads"),
    row("core.observer.membership_ns", "ns", "lower", "run_ms_p50 on churn_membership"),
    row("core.ensemble.overhead_us_per_run", "us", "lower", "run_ms_p50/work_per_s on ensemble_endemic and bounded_tau"),
    row("core.ensemble.thread_scaling", "ratio", "higher", "nothing end to end (the workloads run on one thread); informational"),
    row("netsim.rng.next_u64_ns", "ns", "lower", "run_ms_p50 on every workload"),
    row("netsim.stochastic.binomial_ns.inverse", "ns", "lower", "run_ms_p50 on the three batched-kernel workloads"),
    row("netsim.stochastic.binomial_ns.normal", "ns", "lower", "run_ms_p50 on the three batched-kernel workloads"),
    row("netsim.stochastic.hypergeometric_ns", "ns", "lower", "run_ms_p50 on sharded_partition"),
    row("netsim.stochastic.mvh_ns_per_cell", "ns", "lower", "run_ms_p50 on sharded_partition"),
    row("netsim.stochastic.multinomial_ns_per_cell", "ns", "lower", "run_ms_p50 on the three batched-kernel workloads"),
    row("netsim.stochastic.poisson_ns.knuth", "ns", "lower", "run_ms_p50 on bounded_tau"),
    row("netsim.stochastic.poisson_ns.ptrs", "ns", "lower", "run_ms_p50 on bounded_tau"),
    row("netsim.stochastic.exponential_ns", "ns", "lower", "run_ms_p50 on exact_ssa and lossy_messages"),
    row("netsim.scenario.clone_ns.plain", "ns", "lower", "run_ms_p50 on ensemble_endemic and bounded_tau"),
    row("netsim.scenario.clone_ns.churn", "ns", "lower", "run_ms_p50 on churn_membership"),
    row("netsim.churn.generate_ms", "ms", "lower", "setup_s on churn_membership"),
    row("netsim.group.crash_recover_ns", "ns", "lower", "run_ms_p50 on churn_membership"),
    row("netsim.transport.inproc_ns_per_message", "ns", "lower", "run_ms_p50/work_per_s on lossy_messages"),
    row("netsim.transport.uds_echo_us", "us", "lower", "nothing end to end yet; informational"),
    row("netsim.transport.uds_messages", "count", "lower", NOTHING),
    row("netsim.supervise.spawn_ms_per_worker", "ms", "lower", "nothing end to end yet"),
    row("netsim.supervise.heartbeat_us", "us", "lower", "nothing end to end yet"),
    row("netsim.supervise.kill_respawn_ms", "ms", "lower", "nothing end to end yet"),
];

/// The rows of the workload's own replay; they follow the probes' rows in
/// `BENCHMARK.json`.
#[rustfmt::skip]
pub const REPLAY_METRICS: &[LayerMetric] = &[
    row("core.observer.share", "ratio", "lower", "run_ms_p50 on the traced workload; largest on ensemble_endemic and churn_membership"),
    row("core.simulation.finish_us", "us", "lower", "run_ms_p50 on the traced workload"),
    row("core.mean_field.ode_dev_max", "ratio", "lower", "failed calls on the traced workload once it crosses the ODE tolerance"),
    row("result_checksum", "count", "lower", "nothing: a speed-only change leaves it identical (direction is meaningless)"),
    row("trace.overhead_share", "ratio", "lower", "nothing: traced minus untraced call time, as a share of untraced"),
];

/// What one part of a traced run produced: its rows, and the calls or
/// probe checks it made with the ones that failed.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(name, value, note)` in emission order; the note (spread, sample
    /// count) is for the human-readable report.
    rows: Vec<(&'static str, f64, String)>,
    /// User calls issued and probe checks made.
    pub attempted: usize,
    /// Reasons of the calls and checks that failed.
    pub failures: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.rows.push((name, value, note.into()));
    }

    /// A timed probe's row, converted from nanoseconds by `per_unit` (e.g.
    /// `1e3` for µs) and divided by `work` units per repetition.
    fn put_probe(&mut self, name: &'static str, result: ProbeResult, per_unit: f64, work: f64) {
        let scale = per_unit * work;
        self.put(
            name,
            result.ns / scale,
            format!(
                "mad {:.3} min {:.3} ({} samples x {} iterations)",
                result.mad_ns / scale,
                result.min_ns / scale,
                result.samples,
                result.iters
            ),
        );
    }

    /// A row from repeated whole runs: the median with its MAD. A probe
    /// that collected nothing (a hybrid run that never handed off, say) has
    /// failed; its row then reads 0 rather than the NaN of an empty median,
    /// which no JSON number can carry.
    fn put_runs(&mut self, name: &'static str, values: &[f64]) {
        if !self.check(!values.is_empty(), || format!("{name}: nothing to measure")) {
            return self.put(name, 0.0, "no runs");
        }
        self.put(
            name,
            median(values),
            format!("mad {:.3} ({} runs)", mad(values), values.len()),
        );
    }

    /// Records one probe check; returns `ok`.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
        ok
    }

    /// The emitted rows: `(name, value, note)`.
    pub fn rows(&self) -> &[(&'static str, f64, String)] {
        &self.rows
    }
}

/// How hard the probes work: derived from `--seconds` so that the traced
/// run scales with the same knob as the untraced one.
#[derive(Debug, Clone, Copy)]
struct Effort {
    probe: ProbePlan,
    /// Repetitions of whole-run probes (SSA, tau-leap, async, hybrid, …).
    runs: usize,
    /// Messages pushed through the socket echo probe.
    echoes: u32,
}

impl Effort {
    fn of(plan: &Plan) -> Self {
        if plan.fixed_samples.is_some() {
            // --smoke: names only.
            return Effort {
                probe: ProbePlan {
                    floor: Duration::from_millis(1),
                    samples: 3,
                },
                runs: 1,
                echoes: 50,
            };
        }
        Effort {
            // 50 ms per sample at the benchmark's 10 s, 11 samples.
            probe: ProbePlan {
                floor: Duration::from_secs_f64(plan.seconds * 0.005),
                samples: 11,
            },
            runs: 5,
            echoes: 500,
        }
    }
}

/// Replays round 0 of `workload` — untraced, then over the same seeds with
/// the library hand-driven and every layer boundary spanned into `tracer` —
/// and emits the [`REPLAY_METRICS`].
///
/// # Errors
///
/// Propagates set-up errors; none occur on the shipped inputs.
pub fn replay(
    workload: &'static Workload,
    plan: &Plan,
    tracer: &mut Tracer,
) -> Result<Layers, AnyError> {
    let mut out = Layers::default();
    let inputs = Inputs::generate(workload, plan.seed, plan.shrink)?;
    let workload_span = tracer.enter("workload", NO_SAMPLE);
    let round_span = tracer.enter("round", NO_SAMPLE);
    let (prepared, _) = set_up(&inputs, plan, tracer)?;

    let mut ode_dev_max = 0.0f64;
    let mut first_checksum = 0u32;
    let plain = timed_samples(
        plan,
        0,
        |seed, _| prepared.user_call(seed),
        |seed, i, outcome| {
            let verdict = check(&prepared, seed, &outcome);
            ode_dev_max = ode_dev_max.max(verdict.ode_dev_max);
            if i == 0 {
                first_checksum = checksum(&outcome);
            }
            (verdict.work, verdict.failure)
        },
    );

    // The replay covers the same seeds, so it takes the same sample count.
    let same_seeds = Plan {
        fixed_samples: Some(plain.ms.len()),
        ..*plan
    };
    let mut driven = Driven::default();
    let mut inside_ms = Vec::new();
    let traced = timed_samples(
        &same_seeds,
        0,
        |seed, sample| traced_call(&prepared, seed, sample, tracer, true),
        |_, _, call: Driven| {
            inside_ms.push((call.init_ns + call.step_ns + call.observe_ns) as f64 / 1e6);
            driven.absorb(call);
            (0.0, None)
        },
    );
    tracer.exit(round_span);
    tracer.exit(workload_span);

    // Both halves ran within seconds of each other, and the rows below are
    // ratios and differences between them: wall time, no speed index.
    let plain_p50 = median(&plain.ms);
    let traced_p50 = median(&traced.ms);
    let traced_total_ns = traced.ms.iter().sum::<f64>() * 1e6;
    let samples = plain.ms.len();
    out.attempted = plain.ms.len() + traced.ms.len();
    out.failures.extend(plain.failures);
    out.failures.extend(traced.failures);
    out.put(
        "core.observer.share",
        driven.observe_ns as f64 / traced_total_ns,
        format!("of {samples} traced calls of {}", workload.name),
    );
    out.put(
        "core.simulation.finish_us",
        (plain_p50 - median(&inside_ms)) * 1e3,
        "untraced p50 minus traced init+step+observe p50",
    );
    out.put(
        "core.mean_field.ode_dev_max",
        ode_dev_max,
        format!("max over {samples} calls of {}", workload.name),
    );
    out.put(
        "result_checksum",
        f64::from(first_checksum),
        format!("final counts of call 0 of {}", workload.name),
    );
    out.put(
        "trace.overhead_share",
        (traced_p50 - plain_p50) / plain_p50,
        format!("traced p50 {traced_p50:.3} ms vs untraced {plain_p50:.3} ms"),
    );
    Ok(out)
}

/// Runs the layer probes and emits the [`PROBE_METRICS`]: the same set,
/// from the same inputs, whichever workload a run traces.
///
/// # Errors
///
/// Propagates set-up and probe errors; none occur on the shipped inputs.
pub fn probes(plan: &Plan) -> Result<Layers, AnyError> {
    let effort = Effort::of(plan);
    let mut out = Layers::default();
    let fixtures = Fixtures::prepare(plan)?;
    odekit_probes(&effort, &fixtures, &mut out)?;
    mapping_probes(&effort, &fixtures, &mut out);
    count_kernel_probes(&effort, &fixtures, &mut out);
    agent_probes(&effort, &fixtures, &mut out);
    hybrid_probe(&effort, &fixtures, &mut out)?;
    sharded_probes(&effort, &fixtures, &mut out)?;
    ssa_probe(&effort, &fixtures, &mut out)?;
    tau_leap_probe(&effort, &fixtures, &mut out)?;
    async_probe(&effort, &fixtures, &mut out)?;
    observer_probes(&effort, &fixtures, &mut out)?;
    ensemble_probes(&effort, &fixtures, &mut out)?;
    sampler_probes(&effort, &mut out);
    netsim_probes(&effort, &fixtures, &mut out)?;
    socket_probes(&effort, plan, &mut out)?;
    Ok(out)
}

/// The prepared inputs the probes borrow: one per workload whose layer has
/// a probe, all from the run's seed.
struct Fixtures {
    seed: u64,
    endemic: Prepared,
    plurality: Prepared,
    takeoff: Prepared,
    churn: Prepared,
    sharded: Prepared,
    ssa: Prepared,
    tau: Prepared,
    lossy: Prepared,
}

impl Fixtures {
    fn prepare(plan: &Plan) -> Result<Self, AnyError> {
        let mut scratch = Tracer::new();
        let mut one = |kind| -> Result<Prepared, AnyError> {
            let inputs = Inputs::generate(by_kind(kind), plan.seed, plan.shrink)?;
            prepare(&inputs, &mut scratch)
        };
        Ok(Fixtures {
            seed: plan.seed,
            endemic: one(Kind::EnsembleEndemic)?,
            plurality: one(Kind::ManystatePlurality)?,
            takeoff: one(Kind::TakeoffHybrid)?,
            churn: one(Kind::ChurnMembership)?,
            sharded: one(Kind::ShardedPartition)?,
            ssa: one(Kind::ExactSsa)?,
            tau: one(Kind::BoundedTau)?,
            lossy: one(Kind::LossyMessages)?,
        })
    }
}

const PROBE_INPUTS: &str = "probe inputs already ran in set-up";

fn odekit_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    for (name, prepared) in [
        ("odekit.parse.ns_per_system.epidemic", &fx.takeoff),
        ("odekit.parse.ns_per_system.endemic", &fx.endemic),
        ("odekit.parse.ns_per_system.plurality33", &fx.plurality),
    ] {
        let text = prepared.inputs.equation_text.as_str();
        let result = measure(effort.probe, |iters| {
            time_loop(iters, || {
                black_box(parse_system(black_box(text), &[]).expect(PROBE_INPUTS));
            })
        });
        out.put_probe(name, result, 1.0, 1.0);
    }

    // 1000 fixed steps of the endemic system from its equilibrium.
    let sys = &fx.endemic.sys;
    let y0 = fx.endemic.reference.states()[0].clone();
    let rk4 = Rk4::new(0.05);
    let steps = (rk4.integrate(sys, 0.0, &y0, 50.0)?.len() - 1) as f64;
    let result = measure(effort.probe, |iters| {
        time_loop(iters, || {
            black_box(
                rk4.integrate(sys, 0.0, black_box(&y0), 50.0)
                    .expect(PROBE_INPUTS),
            );
        })
    });
    out.put_probe("odekit.integrate.rk4_ns_per_step", result, 1.0, steps);

    // Newton from a point near the endemic equilibrium.
    let finder = EquilibriumFinder::new();
    let guess: Vec<f64> = y0.iter().map(|v| v * 1.05).collect();
    finder.from_guess(sys, &guess)?;
    let result = measure(effort.probe, |iters| {
        time_loop(iters, || {
            black_box(
                finder
                    .from_guess(sys, black_box(&guess))
                    .expect(PROBE_INPUTS),
            );
        })
    });
    out.put_probe("odekit.analysis.equilibrium_us", result, 1e3, 1.0);
    Ok(())
}

fn mapping_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) {
    let s3 = measure(effort.probe, |iters| {
        time_loop(iters, || {
            black_box(
                ProtocolCompiler::new("s3")
                    .compile(black_box(&fx.endemic.sys))
                    .expect(PROBE_INPUTS),
            );
        })
    });
    out.put_probe("core.mapping.compile_us.s3", s3, 1e3, 1.0);
    let s33 = measure(effort.probe, |iters| {
        time_loop(iters, || {
            black_box(
                ProtocolCompiler::new("s33")
                    .with_normalizing_constant(fx.plurality.protocol.time_scale())
                    .compile(black_box(&fx.plurality.sys))
                    .expect(PROBE_INPUTS),
            );
        })
    });
    out.put_probe("core.mapping.compile_us.s33", s33, 1e3, 1.0);
    out.put(
        "core.mapping.actions.s33",
        fx.plurality.protocol.num_actions() as f64,
        "actions of the compiled 33-state protocol",
    );
}

/// `Runtime::build` + `Runtime::init`, protocol clone included — what a
/// driver pays per run before the first period.
fn init_probe<R: Runtime>(effort: &Effort, p: &Prepared, scenario: &Scenario) -> ProbeResult {
    let config = p.run_config();
    measure(effort.probe, |iters| {
        time_loop(iters, || {
            let runtime = R::build(p.protocol.clone(), &config);
            black_box(runtime.init(scenario, &p.initial).expect(PROBE_INPUTS));
        })
    })
}

/// `Runtime::step` on a state that is re-initialized (untimed) every
/// `horizon` periods, so the probe keeps measuring the regime the workload
/// runs in instead of whatever the dynamics absorb into.
fn step_probe<R: Runtime>(
    effort: &Effort,
    p: &Prepared,
    scenario: &Scenario,
    horizon: u64,
) -> ProbeResult {
    let runtime = R::build(p.protocol.clone(), &p.run_config());
    let mut state = runtime.init(scenario, &p.initial).expect(PROBE_INPUTS);
    let mut done = 0u64;
    measure(effort.probe, |iters| {
        let mut total = Duration::ZERO;
        let mut left = iters;
        while left > 0 {
            if done == horizon {
                state = runtime.init(scenario, &p.initial).expect(PROBE_INPUTS);
                done = 0;
            }
            let chunk = left.min(horizon - done);
            let start = Instant::now();
            for _ in 0..chunk {
                black_box(runtime.step(&mut state).expect(PROBE_INPUTS).counts);
            }
            total += start.elapsed();
            done += chunk;
            left -= chunk;
        }
        total
    })
}

fn count_kernel_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) {
    let (s3, s33) = (&fx.endemic, &fx.plurality);
    let init = init_probe::<BatchedRuntime>(effort, s3, &s3.scenario);
    out.put_probe("core.batched.init_ns", init, 1.0, 1.0);
    let step3 = step_probe::<BatchedRuntime>(effort, s3, &s3.scenario, s3.inputs.periods);
    out.put_probe("core.batched.step_ns.s3", step3, 1.0, 1.0);
    let step33 = step_probe::<BatchedRuntime>(effort, s33, &s33.scenario, s33.inputs.periods);
    out.put_probe("core.batched.step_ns.s33", step33, 1.0, 1.0);
    let actions = s33.protocol.num_actions() as f64;
    out.put_probe("core.batched.step_ns_per_action.s33", step33, 1.0, actions);
    let aggregate = step_probe::<AggregateRuntime>(effort, s3, &s3.scenario, s3.inputs.periods);
    out.put_probe("core.aggregate.step_ns.s3", aggregate, 1.0, 1.0);
}

fn agent_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) {
    let p = &fx.churn;
    let n = p.inputs.n as f64;
    let clean = Scenario::new(p.inputs.n as usize, p.inputs.periods).expect(PROBE_INPUTS);
    let init = init_probe::<AgentRuntime>(effort, p, &clean);
    out.put_probe("core.agent.init_ns_per_process", init, 1.0, n);
    let step = step_probe::<AgentRuntime>(effort, p, &clean, p.inputs.periods);
    out.put_probe("core.agent.step_ns_per_process_period.clean", step, 1.0, n);
    let step = step_probe::<AgentRuntime>(effort, p, &p.scenario, p.inputs.periods);
    out.put_probe("core.agent.step_ns_per_process_period.churn", step, 1.0, n);
}

/// Steps a typed runtime by hand over the scenario's horizon, handing every
/// period's duration and state to `each`.
fn walk<R: Runtime>(
    p: &Prepared,
    scenario: &Scenario,
    mut each: impl FnMut(u64, Duration, &R::State),
) -> Result<(Duration, R::State), AnyError> {
    let start = Instant::now();
    let runtime = R::build(p.protocol.clone(), &p.run_config());
    let mut state = runtime.init(scenario, &p.initial)?;
    let init = start.elapsed();
    for period in 0..scenario.periods() {
        let start = Instant::now();
        runtime.step(&mut state)?;
        each(period, start.elapsed(), &state);
    }
    Ok((init, state))
}

fn hybrid_probe(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.takeoff;
    let scenario = p.scenario.clone().with_seed(fx.seed);
    let runtime = HybridRuntime::build(p.protocol.clone(), &p.run_config());
    let mut handoff_ms = Vec::new();
    let (mut handoffs, mut agent_periods) = (0u64, 0u64);
    for _ in 0..effort.runs {
        let mut state = runtime.init(&scenario, &p.initial)?;
        agent_periods = 0;
        for _ in 0..scenario.periods() {
            let before = state.fidelity();
            let start = Instant::now();
            runtime.step(&mut state)?;
            let took = start.elapsed();
            if before == HybridFidelity::Membership {
                agent_periods += 1;
            }
            if state.fidelity() != before {
                handoff_ms.push(took.as_secs_f64() * 1e3);
            }
        }
        let (down, up) = state.handoffs();
        handoffs = down + up;
    }
    out.put(
        "core.hybrid.handoffs",
        handoffs as f64,
        "takeoff_hybrid's run at the seed",
    );
    out.put(
        "core.hybrid.agent_periods",
        agent_periods as f64,
        "periods stepped per process",
    );
    out.put_runs("core.hybrid.handoff_step_ms", &handoff_ms);
    Ok(())
}

fn sharded_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.sharded;
    let n = p.inputs.n as usize;
    // The workload's topology without its events, so every step is the
    // steady exchange + 64 kernels.
    let steady = Scenario::new(n, p.inputs.periods)?.with_topology(*p.scenario.topology());
    let step = step_probe::<ShardedRuntime>(effort, p, &steady, p.inputs.periods);
    out.put_probe(
        "core.sharded.step_ns_per_shard_period.s64",
        step,
        1.0,
        SHARDS as f64,
    );
    let single = Scenario::new(n, p.inputs.periods)?.with_topology(Topology::sharded(1, 0.0)?);
    let step = step_probe::<ShardedRuntime>(effort, p, &single, p.inputs.periods);
    out.put_probe("core.sharded.step_ns.s1", step, 1.0, 1.0);

    // The step in which the shard failure fires.
    let failure_period = p
        .scenario
        .shard_failures()
        .first()
        .map(|f| f.period)
        .ok_or("sharded_partition schedules a shard failure")?;
    let until = p.scenario.clone().with_seed(fx.seed);
    let mut failure_us = Vec::new();
    for _ in 0..effort.runs {
        walk::<ShardedRuntime>(p, &until, |period, took, _| {
            if period == failure_period {
                failure_us.push(took.as_secs_f64() * 1e6);
            }
        })?;
    }
    out.put_runs("core.sharded.failure_step_us", &failure_us);
    Ok(())
}

fn ssa_probe(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.ssa;
    let scenario = p.scenario.clone().with_seed(fx.seed);
    let runtime = SsaRuntime::build(p.protocol.clone(), &p.run_config());
    let mut per_event = Vec::new();
    let mut events = 0u64;
    for _ in 0..effort.runs {
        let mut state = runtime.init(&scenario, &p.initial)?;
        events = 0;
        let mut stepping = Duration::ZERO;
        for _ in 0..scenario.periods() {
            let start = Instant::now();
            let period = runtime.step(&mut state)?;
            stepping += start.elapsed();
            events += period.transitions.iter().map(|t| t.2).sum::<u64>();
        }
        per_event.push(stepping.as_nanos() as f64 / events as f64);
    }
    out.put_runs("core.ssa.ns_per_event", &per_event);
    out.put(
        "core.ssa.events",
        events as f64,
        "exact_ssa's run at the seed",
    );
    Ok(())
}

fn tau_leap_probe(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.tau;
    let runs = p.inputs.ensemble_runs.ok_or("bounded_tau is an ensemble")?;
    let mut per_leap = Vec::new();
    let (mut leaps, mut exact) = (0u64, 0u64);
    for _ in 0..effort.runs {
        (leaps, exact) = (0, 0);
        let mut stepping = Duration::ZERO;
        for seed in p.ensemble_seeds(fx.seed, runs) {
            let scenario = p.scenario.clone().with_seed(seed);
            let (_, state) = walk::<TauLeapRuntime>(p, &scenario, |_, took, _| stepping += took)?;
            leaps += state.leaps();
            exact += state.exact_steps();
        }
        per_leap.push(stepping.as_nanos() as f64 / leaps as f64);
    }
    out.put_runs("core.tau_leap.ns_per_leap", &per_leap);
    out.put(
        "core.tau_leap.leaps",
        leaps as f64,
        "over bounded_tau's call at the seed",
    );
    out.put(
        "core.tau_leap.exact_steps",
        exact as f64,
        "SSA-burst steps of the same call",
    );
    out.put(
        "core.tau_leap.leap_share",
        leaps as f64 / (leaps + exact) as f64,
        "leaps / (leaps + exact steps)",
    );
    Ok(())
}

fn async_probe(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.lossy;
    let scenario = p.scenario.clone().with_seed(fx.seed);
    let (mut init_ns, mut per_message) = (Vec::new(), Vec::new());
    let (mut sent, mut dropped, mut timed_out) = (0, 0, 0);
    for _ in 0..effort.runs {
        let mut stepping = Duration::ZERO;
        let (init, state) = walk::<AsyncRuntime>(p, &scenario, |_, took, _| stepping += took)?;
        let stats = state.transport_stats();
        (sent, dropped, timed_out) = (stats.sent(), stats.dropped(), stats.timed_out());
        init_ns.push(init.as_nanos() as f64 / p.inputs.n as f64);
        per_message.push(stepping.as_nanos() as f64 / sent as f64);
    }
    out.put_runs("core.async.init_ns_per_process", &init_ns);
    out.put_runs("core.async.ns_per_message", &per_message);
    out.put(
        "core.async.messages",
        sent as f64,
        "lossy_messages' run at the seed",
    );
    out.put(
        "core.async.dropped",
        dropped as f64,
        "loss + partition window",
    );
    // No deadline is configured, so nothing may time out.
    out.check(timed_out == 0, || {
        format!("async run: {timed_out} messages timed out")
    });
    Ok(())
}

/// Calls per observer instance: recorders grow with every call, so a fresh
/// one is built (untimed) every thousand calls — five runs' worth.
const OBSERVER_CHUNK: u64 = 1_000;

fn observer_probe(
    effort: &Effort,
    protocol: &Protocol,
    template: PeriodEvents<'_>,
    make: impl Fn() -> Box<dyn Observer>,
) -> ProbeResult {
    measure(effort.probe, |iters| {
        let mut total = Duration::ZERO;
        let mut left = iters;
        while left > 0 {
            let chunk = left.min(OBSERVER_CHUNK);
            let mut observer = make();
            let start = Instant::now();
            for period in 1..=chunk {
                let events = PeriodEvents { period, ..template };
                observer.on_period(protocol, black_box(&events));
            }
            total += start.elapsed();
            left -= chunk;
        }
        total
    })
}

fn observer_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    // A period of the endemic protocol as the count-level tiers report it.
    let p = &fx.endemic;
    let InitialStates::Counts(counts) = &p.initial else {
        unreachable!("prepare builds counts");
    };
    let state = StateId::new;
    let transitions = [
        (state(0), state(1), 4_321),
        (state(1), state(2), 8_765),
        (state(2), state(0), 9_876),
    ];
    let template = PeriodEvents {
        period: 0,
        counts,
        transitions: &transitions,
        messages: 123_456,
        alive: p.inputs.n,
        counts_alive: None,
        membership: None,
        shard_counts_alive: None,
        transport: None,
        injections: &[],
        virtual_time: None,
    };
    type Maker = fn() -> Box<dyn Observer>;
    let makers: [(&'static str, Maker); 4] = [
        (
            "core.observer.counts_ns",
            || Box::new(CountsRecorder::new()),
        ),
        ("core.observer.transitions_ns", || {
            Box::new(TransitionRecorder::new())
        }),
        ("core.observer.alive_ns", || Box::new(AliveTracker::new())),
        ("core.observer.messages_ns", || {
            Box::new(MessageCounter::new())
        }),
    ];
    for (name, make) in makers {
        let result = observer_probe(effort, &p.protocol, template, make);
        out.put_probe(name, result, 1.0, 1.0);
    }

    // The membership view only exists inside an agent state.
    let p = &fx.churn;
    let tracked = p.tracked.ok_or("churn_membership tracks a state")?;
    let runtime = AgentRuntime::build(p.protocol.clone(), &p.run_config());
    let agent_state = runtime.init(&p.scenario, &p.initial)?;
    let template = runtime.snapshot(&agent_state);
    let result = observer_probe(effort, &p.protocol, template, || {
        Box::new(MembershipTracker::of(tracked))
    });
    out.put_probe("core.observer.membership_ns", result, 1.0, 1.0);
    Ok(())
}

fn ensemble_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    let p = &fx.endemic;
    let runs = p
        .inputs
        .ensemble_runs
        .ok_or("ensemble_endemic is an ensemble")?;
    let time = |body: &mut dyn FnMut() -> Result<(), AnyError>| -> Result<f64, AnyError> {
        let start = Instant::now();
        body()?;
        Ok(start.elapsed().as_secs_f64())
    };

    // Ensemble::run against the same 256 runs driven by hand with the bare
    // loop; the difference is what the ensemble layer adds per run.
    let mut scratch = Tracer::new();
    let (mut driver_s, mut by_hand_s) = (Vec::new(), Vec::new());
    for _ in 0..effort.runs.max(3) {
        driver_s.push(time(&mut || p.user_call(fx.seed).map(drop))?);
        by_hand_s.push(time(&mut || {
            traced_call(p, fx.seed, 0, &mut scratch, false).map(drop)
        })?);
    }
    out.put(
        "core.ensemble.overhead_us_per_run",
        (median(&driver_s) - median(&by_hand_s)) * 1e6 / runs as f64,
        format!(
            "Ensemble::run {:.3} ms vs by hand {:.3} ms over {runs} runs",
            median(&driver_s) * 1e3,
            median(&by_hand_s) * 1e3
        ),
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rate = |threads: usize| -> Result<f64, AnyError> {
        let mut seconds = Vec::new();
        for _ in 0..effort.runs.max(3) {
            seconds.push(time(&mut || {
                p.ensemble(fx.seed, runs, threads).run_auto().map(drop)?;
                Ok(())
            })?);
        }
        Ok(runs as f64 / median(&seconds))
    };
    let (single, all) = (rate(1)?, rate(cores)?);
    out.put(
        "core.ensemble.thread_scaling",
        all / single,
        format!("{all:.0} runs/s at {cores} threads vs {single:.0} at 1"),
    );
    Ok(())
}

fn sampler_probes(effort: &Effort, out: &mut Layers) {
    let mut rng = Rng::seed_from(0x5eed);
    let mut probe = |name: &'static str, work: f64, op: &mut dyn FnMut(&mut Rng)| {
        let result = measure(effort.probe, |iters| time_loop(iters, || op(&mut rng)));
        out.put_probe(name, result, 1.0, work);
    };
    probe("netsim.rng.next_u64_ns", 1.0, &mut |rng| {
        black_box(rng.next_u64());
    });
    // Either side of NORMAL_APPROX_CUTOFF (mean 10 vs mean 250 000).
    probe("netsim.stochastic.binomial_ns.inverse", 1.0, &mut |rng| {
        black_box(rng.binomial(black_box(100_000), 1e-4));
    });
    probe("netsim.stochastic.binomial_ns.normal", 1.0, &mut |rng| {
        black_box(rng.binomial(black_box(1_000_000), 0.25));
    });
    probe("netsim.stochastic.hypergeometric_ns", 1.0, &mut |rng| {
        black_box(rng.hypergeometric(black_box(1_000_000), 100_000, 10_000));
    });
    // One shard's emigration draw: three state cells, 1 % leave.
    let cells = [3_906u64, 13_843, 138_501];
    let mut hits = [0u64; 3];
    probe(
        "netsim.stochastic.mvh_ns_per_cell",
        cells.len() as f64,
        &mut |rng| {
            rng.multivariate_hypergeometric_into(black_box(&cells), 1_562, &mut hits);
            black_box(&hits);
        },
    );
    // The pooled emigrants of one state scattered over 64 shards.
    let weights = [1.0 / SHARDS as f64; SHARDS];
    let mut draws = [0u64; SHARDS];
    probe(
        "netsim.stochastic.multinomial_ns_per_cell",
        SHARDS as f64,
        &mut |rng| {
            rng.multinomial_into(black_box(10_000), &weights, &mut draws);
            black_box(&draws);
        },
    );
    // Small-mean sequential search vs the large-mean branch.
    probe("netsim.stochastic.poisson_ns.knuth", 1.0, &mut |rng| {
        black_box(rng.poisson(black_box(5.0)));
    });
    probe("netsim.stochastic.poisson_ns.ptrs", 1.0, &mut |rng| {
        black_box(rng.poisson(black_box(500.0)));
    });
    probe("netsim.stochastic.exponential_ns", 1.0, &mut |rng| {
        black_box(rng.exponential(black_box(180.0)));
    });
}

/// Queue depth the in-process transport probe holds.
const QUEUE_DEPTH: u32 = 10_000;

fn netsim_probes(effort: &Effort, fx: &Fixtures, out: &mut Layers) -> Result<(), AnyError> {
    for (name, scenario) in [
        ("netsim.scenario.clone_ns.plain", &fx.endemic.scenario),
        ("netsim.scenario.clone_ns.churn", &fx.churn.scenario),
    ] {
        let result = measure(effort.probe, |iters| {
            time_loop(iters, || {
                black_box(black_box(scenario).clone());
            })
        });
        out.put_probe(name, result, 1.0, 1.0);
    }

    let hosts = fx.churn.inputs.n as usize;
    let config = churn_config(hosts);
    let mut rng = Rng::seed_from(fx.seed);
    let result = measure(effort.probe, |iters| {
        time_loop(iters, || {
            black_box(config.generate(&mut rng).expect(PROBE_INPUTS));
        })
    });
    out.put_probe("netsim.churn.generate_ms", result, 1e6, 1.0);

    let mut group = Group::new(hosts);
    let mut next = 0usize;
    let result = measure(effort.probe, |iters| {
        time_loop(iters, || {
            let id = ProcessId(next);
            next = (next + 7) % hosts;
            black_box(group.crash(id).expect(PROBE_INPUTS));
            black_box(group.recover(id).expect(PROBE_INPUTS));
        })
    });
    out.put_probe("netsim.group.crash_recover_ns", result, 1.0, 1.0);

    // send + next_ready at a steady queue depth, on lossy_messages' links.
    let transport_config = fx
        .lossy
        .scenario
        .transport()
        .ok_or("lossy_messages carries a transport")?
        .clone();
    let n = fx.lossy.inputs.n as u32;
    let mut transport = InProcTransport::new(transport_config, n as usize);
    let mut rng = Rng::seed_from(fx.seed);
    let mut now = 0.0;
    let mut k = 0u32;
    let mut send = |transport: &mut InProcTransport, rng: &mut Rng| {
        now += 0.01;
        k = k.wrapping_add(1);
        transport.send(k % n, k.wrapping_mul(31) % n, u64::from(k), now, 0, rng);
    };
    for _ in 0..QUEUE_DEPTH {
        send(&mut transport, &mut rng);
    }
    let result = measure(effort.probe, |iters| {
        time_loop(iters, || {
            send(&mut transport, &mut rng);
            black_box(transport.next_ready(f64::INFINITY));
        })
    });
    out.put_probe("netsim.transport.inproc_ns_per_message", result, 1.0, 1.0);
    Ok(())
}

/// Socket and supervisor probes. Every step is bounded in wall time — the
/// echo wait by `SocketConfig`, the run by `RunDeadline::wall_clock` — so a
/// wedged socket degrades into a reported failure, never a hang. Timings
/// are informational (identical 25-sample sets ranged 0.174–0.222 s when
/// the benchmark was sized); the counts must equal the in-process replay.
fn socket_probes(effort: &Effort, plan: &Plan, out: &mut Layers) -> Result<(), AnyError> {
    const WORKERS: usize = 2;
    const N: usize = 2_000;
    let link = LinkModel::new(LatencyModel::Exponential { mean: 180.0 }, 0.01)?;
    let in_process = TransportConfig::new(link).with_segments(WORKERS)?;
    let over_sockets = in_process
        .clone()
        .with_backend(TransportBackend::UnixSocket(
            SocketConfig::new(WorkerLauncher::CurrentExe).with_echo_wait_ms(500),
        ));

    // --- transport level: one echo round trip per message ----------------
    let drain = |transport: &mut dyn Transport, echo_us: &mut Vec<f64>| {
        let mut rng = Rng::seed_from(plan.seed);
        let mut deliveries = Vec::new();
        for i in 0..effort.echoes {
            let start = Instant::now();
            transport.send(
                i % 997,
                (i * 31 + 1_000) % 1_999,
                u64::from(i),
                f64::from(i),
                0,
                &mut rng,
            );
            deliveries.extend(transport.next_ready(f64::INFINITY));
            echo_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        deliveries
    };
    let mut ignored = Vec::new();
    let expected = drain(
        &mut InProcTransport::new(in_process.clone(), N),
        &mut ignored,
    );
    let mut echo_us = Vec::new();
    let mut uds = UdsTransport::new(over_sockets.clone(), N)?;
    let got = drain(&mut uds, &mut echo_us);
    let stats = uds.stats();
    drop(uds); // shuts the workers down and reaps them
    out.check(got == expected, || {
        "socket transport diverged from the in-process replay".into()
    });
    let lo = echo_us.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = echo_us.iter().copied().fold(0.0, f64::max);
    out.put(
        "netsim.transport.uds_echo_us",
        median(&echo_us),
        format!(
            "min {lo:.1} max {hi:.1} over {} echoes; informational",
            echo_us.len()
        ),
    );
    out.put(
        "netsim.transport.uds_messages",
        stats.sent() as f64,
        "equals the in-process replay",
    );
    // Healthy workers and no retry policy: every message is sent once and
    // none times out.
    out.check(
        stats.sent() == u64::from(effort.echoes) && stats.retries() == 0 && stats.timed_out() == 0,
        || {
            format!(
                "socket ledger: sent {} retries {} timed out {}",
                stats.sent(),
                stats.retries(),
                stats.timed_out()
            )
        },
    );

    // --- runtime level: the same epidemic over both backends -------------
    let protocol =
        ProtocolCompiler::new("epidemic").compile(&parse_system("x' = -x*y\ny' = x*y", &[])?)?;
    let run = |transport: TransportConfig| {
        Simulation::of(protocol.clone())
            .scenario(
                Scenario::new(N, 40)?
                    .with_seed(plan.seed)
                    .with_transport(transport)?,
            )
            .initial(InitialStates::counts(&[N as u64 - 10, 10]))
            .record_defaults()
            .deadline(RunDeadline::wall_clock(Duration::from_secs(30)))
            .run_auto()
    };
    let reference = run(in_process)?;
    let socketed = run(over_sockets)?;
    out.check(socketed.status.is_completed(), || {
        format!("socket run {:?}", socketed.status)
    });
    out.check(
        socketed.final_counts() == reference.final_counts()
            && socketed.metrics.series("messages").ok()
                == reference.metrics.series("messages").ok(),
        || "socket run diverged from the in-process run".into(),
    );

    // --- supervisor: spawn, heartbeat, kill → respawn --------------------
    let start = Instant::now();
    let mut supervisor = WorkerSupervisor::spawn(WorkerLauncher::CurrentExe, WORKERS)?;
    let spawn_ms = start.elapsed().as_secs_f64() * 1e3 / WORKERS as f64;
    out.put(
        "netsim.supervise.spawn_ms_per_worker",
        spawn_ms,
        "one spawn of 2 workers",
    );
    let mut beat_us = Vec::new();
    for i in 0..effort.echoes as usize {
        let start = Instant::now();
        let alive = supervisor.heartbeat(i % WORKERS);
        let took = start.elapsed();
        if !out.check(alive, || "a healthy worker missed a heartbeat".into()) {
            break;
        }
        beat_us.push(took.as_secs_f64() * 1e6);
    }
    out.put_runs("netsim.supervise.heartbeat_us", &beat_us);
    let mut respawn_ms = Vec::new();
    for i in 0..effort.runs {
        let start = Instant::now();
        supervisor.respawn(i % WORKERS)?;
        respawn_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.put_runs("netsim.supervise.kill_respawn_ms", &respawn_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn layer_metric_names_are_unique_and_well_formed() {
        let all = || PROBE_METRICS.iter().chain(REPLAY_METRICS);
        let names: BTreeSet<_> = all().map(|m| m.name).collect();
        assert_eq!(names.len(), all().count());
        for m in all() {
            assert!(crate::spec::valid_name(m.name), "{}", m.name);
            assert!(crate::spec::valid_unit(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(!m.moves.is_empty(), "{}", m.name);
        }
        assert!(all().count() <= crate::spec::MAX_PER_LAYER);
    }

    #[test]
    fn a_probe_that_measured_nothing_fails_with_a_number() {
        let mut out = Layers::default();
        out.put_runs("core.hybrid.handoff_step_ms", &[]);
        out.put_runs("core.ssa.ns_per_event", &[3.0, 1.0, 2.0]);
        assert_eq!(out.rows()[0].1, 0.0);
        assert_eq!(out.rows()[1].1, 2.0);
        assert_eq!(out.attempted, 2);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }
}

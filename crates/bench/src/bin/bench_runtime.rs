//! Runtime performance baseline: periods/sec and process-periods/sec for the
//! four runtime fidelities over a group-size sweep, written to
//! `BENCH_runtime.json` so every PR has a perf trajectory to compare against.
//!
//! Two workloads:
//!
//! * **epidemic** — the paper's motivating protocol (30 periods, one initial
//!   infective) across the N sweep, for agent/batched/hybrid/aggregate. The
//!   hybrid runtime pays membership fidelity for the small-count head and
//!   the extinction window of this workload, so its row sits between agent
//!   and batched.
//! * **endemic** — the Figure 2 replication protocol started at its endemic
//!   equilibrium at N = 10⁵ (all populations large): the hybrid runtime must
//!   stay at count level and beat the agent runtime by ≥ 10× wall-clock.
//!
//! The epidemic workload also runs on the async message-passing runtime
//! (N ∈ {10³, 10⁵}, zero-latency and lossy exponential-latency links) so the
//! per-message event-loop cost has a tracked trajectory. Async is gated
//! against the *agent* runtime only: a count-batched period costs
//! O(actions + edges) independent of N, while the async runtime pays a heap
//! push/pop per contact message, so no message-level execution can beat the
//! count-level tiers — the honest, enforceable bound is a constant factor of
//! the per-process agent baseline.
//!
//! Both workloads also run on the continuous-time runtimes (exact SSA and
//! tau-leaping) at N ∈ {10³, 10⁵}. Their period cost is **O(events)** — the
//! number of reaction firings, roughly N × the mean per-period rate — not
//! independent of N like the count-batched tiers, so they are never gated
//! against batched. The honest, enforceable envelope is a constant factor of
//! the per-process agent runtime at the same N: an SSA event costs one
//! propensity scan over the channel list where an agent process-period costs
//! one action sweep, and the epidemic/endemic workloads fire at most a few
//! events per process over the horizon.
//!
//! Both workloads also run on the sharded runtime (S ∈ {1, 8, 64} at
//! N = 10⁶–10⁷) so the per-shard overhead has a tracked trajectory. A note
//! on the sharded gates: a count-batched period costs O(actions + edges)
//! per column *independent of N* — microseconds at N = 10⁷ — and the S
//! shards are S columns of one block, so they cost roughly S × that; no
//! sharded configuration can beat single-group batched wall-clock. The
//! enforceable form of "sharding must not cost the count-level win" is what
//! we gate: S = 1 (a width-1 block, bit-for-bit the batched run) stays
//! within a small factor of batched, S = 8 stays within a linear-in-S
//! envelope of batched (catching any accidental O(N) term in the exchange),
//! and sharded throughput never regresses past the agent baseline.
//!
//! `--scale` / `DPDE_SCALE` shrink the sweep for CI smoke runs; the default
//! reproduces the full N = 10³…10⁶ sweep (plus 10⁷ for the count-level
//! runtimes, whose period cost is independent of N).
//!
//! Exits non-zero (CI perf regression gates) if
//!
//! * the batched runtime is not faster than the agent runtime at the largest
//!   common N,
//! * the hybrid runtime regresses past the agent baseline on the endemic
//!   workload (any scale; small smoke scales legitimately keep hybrid at
//!   membership fidelity, so the bound there is "not slower", with a noise
//!   allowance),
//! * at full scale (≥ 1), the hybrid runtime is not ≥ 10× faster than the
//!   agent runtime on the endemic workload,
//! * a continuous-time gate fails: SSA or tau-leap drifts past
//!   `max(25 × agent, 5 ms)` at the largest continuous N of its workload
//!   (the O(events) envelope — a per-event cost regression or an accidental
//!   O(N²) term in the channel scan blows through it), or
//! * a sharded gate fails: S = 1 drifts past `max(10 × batched, 2 ms)` at the
//!   largest epidemic N, S = 8 drifts past `max(32 × S × batched, 10 ms)`
//!   there, or S = 8 process-period throughput at the largest epidemic N
//!   falls below the agent runtime's at the largest common N.

use dpde_bench::{banner, scale_from_args, scaled};
use dpde_core::runtime::{
    AgentRuntime, AggregateRuntime, AsyncRuntime, BatchedRuntime, HybridRuntime, InitialStates,
    Runtime, ShardedRuntime, SsaRuntime, TauLeapRuntime,
};
use dpde_core::{Protocol, ProtocolCompiler};
use dpde_protocols::endemic::EndemicParams;
use netsim::transport::{LatencyModel, LinkModel, TransportConfig};
use netsim::{Scenario, Topology};
use odekit::EquationSystemBuilder;
use std::time::Instant;

const PERIODS: u64 = 30;
/// Per-period migration probability for the sharded rows: low enough that
/// shards stay meaningfully local, high enough that the exchange path (the
/// code being timed) does real work every period.
const SHARD_MIGRATION: f64 = 0.01;
/// Shard counts tracked in the sweep; "s1" is a width-1 block, bit-for-bit
/// the batched run, the others add the exchange to a block of S columns.
const SHARD_SWEEP: [(usize, &str); 3] = [(1, "sharded_s1"), (8, "sharded_s8"), (64, "sharded_s64")];

fn epidemic() -> Protocol {
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y"])
        .term("x", -1.0, &[("x", 1), ("y", 1)])
        .term("y", 1.0, &[("x", 1), ("y", 1)])
        .build()
        .expect("epidemic equations are well-formed");
    ProtocolCompiler::new("epidemic")
        .compile(&sys)
        .expect("epidemic compiles")
}

/// One timed measurement: median wall-clock seconds over `reps` runs.
fn time_runs(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Drives a scenario-driven runtime through the `Runtime` trait without
/// observer overhead (init + steps only — what the fidelity itself costs).
fn run_steps<R: Runtime>(runtime: &R, scenario: &Scenario, initial: &InitialStates) {
    let mut state = runtime.init(scenario, initial).expect("init");
    for _ in 0..scenario.periods() {
        runtime.step(&mut state).expect("step");
    }
}

struct Row {
    workload: &'static str,
    runtime: &'static str,
    n: u64,
    seconds: f64,
}

impl Row {
    fn periods_per_sec(&self) -> f64 {
        PERIODS as f64 / self.seconds
    }

    fn process_periods_per_sec(&self) -> f64 {
        (self.n * PERIODS) as f64 / self.seconds
    }

    fn json(&self) -> String {
        format!(
            "    {{\"workload\": \"{}\", \"runtime\": \"{}\", \"n\": {}, \
             \"seconds\": {:.6}, \"periods_per_sec\": {:.1}, \
             \"process_periods_per_sec\": {:.1}}}",
            self.workload,
            self.runtime,
            self.n,
            self.seconds,
            self.periods_per_sec(),
            self.process_periods_per_sec()
        )
    }
}

fn main() {
    let scale = scale_from_args();
    banner(
        "BENCH_runtime",
        "periods/sec per runtime fidelity (epidemic sweep + endemic hybrid gate)",
        scale,
    );

    let protocol = epidemic();
    // Sweep sizes; the count-level runtimes get one extra decade (agent time
    // there is better spent elsewhere — its scaling is already visible).
    let mut common: Vec<u64> = [1_000u64, 10_000, 100_000, 1_000_000]
        .iter()
        .map(|&n| scaled(n, scale, 100))
        .collect();
    common.dedup(); // small scales can collapse adjacent decades onto the floor
    let count_level_extra = scaled(10_000_000, scale, 100);
    let largest_common = *common.last().expect("non-empty sweep");

    let mut rows: Vec<Row> = Vec::new();
    println!("workload,runtime,n,seconds,periods_per_sec,process_periods_per_sec");
    let mut measure = |workload: &'static str,
                       runtime: &'static str,
                       n: u64,
                       reps: usize,
                       f: &mut dyn FnMut()| {
        let seconds = time_runs(reps, f);
        let row = Row {
            workload,
            runtime,
            n,
            seconds,
        };
        println!(
            "{},{},{},{:.6},{:.1},{:.1}",
            workload,
            runtime,
            n,
            seconds,
            row.periods_per_sec(),
            row.process_periods_per_sec()
        );
        rows.push(row);
    };

    for &n in &common {
        let scenario = Scenario::new(n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7);
        let initial = InitialStates::counts(&[n - 1, 1]);
        let reps = if n >= 1_000_000 { 3 } else { 5 };

        let agent = AgentRuntime::new(protocol.clone());
        measure("epidemic", "agent", n, reps, &mut || {
            run_steps(&agent, &scenario, &initial)
        });

        let batched = BatchedRuntime::new(protocol.clone());
        measure("epidemic", "batched", n, reps, &mut || {
            run_steps(&batched, &scenario, &initial)
        });

        let hybrid = HybridRuntime::new(protocol.clone());
        measure("epidemic", "hybrid", n, reps, &mut || {
            run_steps(&hybrid, &scenario, &initial)
        });

        let aggregate = AggregateRuntime::new(protocol.clone());
        measure("epidemic", "aggregate", n, reps, &mut || {
            run_steps(&aggregate, &scenario, &initial)
        });
    }
    // Count-level runtimes only: period cost independent of N.
    {
        let n = count_level_extra;
        let scenario = Scenario::new(n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7);
        let initial = InitialStates::counts(&[n - 1, 1]);
        let batched = BatchedRuntime::new(protocol.clone());
        measure("epidemic", "batched", n, 3, &mut || {
            run_steps(&batched, &scenario, &initial)
        });
        let aggregate = AggregateRuntime::new(protocol.clone());
        measure("epidemic", "aggregate", n, 3, &mut || {
            run_steps(&aggregate, &scenario, &initial)
        });
    }

    // Async rows: the epidemic workload through the message-passing runtime,
    // on the implicit zero-latency transport and on a lossy half-period
    // exponential link. The async runtime pays a heap push/pop plus rng
    // draws *per message* where batched pays O(actions + edges) *per
    // period*, so it can never beat the count-level runtimes and isn't
    // gated against them — its honest envelope is a constant factor of the
    // agent runtime, which does comparable per-process work without the
    // event queue.
    let mut async_ns: Vec<u64> = [1_000u64, 100_000]
        .iter()
        .map(|&n| scaled(n, scale, 100))
        .collect();
    async_ns.dedup();
    let lossy_link =
        LinkModel::new(LatencyModel::Exponential { mean: 180.0 }, 0.01).expect("valid link model");
    for &n in &async_ns {
        let initial = InitialStates::counts(&[n - 1, 1]);
        let reps = if n >= 100_000 { 3 } else { 5 };
        let runtime = AsyncRuntime::new(protocol.clone());
        let zero = Scenario::new(n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7);
        measure("epidemic", "async_zero", n, reps, &mut || {
            run_steps(&runtime, &zero, &initial)
        });
        let lossy = Scenario::new(n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7)
            .with_transport(TransportConfig::new(lossy_link))
            .expect("valid transport windows");
        measure("epidemic", "async_latency", n, reps, &mut || {
            run_steps(&runtime, &lossy, &initial)
        });
    }

    // Continuous-time rows: the epidemic workload through the exact SSA and
    // the tau-leap runtimes at N ∈ {10³, 10⁵}. Cost is O(events) — each of
    // the ~N infections is one reaction firing (SSA) or lands inside a
    // Poisson leap (tau-leap) — so the rows track per-event cost, not a
    // count-level period cost.
    let mut continuous_ns: Vec<u64> = [1_000u64, 100_000]
        .iter()
        .map(|&n| scaled(n, scale, 100))
        .collect();
    continuous_ns.dedup();
    for &n in &continuous_ns {
        let scenario = Scenario::new(n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7);
        let initial = InitialStates::counts(&[n - 1, 1]);
        let ssa = SsaRuntime::new(protocol.clone());
        measure("epidemic", "ssa", n, 3, &mut || {
            run_steps(&ssa, &scenario, &initial)
        });
        let tau = TauLeapRuntime::new(protocol.clone());
        measure("epidemic", "tau_leap", n, 3, &mut || {
            run_steps(&tau, &scenario, &initial)
        });
    }

    // Sharded rows: the epidemic workload at N = 10⁶ and 10⁷ for S ∈ {1, 8,
    // 64}. S = 1 is a width-1 block (bit-for-bit batched); S > 1 pays the
    // multivariate-hypergeometric exchange plus one kernel call over the
    // S-column block.
    let mut sharded_ns = vec![largest_common, count_level_extra];
    sharded_ns.dedup();
    for &n in &sharded_ns {
        let initial = InitialStates::counts(&[n - 1, 1]);
        for (shards, label) in SHARD_SWEEP {
            if shards as u64 > n {
                continue; // smoke scales can shrink N below the shard count
            }
            let scenario = Scenario::new(n as usize, PERIODS)
                .expect("scenario")
                .with_seed(7)
                .with_topology(Topology::sharded(shards, SHARD_MIGRATION).expect("topology"));
            let sharded = ShardedRuntime::new(protocol.clone());
            measure("epidemic", label, n, 3, &mut || {
                run_steps(&sharded, &scenario, &initial)
            });
        }
    }

    // Endemic workload at N = 10⁵, started at the endemic equilibrium with
    // the replication parameters the simulated figures use (β = 4 via b = 2
    // contacts, γ = 0.1, α = 0.01): the equilibrium holds ≈ 8.9 % stashers
    // and 2.5 % receptives — every population large at full scale, so the
    // hybrid runtime must hold count-level fidelity for the whole horizon.
    let endemic_n = scaled(100_000, scale, 100);
    {
        let params = EndemicParams::from_contact_count(2, 0.1, 0.01).expect("valid parameters");
        let endemic_protocol = params.figure1_protocol().expect("figure 1 protocol");
        let counts = params.equilibrium_counts(endemic_n);
        let scenario = Scenario::new(endemic_n as usize, PERIODS)
            .expect("scenario")
            .with_seed(7);
        let initial = InitialStates::counts(&counts);
        let reps = 5;

        let agent = AgentRuntime::new(endemic_protocol.clone());
        measure("endemic", "agent", endemic_n, reps, &mut || {
            run_steps(&agent, &scenario, &initial)
        });
        let batched = BatchedRuntime::new(endemic_protocol.clone());
        measure("endemic", "batched", endemic_n, reps, &mut || {
            run_steps(&batched, &scenario, &initial)
        });
        let hybrid = HybridRuntime::new(endemic_protocol.clone());
        measure("endemic", "hybrid", endemic_n, reps, &mut || {
            run_steps(&hybrid, &scenario, &initial)
        });

        // Continuous-time rows on the endemic workload (three states, denser
        // channel structure, every population large — no fallback bursts):
        // N ∈ {10³, 10⁵}, sharing the 10⁵ point with the agent gate above.
        for &n in &continuous_ns {
            let scenario = Scenario::new(n as usize, PERIODS)
                .expect("scenario")
                .with_seed(7);
            let initial = InitialStates::counts(&params.equilibrium_counts(n));
            let ssa = SsaRuntime::new(endemic_protocol.clone());
            measure("endemic", "ssa", n, 3, &mut || {
                run_steps(&ssa, &scenario, &initial)
            });
            let tau = TauLeapRuntime::new(endemic_protocol.clone());
            measure("endemic", "tau_leap", n, 3, &mut || {
                run_steps(&tau, &scenario, &initial)
            });
        }
    }

    // Sharded rows for the endemic workload at N = 10⁶: three states and a
    // denser transition structure than the epidemic, so the exchange is
    // costlier per shard-period.
    let endemic_sharded_n = scaled(1_000_000, scale, 100);
    {
        let params = EndemicParams::from_contact_count(2, 0.1, 0.01).expect("valid parameters");
        let endemic_protocol = params.figure1_protocol().expect("figure 1 protocol");
        let counts = params.equilibrium_counts(endemic_sharded_n);
        let initial = InitialStates::counts(&counts);
        for (shards, label) in SHARD_SWEEP {
            if shards as u64 > endemic_sharded_n {
                continue;
            }
            let scenario = Scenario::new(endemic_sharded_n as usize, PERIODS)
                .expect("scenario")
                .with_seed(7)
                .with_topology(Topology::sharded(shards, SHARD_MIGRATION).expect("topology"));
            let sharded = ShardedRuntime::new(endemic_protocol.clone());
            measure("endemic", label, endemic_sharded_n, 3, &mut || {
                run_steps(&sharded, &scenario, &initial)
            });
        }
    }

    let maybe_seconds = |workload: &str, runtime: &str, n: u64| {
        rows.iter()
            .find(|r| r.workload == workload && r.runtime == runtime && r.n == n)
            .map(|r| r.seconds)
    };
    let seconds_of = |workload: &str, runtime: &str, n: u64| {
        maybe_seconds(workload, runtime, n).expect("measured")
    };
    let agent_largest = seconds_of("epidemic", "agent", largest_common);
    let batched_largest = seconds_of("epidemic", "batched", largest_common);
    let speedup = agent_largest / batched_largest;
    let endemic_agent = seconds_of("endemic", "agent", endemic_n);
    let endemic_hybrid = seconds_of("endemic", "hybrid", endemic_n);
    let hybrid_speedup = endemic_agent / endemic_hybrid;
    let sharded_largest = *sharded_ns.last().expect("non-empty sharded sweep");
    let batched_at_sharded = seconds_of("epidemic", "batched", sharded_largest);
    let sharded_s1 = maybe_seconds("epidemic", "sharded_s1", sharded_largest);
    let sharded_s8 = maybe_seconds("epidemic", "sharded_s8", sharded_largest);
    let async_largest = *async_ns.last().expect("non-empty async sweep");
    let async_zero = maybe_seconds("epidemic", "async_zero", async_largest);
    let async_latency = maybe_seconds("epidemic", "async_latency", async_largest);
    let agent_at_async = maybe_seconds("epidemic", "agent", async_largest);
    let continuous_largest = *continuous_ns.last().expect("non-empty continuous sweep");
    let ssa_epidemic = maybe_seconds("epidemic", "ssa", continuous_largest);
    let tau_epidemic = maybe_seconds("epidemic", "tau_leap", continuous_largest);
    let agent_at_continuous = maybe_seconds("epidemic", "agent", continuous_largest);
    let ssa_endemic = maybe_seconds("endemic", "ssa", endemic_n);
    let tau_endemic = maybe_seconds("endemic", "tau_leap", endemic_n);

    println!("\n== summary ==");
    println!(
        "epidemic, largest common N = {largest_common}: agent {agent_largest:.4}s, \
         batched {batched_largest:.4}s, speedup {speedup:.1}x"
    );
    println!(
        "endemic, N = {endemic_n}: agent {endemic_agent:.4}s, \
         hybrid {endemic_hybrid:.4}s, speedup {hybrid_speedup:.1}x"
    );
    println!(
        "sharded epidemic, N = {sharded_largest}: batched {batched_at_sharded:.6}s, \
         S=1 {}s, S=8 {}s",
        sharded_s1.map_or("-".to_string(), |s| format!("{s:.6}")),
        sharded_s8.map_or("-".to_string(), |s| format!("{s:.6}")),
    );
    println!(
        "async epidemic, N = {async_largest}: zero-latency {}s, lossy-latency {}s \
         (agent there: {}s)",
        async_zero.map_or("-".to_string(), |s| format!("{s:.4}")),
        async_latency.map_or("-".to_string(), |s| format!("{s:.4}")),
        agent_at_async.map_or("-".to_string(), |s| format!("{s:.4}")),
    );
    println!(
        "continuous time, N = {continuous_largest}: epidemic SSA {}s / tau-leap {}s \
         (agent there: {}s); endemic SSA {}s / tau-leap {}s (agent: {endemic_agent:.4}s)",
        ssa_epidemic.map_or("-".to_string(), |s| format!("{s:.4}")),
        tau_epidemic.map_or("-".to_string(), |s| format!("{s:.4}")),
        agent_at_continuous.map_or("-".to_string(), |s| format!("{s:.4}")),
        ssa_endemic.map_or("-".to_string(), |s| format!("{s:.4}")),
        tau_endemic.map_or("-".to_string(), |s| format!("{s:.4}")),
    );

    let json_opt = |v: Option<f64>| v.map_or("null".to_string(), |s| format!("{s:.6}"));
    let json = format!(
        "{{\n  \"bench\": \"runtime_sweep\",\n  \"periods\": {PERIODS},\n  \
         \"scale\": {scale},\n  \"results\": [\n{}\n  ],\n  \
         \"largest_common_n\": {largest_common},\n  \
         \"batched_speedup_at_largest\": {speedup:.2},\n  \
         \"endemic_n\": {endemic_n},\n  \
         \"hybrid_speedup_endemic\": {hybrid_speedup:.2},\n  \
         \"sharded_largest_n\": {sharded_largest},\n  \
         \"sharded_s1_seconds\": {},\n  \
         \"sharded_s8_seconds\": {},\n  \
         \"async_largest_n\": {async_largest},\n  \
         \"async_zero_seconds\": {},\n  \
         \"async_latency_seconds\": {},\n  \
         \"continuous_largest_n\": {continuous_largest},\n  \
         \"ssa_epidemic_seconds\": {},\n  \
         \"tau_leap_epidemic_seconds\": {},\n  \
         \"ssa_endemic_seconds\": {},\n  \
         \"tau_leap_endemic_seconds\": {}\n}}\n",
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n"),
        json_opt(sharded_s1),
        json_opt(sharded_s8),
        json_opt(async_zero),
        json_opt(async_latency),
        json_opt(ssa_epidemic),
        json_opt(tau_epidemic),
        json_opt(ssa_endemic),
        json_opt(tau_endemic),
    );
    let out = std::env::var("DPDE_BENCH_OUT").unwrap_or_else(|_| "BENCH_runtime.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("error: could not write {out}: {e}");
            std::process::exit(2);
        }
    }

    // Perf gate 1: count-batching must beat per-process simulation at scale.
    if speedup <= 1.0 {
        eprintln!(
            "error: batched runtime is not faster than the agent runtime at \
             N = {largest_common} ({batched_largest:.4}s vs {agent_largest:.4}s)"
        );
        std::process::exit(1);
    }
    // Perf gate 2: hybrid must never regress past the agent baseline. At
    // smoke scales the endemic equilibrium legitimately sits below the
    // fidelity threshold (hybrid *is* the agent runtime there), so allow
    // measurement noise; at full scale hybrid stays at count level and must
    // deliver an order of magnitude.
    if endemic_hybrid > endemic_agent * 1.5 {
        eprintln!(
            "error: hybrid runtime regressed past the agent baseline on the \
             endemic workload at N = {endemic_n} \
             ({endemic_hybrid:.4}s vs {endemic_agent:.4}s)"
        );
        std::process::exit(1);
    }
    if scale >= 1.0 && hybrid_speedup < 10.0 {
        eprintln!(
            "error: hybrid runtime is only {hybrid_speedup:.1}x faster than the \
             agent runtime on the endemic workload at N = {endemic_n} (need ≥ 10x)"
        );
        std::process::exit(1);
    }
    // Perf gate 4: S = 1 must stay within a small factor of plain batched
    // (it *is* the batched run, as a width-1 block, plus aggregation). The
    // absolute floor absorbs timer noise at microsecond magnitudes.
    if let Some(s1) = sharded_s1 {
        let bound = (10.0 * batched_at_sharded).max(0.002);
        if s1 > bound {
            eprintln!(
                "error: sharded S=1 took {s1:.6}s at N = {sharded_largest}, past its \
                 bound of {bound:.6}s (batched: {batched_at_sharded:.6}s)"
            );
            std::process::exit(1);
        }
    }
    if let Some(s8) = sharded_s8 {
        // Perf gate 5: S = 8 costs at most a linear-in-S envelope of batched —
        // this is the O(N)-regression catcher for the exchange path (an
        // accidental per-process term would blow through it at N = 10⁷).
        let bound = (32.0 * 8.0 * batched_at_sharded).max(0.010);
        if s8 > bound {
            eprintln!(
                "error: sharded S=8 took {s8:.6}s at N = {sharded_largest}, past its \
                 linear-in-S bound of {bound:.6}s (batched: {batched_at_sharded:.6}s) — \
                 the exchange path may have grown an O(N) term"
            );
            std::process::exit(1);
        }
        // Perf gate 6: sharded throughput never regresses past the agent
        // baseline (process-periods/sec, compared at each runtime's largest
        // measured N).
        let sharded_pps = (sharded_largest * PERIODS) as f64 / s8;
        let agent_pps = (largest_common * PERIODS) as f64 / agent_largest;
        if sharded_pps < agent_pps {
            eprintln!(
                "error: sharded S=8 throughput ({sharded_pps:.0} process-periods/s at \
                 N = {sharded_largest}) regressed past the agent baseline \
                 ({agent_pps:.0} process-periods/s at N = {largest_common})"
            );
            std::process::exit(1);
        }
    }
    // Perf gate 8 (checked before gate 7 for locality with the continuous
    // rows above): the continuous-time runtimes' honest O(events) envelope.
    // They cannot be gated against the count-level tiers — their period cost
    // grows with the number of reaction firings — so the enforceable bound
    // is a constant factor of the agent runtime at the same N, which does
    // comparable per-process work per period. The factor budgets the
    // per-event channel scan (SSA) and the per-leap propensity/moment pass
    // (tau-leap); the absolute floor absorbs timer noise at smoke scales.
    let continuous_gates = [
        ("epidemic", "ssa", ssa_epidemic, agent_at_continuous),
        ("epidemic", "tau_leap", tau_epidemic, agent_at_continuous),
        ("endemic", "ssa", ssa_endemic, Some(endemic_agent)),
        ("endemic", "tau_leap", tau_endemic, Some(endemic_agent)),
    ];
    for (workload, runtime, seconds, agent_secs) in continuous_gates {
        if let (Some(seconds), Some(agent_secs)) = (seconds, agent_secs) {
            let bound = (25.0 * agent_secs).max(0.005);
            if seconds > bound {
                eprintln!(
                    "error: {runtime} runtime took {seconds:.4}s on the {workload} \
                     workload, past its agent-relative O(events) bound of {bound:.4}s \
                     (agent: {agent_secs:.4}s)"
                );
                std::process::exit(1);
            }
        }
    }
    // Perf gate 7: the async runtime's honest envelope. It cannot be gated
    // against the count-level runtimes — their period cost is independent of
    // N while every async contact is a heap-queued message — so the
    // enforceable bound is a constant factor of the agent runtime, which
    // does the same per-process sampling work without an event queue. The
    // factor budgets the queue (push/pop + total_cmp ordering), the wake
    // ordering, and per-message rng draws; the absolute floor absorbs timer
    // noise at smoke scales.
    if let (Some(zero), Some(agent_secs)) = (async_zero, agent_at_async) {
        let bound = (25.0 * agent_secs).max(0.005);
        if zero > bound {
            eprintln!(
                "error: async zero-latency runtime took {zero:.4}s at N = {async_largest}, \
                 past its agent-relative bound of {bound:.4}s (agent: {agent_secs:.4}s)"
            );
            std::process::exit(1);
        }
    }
}

//! Property-based tests over randomly generated equation systems and protocol
//! configurations, exercising the framework's invariants:
//!
//! * completion always yields a complete system;
//! * systems built from random cancelling term pairs are completely
//!   partitionable and compile;
//! * compiled protocols never produce out-of-range probabilities and conserve
//!   the process count when executed;
//! * the normalizing constant only rescales time, not the equilibrium;
//! * samplers and integrators behave within tolerance;
//! * the sharded runtime degenerates exactly to the batched runtime at S = 1,
//!   matches it statistically under full mixing, and conserves the total
//!   population under migration, crashes and shard-targeted events;
//! * the continuous-time fidelities (exact SSA and tau-leaping) match the
//!   synchronized tiers' ensemble means at slow per-period rates, and the
//!   tau-leap runtime's small-count fallback to exact SSA steps is
//!   deterministic per seed;
//! * the count kernel's PRNG stream is pinned by golden final counts on
//!   every protocol without a repeated destination, and push conversions
//!   conserve the population on every tier built on it;
//! * every column of a count-batched ensemble block is the scalar run of
//!   its seed.

use dpde::prelude::*;
use proptest::prelude::*;

/// Strategy: a random polynomial system over `dim` variables built from
/// `pairs` cancelling term pairs (so it is complete and completely
/// partitionable by construction), with every negative term containing its
/// own variable (so it is also restricted polynomial).
fn partitionable_system(dim: usize, pairs: usize) -> impl Strategy<Value = EquationSystem> {
    let coeff = 0.05f64..1.0;
    let src = 0..dim;
    let dst = 0..dim;
    let other = 0..dim;
    proptest::collection::vec((coeff, src, dst, other, any::<bool>()), 1..=pairs).prop_map(
        move |specs| {
            let names: Vec<String> = (0..dim).map(|i| format!("v{i}")).collect();
            let mut builder = EquationSystemBuilder::new().vars(names.clone());
            for (c, src, dst, other, include_other) in specs {
                let dst = if dst == src { (dst + 1) % dim } else { dst };
                // Negative term in `src`'s equation, containing src (restricted),
                // optionally multiplied by one more variable.
                let mut factors: Vec<(&str, u32)> = vec![(names[src].as_str(), 1)];
                if include_other {
                    factors.push((names[other].as_str(), 1));
                }
                builder = builder.term(&names[src], -c, &factors);
                builder = builder.term(&names[dst], c, &factors);
            }
            builder.build().expect("constructed system is well-formed")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Completion makes any random polynomial system complete, and preserves
    /// the original right-hand sides.
    #[test]
    fn completion_always_yields_complete_systems(
        coeffs in proptest::collection::vec((-2.0f64..2.0, 0usize..3, 0usize..3), 1..6)
    ) {
        let names = ["a", "b", "c"];
        let mut builder = EquationSystemBuilder::new().vars(names);
        for (c, var, target) in &coeffs {
            builder = builder.term(names[*target], *c, &[(names[*var], 1)]);
        }
        let sys = builder.build().unwrap();
        let completed = rewrite::complete(&sys, "slack").unwrap();
        prop_assert!(taxonomy::is_complete(&completed));
        // Original components unchanged at a probe point.
        let probe3 = [0.2, 0.3, 0.1];
        let probe4 = [0.2, 0.3, 0.1, 0.4];
        let orig = sys.eval_rhs(&probe3);
        let comp = completed.eval_rhs(&probe4);
        for (o, c) in orig.iter().zip(&comp) {
            prop_assert!((o - c).abs() < 1e-12);
        }
    }

    /// Randomly generated partitionable systems are classified as mappable and
    /// compile into protocols whose probabilities are all within [0, 1].
    #[test]
    fn random_partitionable_systems_compile(sys in partitionable_system(3, 5)) {
        let report = taxonomy::classify(&sys);
        prop_assert!(report.complete);
        prop_assert!(report.completely_partitionable);
        prop_assert!(report.restricted_polynomial);

        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        prop_assert!(protocol.validate().is_ok());
        prop_assert!(protocol.time_scale() > 0.0 && protocol.time_scale() <= 1.0);
        for state in protocol.state_ids() {
            for action in protocol.actions(state) {
                prop_assert!((0.0..=1.0).contains(&action.prob()));
            }
        }
    }

    /// Executing a compiled protocol conserves the number of processes, at
    /// count level and per process.
    #[test]
    fn compiled_protocols_conserve_processes(
        sys in partitionable_system(3, 4),
        seed in 0u64..1000,
    ) {
        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        let n = 600u64;
        let initial = InitialStates::counts(&[200, 200, 200]);

        let scenario = Scenario::new(n as usize, 40).unwrap().with_seed(seed);
        let batched = BatchedRuntime::new(protocol.clone()).run(&scenario, &initial).unwrap();
        for (_, s) in batched.counts.iter() {
            prop_assert_eq!(s.iter().sum::<f64>() as u64, n);
        }

        let scenario = Scenario::new(n as usize, 20).unwrap().with_seed(seed);
        let agent = AgentRuntime::new(protocol).run(&scenario, &initial).unwrap();
        for (_, s) in agent.counts.iter() {
            prop_assert_eq!(s.iter().sum::<f64>() as u64, n);
        }
    }

    /// The normalizing constant only rescales time: two compilations of the
    /// same system with different p reach the same state at the same ODE time.
    #[test]
    fn normalizing_constant_only_rescales_time(seed in 0u64..500) {
        let params = EndemicParams::new(0.8, 0.2, 0.05).unwrap();
        let sys = params.equations();
        let n = 200_000u64;
        let initial = InitialStates::fractions(&[0.25, 0.25, 0.5]);

        let fast = ProtocolCompiler::new("fast").with_normalizing_constant(1.0)
            .compile(&sys).unwrap();
        let slow = ProtocolCompiler::new("slow").with_normalizing_constant(0.25)
            .compile(&sys).unwrap();

        // 50 periods at p=1 cover the same ODE time as 200 periods at p=0.25.
        let run = |protocol, periods, seed| {
            let scenario = Scenario::new(n as usize, periods).unwrap().with_seed(seed);
            BatchedRuntime::new(protocol).run(&scenario, &initial).unwrap()
        };
        let fast_run = run(fast, 50, seed);
        let slow_run = run(slow, 200, seed + 1);
        let f = fast_run.as_ode_trajectory(n as f64);
        let s = slow_run.as_ode_trajectory(n as f64);
        prop_assert!((f.last_time() - s.last_time()).abs() < 1e-9);
        for (a, b) in f.last_state().iter().zip(s.last_state()) {
            // Agreement within a few percent: stochastic noise at N = 200 000
            // plus the coarser discretization of the p = 1 run.
            prop_assert!((a - b).abs() < 0.04, "{a} vs {b}");
        }
    }

    /// Binomial sampling (the count-level runtimes' engine) stays within 5
    /// standard deviations of its mean.
    #[test]
    fn binomial_sampler_is_well_behaved(n in 1u64..50_000, p in 0.0f64..1.0, seed in 0u64..10_000) {
        let mut rng = netsim::Rng::seed_from(seed);
        let k = netsim::stochastic::binomial(&mut rng, n, p);
        prop_assert!(k <= n);
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        prop_assert!((k as f64 - mean).abs() <= 5.0 * sd + 1.0);
    }

    /// RK4 conserves the invariant Σx of complete systems along the trajectory.
    #[test]
    fn rk4_preserves_completeness_invariant(sys in partitionable_system(3, 4)) {
        let traj = Rk4::new(0.05).integrate(&sys, 0.0, &[0.3, 0.3, 0.4], 5.0).unwrap();
        for (_, state) in traj.iter() {
            let sum: f64 = state.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    /// The equilibrium finder only returns genuine zeros of the RHS.
    #[test]
    fn equilibrium_finder_returns_genuine_equilibria(sys in partitionable_system(3, 4)) {
        for eq in EquilibriumFinder::new().search_simplex(&sys, 4) {
            let rhs = sys.eval_rhs(&eq);
            for v in rhs {
                prop_assert!(v.abs() < 1e-6);
            }
        }
    }
}

/// Ensemble-mean epidemic trajectory of one runtime fidelity, through the
/// generic `Runtime` trait (the drivers never see the concrete type).
fn epidemic_ensemble_mean<R: Runtime>(
    protocol: &Protocol,
    n: usize,
    periods: u64,
    seed_base: u64,
    infected: u64,
) -> Trajectory {
    Ensemble::of(protocol.clone())
        .scenario(Scenario::new(n, periods).unwrap())
        .initial(InitialStates::counts(&[n as u64 - infected, infected]))
        .seeds(seed_base..seed_base + 8)
        .threads(4)
        .run::<R>()
        .expect("ensemble runs")
        .mean_as_ode_trajectory(n as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The three period-synchronized fidelities — agent (per-process),
    /// batched (count-batched stochastic) and hybrid (batched with
    /// per-process small-count segments) — are statistically equivalent through the `Runtime` trait: over an 8-seed
    /// ensemble, the mean epidemic trajectory of each fidelity stays within
    /// tolerance of an RK4 integration of the source equations — and hence
    /// of every other fidelity. The hybrid runs start with a handful of
    /// infectives and end with the susceptibles near extinction, so they
    /// cross the fidelity handoff in both directions.
    #[test]
    fn runtimes_are_statistically_equivalent_through_the_trait(
        seed_base in 0u64..1_000,
        infected in 4u64..32,
    ) {
        // p = 0.2 keeps the synchronous-update discretization bias of the
        // count-level runtimes well below the comparison tolerance.
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 2_000;
        let periods = 150;

        let agent = epidemic_ensemble_mean::<AgentRuntime>(&protocol, n, periods, seed_base, infected);
        let batched =
            epidemic_ensemble_mean::<BatchedRuntime>(&protocol, n, periods, seed_base, infected);
        let hybrid =
            epidemic_ensemble_mean::<HybridRuntime>(&protocol, n, periods, seed_base, infected);

        // Each fidelity tracks the ODE…
        let agent_vs_ode = compare_to_system(&agent, &sys, 0.01).unwrap();
        let batched_vs_ode = compare_to_system(&batched, &sys, 0.01).unwrap();
        let hybrid_vs_ode = compare_to_system(&hybrid, &sys, 0.01).unwrap();
        prop_assert!(agent_vs_ode.max_abs_error < 0.15, "agent vs ODE: {}", agent_vs_ode.max_abs_error);
        prop_assert!(batched_vs_ode.max_abs_error < 0.15, "batched vs ODE: {}", batched_vs_ode.max_abs_error);
        prop_assert!(hybrid_vs_ode.max_abs_error < 0.15, "hybrid vs ODE: {}", hybrid_vs_ode.max_abs_error);

        // …and therefore each other, sampled on the same period grid.
        let agent_vs_batched = compare_trajectories(&agent, &batched).unwrap();
        prop_assert!(agent_vs_batched.max_abs_error < 0.2, "agent vs batched: {}", agent_vs_batched.max_abs_error);
        let agent_vs_hybrid = compare_trajectories(&agent, &hybrid).unwrap();
        prop_assert!(agent_vs_hybrid.max_abs_error < 0.2, "agent vs hybrid: {}", agent_vs_hybrid.max_abs_error);
        let hybrid_vs_batched = compare_trajectories(&hybrid, &batched).unwrap();
        prop_assert!(hybrid_vs_batched.max_abs_error < 0.2, "hybrid vs batched: {}", hybrid_vs_batched.max_abs_error);
    }

    /// LV-majority equivalence: the hybrid, agent and batched fidelities
    /// produce matching ensemble-mean trajectories on a clear-majority LV
    /// run. The workload starts with the undecided state empty and ends with
    /// the losing proposal near extinction, so the hybrid runs spend their
    /// head and tail at membership fidelity with a long batched middle.
    #[test]
    fn lv_majority_fidelities_are_statistically_equivalent(seed_base in 0u64..1_000) {
        let protocol = LvParams::new().protocol().unwrap();
        let n = 2_000usize;
        let split = 1_200u64; // 60/40
        let mean_of = |runtime: &str, seed_base: u64| -> Trajectory {
            let ensemble = Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, 700).unwrap())
                .initial(InitialStates::counts(&[split, n as u64 - split, 0]))
                .seeds(seed_base..seed_base + 8)
                .threads(4);
            let result = match runtime {
                "agent" => ensemble.run::<AgentRuntime>(),
                "batched" => ensemble.run::<BatchedRuntime>(),
                _ => ensemble.run::<HybridRuntime>(),
            }
            .expect("ensemble runs");
            result.mean
        };
        let agent = mean_of("agent", seed_base);
        let batched = mean_of("batched", seed_base);
        let hybrid = mean_of("hybrid", seed_base);
        let tolerance = n as f64 * 0.15;
        for (period, ((a, b), h)) in agent
            .states()
            .iter()
            .zip(batched.states())
            .zip(hybrid.states())
            .enumerate()
        {
            for state in 0..3 {
                prop_assert!(
                    (a[state] - h[state]).abs() < tolerance,
                    "period {period} state {state}: agent {} vs hybrid {}",
                    a[state], h[state]
                );
                prop_assert!(
                    (b[state] - h[state]).abs() < tolerance,
                    "period {period} state {state}: batched {} vs hybrid {}",
                    b[state], h[state]
                );
            }
        }
        // All three select the initial majority on average.
        prop_assert!(agent.last_state()[0] > n as f64 * 0.9);
        prop_assert!(hybrid.last_state()[0] > n as f64 * 0.9);
        prop_assert!(batched.last_state()[0] > n as f64 * 0.9);
    }

    /// The batched runtime conserves the process count on random compiled
    /// protocols, like the other fidelities (scenario-driven, count level).
    #[test]
    fn batched_runtime_conserves_processes(
        sys in partitionable_system(3, 4),
        seed in 0u64..1000,
    ) {
        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        let n = 600u64;
        let initial = InitialStates::counts(&[200, 200, 200]);
        let scenario = Scenario::new(n as usize, 40).unwrap().with_seed(seed);
        let run = Simulation::of(protocol)
            .scenario(scenario)
            .initial(initial)
            .observe(CountsRecorder::new())
            .run::<BatchedRuntime>()
            .unwrap();
        for (_, s) in run.counts.iter() {
            prop_assert_eq!(s.iter().sum::<f64>() as u64, n);
        }
    }

    /// A sharded ensemble at S = 8 with full mixing (migration = 1.0 makes
    /// every period a complete reshuffle, so the population is statistically
    /// well-mixed again) matches the batched ensemble's per-period means
    /// within their combined Welford standard-error envelopes.
    #[test]
    fn fully_mixed_sharded_matches_batched_ensemble_means(seed_base in 0u64..1_000) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 2_000usize;
        let periods = 150;
        let ensemble = || {
            Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, periods).unwrap())
                .initial(InitialStates::counts(&[n as u64 - 16, 16]))
                .seeds(seed_base..seed_base + 8)
                .threads(4)
        };
        let batched = ensemble().run::<BatchedRuntime>().unwrap();
        let sharded = ensemble()
            .topology(Topology::sharded(8, 1.0).unwrap())
            .run::<ShardedRuntime>()
            .unwrap();
        let runs = 8.0f64;
        for name in ["x", "y"] {
            let mb = batched.mean_series(name).unwrap();
            let sb = batched.std_series(name).unwrap();
            let ms = sharded.mean_series(name).unwrap();
            let ss = sharded.std_series(name).unwrap();
            for (p, ((a, b), (sa, sc))) in
                mb.iter().zip(&ms).zip(sb.iter().zip(&ss)).enumerate()
            {
                // Difference of two independent 8-seed means: the standard
                // error is at most (σ_a + σ_b)/√runs; 6 of those plus a 1 %
                // floor keeps false alarms out without hiding a real bias.
                let tolerance = 6.0 * (sa + sc) / runs.sqrt() + 0.01 * n as f64;
                prop_assert!(
                    (a - b).abs() <= tolerance,
                    "state {name} period {p}: batched mean {a}, sharded mean {b}, \
                     tolerance {tolerance}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// On the implicit zero-latency, lossless transport the async runtime's
    /// ensemble-mean epidemic trajectory matches the batched and agent
    /// runtimes' within their combined Welford standard-error envelopes:
    /// with instantaneous delivery every chain completes inside its wake
    /// instant, so a period collapses to the agent runtime's sequential
    /// sweep under a random visiting permutation.
    #[test]
    fn async_zero_latency_matches_synchronized_ensemble_means(seed_base in 0u64..1_000) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 2_000usize;
        let periods = 150;
        let ensemble = || {
            Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, periods).unwrap())
                .initial(InitialStates::counts(&[n as u64 - 16, 16]))
                .seeds(seed_base..seed_base + 8)
                .threads(4)
        };
        let asynchronous = ensemble().run::<AsyncRuntime>().unwrap();
        let runs = 8.0f64;
        for synchronized in [
            ensemble().run::<BatchedRuntime>().unwrap(),
            ensemble().run::<AgentRuntime>().unwrap(),
        ] {
            for name in ["x", "y"] {
                let ma = asynchronous.mean_series(name).unwrap();
                let sa = asynchronous.std_series(name).unwrap();
                let ms = synchronized.mean_series(name).unwrap();
                let ss = synchronized.std_series(name).unwrap();
                for (p, ((a, b), (da, db))) in
                    ma.iter().zip(&ms).zip(sa.iter().zip(&ss)).enumerate()
                {
                    let tolerance = 6.0 * (da + db) / runs.sqrt() + 0.01 * n as f64;
                    prop_assert!(
                        (a - b).abs() <= tolerance,
                        "state {name} period {p}: async mean {a}, synchronized mean {b}, \
                         tolerance {tolerance}"
                    );
                }
            }
        }
    }

    /// LV-majority under the zero-latency transport: the async runtime's
    /// ensemble means track the batched runtime's through the full
    /// three-state selection dynamics, and both select the initial majority.
    #[test]
    fn async_lv_majority_matches_batched_ensemble_means(seed_base in 0u64..1_000) {
        let protocol = LvParams::new().protocol().unwrap();
        let n = 2_000usize;
        let split = 1_200u64; // 60/40
        let ensemble = || {
            Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, 700).unwrap())
                .initial(InitialStates::counts(&[split, n as u64 - split, 0]))
                .seeds(seed_base..seed_base + 8)
                .threads(4)
        };
        let asynchronous = ensemble().run::<AsyncRuntime>().unwrap().mean;
        let batched = ensemble().run::<BatchedRuntime>().unwrap().mean;
        let tolerance = n as f64 * 0.15;
        for (period, (a, b)) in asynchronous
            .states()
            .iter()
            .zip(batched.states())
            .enumerate()
        {
            for state in 0..3 {
                prop_assert!(
                    (a[state] - b[state]).abs() < tolerance,
                    "period {period} state {state}: async {} vs batched {}",
                    a[state], b[state]
                );
            }
        }
        prop_assert!(asynchronous.last_state()[0] > n as f64 * 0.9);
        prop_assert!(batched.last_state()[0] > n as f64 * 0.9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With one shard and no shard-targeted events the sharded runtime
    /// *delegates*: the run is bit-for-bit the batched run — identical
    /// trajectories, not just statistically close — even with a massive
    /// failure and a background crash/recovery model in play.
    #[test]
    fn sharded_s1_is_bit_for_bit_batched(
        sys in partitionable_system(3, 4),
        seed in 0u64..1_000,
        migration in 0.0f64..1.0,
    ) {
        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        let n = 900usize;
        let initial = InitialStates::counts(&[300, 300, 300]);
        let scenario = Scenario::new(n, 30)
            .unwrap()
            .with_seed(seed)
            .with_massive_failure(10, 0.3)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.01, 0.05).unwrap());
        let run = |sharded: bool| {
            let mut sim = Simulation::of(protocol.clone())
                .scenario(scenario.clone())
                .initial(initial.clone())
                .observe(CountsRecorder::new());
            if sharded {
                sim = sim.topology(Topology::sharded(1, migration).unwrap());
                sim.run::<ShardedRuntime>()
            } else {
                sim.run::<BatchedRuntime>()
            }
        };
        prop_assert_eq!(run(true).unwrap(), run(false).unwrap());
    }

    /// The sharded runtime conserves the total population (alive + crashed)
    /// every period, under migration, a global massive failure, a background
    /// crash/recovery model, a shard-targeted failure and a partition window.
    #[test]
    fn sharded_runtime_conserves_total_population(
        sys in partitionable_system(3, 4),
        seed in 0u64..1_000,
        shards in 2usize..7,
        migration in 0.0f64..1.0,
    ) {
        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        let n = 900usize;
        let scenario = Scenario::new(n, 30)
            .unwrap()
            .with_seed(seed)
            .with_topology(Topology::sharded(shards, migration).unwrap())
            .with_massive_failure(5, 0.2)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.02, 0.05).unwrap())
            .with_shard_massive_failure(8, 0, 0.5)
            .unwrap()
            .with_shard_partition(1, 3, 12)
            .unwrap();
        let run = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[300, 300, 300]))
            .observe(CountsRecorder::new())
            .run_auto()
            .unwrap();
        prop_assert_eq!(run.counts.len(), 31);
        for (period, s) in run.counts.iter() {
            prop_assert_eq!(
                s.iter().sum::<f64>() as u64, n as u64,
                "total population drifted at period {}", period
            );
        }
    }

    /// An *oblivious* adversary — a fixed `CrashUniform` schedule that never
    /// looks at the run — is bit-for-bit the scheduled massive-failure path,
    /// on both the count-level (batched) and per-id (agent) runtimes: the
    /// injection machinery adds no RNG draws and no semantic drift of its
    /// own. The adaptive strategies differ from scheduled events only by
    /// *what they choose*, never by how a choice is applied.
    #[test]
    fn oblivious_adversary_is_bit_for_bit_the_scheduled_event_path(
        sys in partitionable_system(3, 4),
        seed in 0u64..1_000,
        period in 1u64..29,
        sixteenths in 1u32..16,
    ) {
        let protocol = ProtocolCompiler::new("random").compile(&sys).unwrap();
        let n = 900usize;
        let initial = InitialStates::counts(&[300, 300, 300]);
        // Exact binary fraction: floor(q·c) arithmetic cannot drift.
        let fraction = f64::from(sixteenths) / 16.0;
        let base = || Scenario::new(n, 30).unwrap().with_seed(seed);
        let scheduled = base().with_massive_failure(period, fraction).unwrap();
        let adversarial = base().with_adversary(
            ObliviousSchedule::new()
                .crash_uniform_at(period, fraction)
                .unwrap(),
        );
        let run = |scenario: Scenario, batched: bool| {
            let sim = Simulation::of(protocol.clone())
                .scenario(scenario)
                .initial(initial.clone())
                .observe(CountsRecorder::new())
                .observe(AliveTracker::new());
            if batched {
                sim.run::<BatchedRuntime>()
            } else {
                sim.run::<AgentRuntime>()
            }
        };
        for batched in [true, false] {
            prop_assert_eq!(
                run(scheduled.clone(), batched).unwrap(),
                run(adversarial.clone(), batched).unwrap(),
                "fidelity (batched = {}) diverged", batched
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The continuous-time fidelities (exact SSA and tau-leaping) match the
    /// synchronized tiers on the epidemic: at a slow normalizing constant the
    /// within-period compounding the event clock resolves is O(q²) per
    /// period, so each continuous-time ensemble mean stays inside the
    /// combined Welford standard-error envelope of both the batched and the
    /// agent ensembles.
    #[test]
    fn continuous_time_fidelities_match_synchronized_ensemble_means(seed_base in 0u64..1_000) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.05)
            .compile(&sys)
            .unwrap();
        let n = 2_000usize;
        let periods = 250;
        let ensemble = || {
            Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, periods).unwrap())
                .initial(InitialStates::counts(&[n as u64 - 16, 16]))
                .seeds(seed_base..seed_base + 8)
                .threads(4)
        };
        let continuous = [
            ("ssa", ensemble().run::<SsaRuntime>().unwrap()),
            ("tau-leap", ensemble().run::<TauLeapRuntime>().unwrap()),
        ];
        let runs = 8.0f64;
        for synchronized in [
            ensemble().run::<BatchedRuntime>().unwrap(),
            ensemble().run::<AgentRuntime>().unwrap(),
        ] {
            for (label, result) in &continuous {
                for name in ["x", "y"] {
                    let ma = result.mean_series(name).unwrap();
                    let sa = result.std_series(name).unwrap();
                    let ms = synchronized.mean_series(name).unwrap();
                    let ss = synchronized.std_series(name).unwrap();
                    for (p, ((a, b), (da, db))) in
                        ma.iter().zip(&ms).zip(sa.iter().zip(&ss)).enumerate()
                    {
                        let tolerance = 6.0 * (da + db) / runs.sqrt() + 0.01 * n as f64;
                        prop_assert!(
                            (a - b).abs() <= tolerance,
                            "state {name} period {p}: {label} mean {a}, synchronized mean {b}, \
                             tolerance {tolerance}"
                        );
                    }
                }
            }
        }
    }

    /// LV-majority under the continuous-time fidelities: the SSA and
    /// tau-leap ensemble means track the batched tier's through the full
    /// three-state selection dynamics (the paper's default p = 0.01 keeps
    /// per-period rates deep in the shared continuous-time limit), and every
    /// fidelity selects the initial majority.
    #[test]
    fn continuous_time_lv_majority_matches_batched_ensemble_means(seed_base in 0u64..1_000) {
        let protocol = LvParams::new().protocol().unwrap();
        let n = 2_000usize;
        let split = 1_200u64; // 60/40
        let ensemble = || {
            Ensemble::of(protocol.clone())
                .scenario(Scenario::new(n, 700).unwrap())
                .initial(InitialStates::counts(&[split, n as u64 - split, 0]))
                .seeds(seed_base..seed_base + 8)
                .threads(4)
        };
        let batched = ensemble().run::<BatchedRuntime>().unwrap().mean;
        let tolerance = n as f64 * 0.15;
        for (label, result) in [
            ("ssa", ensemble().run::<SsaRuntime>().unwrap()),
            ("tau-leap", ensemble().run::<TauLeapRuntime>().unwrap()),
        ] {
            for (period, (a, b)) in result.mean.states().iter().zip(batched.states()).enumerate() {
                for state in 0..3 {
                    prop_assert!(
                        (a[state] - b[state]).abs() < tolerance,
                        "period {period} state {state}: {label} {} vs batched {}",
                        a[state], b[state]
                    );
                }
            }
            prop_assert!(result.mean.last_state()[0] > n as f64 * 0.9);
        }
        prop_assert!(batched.last_state()[0] > n as f64 * 0.9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tau-leap runtime's small-count fallback (exact SSA burst steps at
    /// the epidemic's takeoff head) is deterministic per seed: two runs of
    /// the same scenario are bit-for-bit identical, across random seeds and
    /// seed-count regimes that exercise both the leaping and fallback paths.
    #[test]
    fn tau_leap_fallback_is_deterministic_per_seed(
        seed in 0u64..1_000,
        infected in 1u64..8,
    ) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 2_000u64;
        let scenario = Scenario::new(n as usize, 80).unwrap().with_seed(seed);
        let initial = InitialStates::counts(&[n - infected, infected]);
        let run = || {
            TauLeapRuntime::new(protocol.clone())
                .run(&scenario, &initial)
                .unwrap()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Worker-process entry point for the socket-transport tests below: the
/// supervisor re-execs this test binary filtered down to this test by name.
/// In a normal test run (no `DPDE_UDS_SOCKET` in the environment) it is an
/// instant no-op.
#[test]
fn worker_entry() {
    maybe_run_worker();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The Unix-datagram-socket transport is an execution detail, not a
    /// model change: with zero loss and a single healthy local worker per
    /// run, the async runtime's ensemble means over the socket backend match
    /// the in-process broker's within the combined Welford standard-error
    /// envelopes. (The implementation actually replays the in-proc virtual
    /// outcomes bit-for-bit when workers stay healthy; the envelope is the
    /// cross-backend contract this test pins.)
    #[test]
    fn socket_backend_matches_in_proc_ensemble_means(seed_base in 0u64..1_000) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let n = 200usize;
        let link = LinkModel::new(LatencyModel::Uniform { min: 0.0, max: 10.0 }, 0.0).unwrap();
        let ensemble = |backend: TransportBackend| {
            Ensemble::of(protocol.clone())
                .scenario(
                    Scenario::new(n, 25)
                        .unwrap()
                        .with_transport(TransportConfig::new(link).with_backend(backend))
                        .unwrap(),
                )
                .initial(InitialStates::counts(&[n as u64 - 10, 10]))
                .seeds(seed_base..seed_base + 4)
                .threads(2)
                .run::<AsyncRuntime>()
                .unwrap()
        };
        let socket = ensemble(TransportBackend::UnixSocket(SocketConfig::new(
            WorkerLauncher::CurrentExeTest("worker_entry".into()),
        )));
        let in_proc = ensemble(TransportBackend::InProcess);
        let runs = 4.0f64;
        for name in ["x", "y"] {
            let ms = socket.mean_series(name).unwrap();
            let ss = socket.std_series(name).unwrap();
            let mi = in_proc.mean_series(name).unwrap();
            let si = in_proc.std_series(name).unwrap();
            for (p, ((a, b), (da, db))) in ms.iter().zip(&mi).zip(ss.iter().zip(&si)).enumerate() {
                let tolerance = 6.0 * (da + db) / runs.sqrt() + 0.01 * n as f64;
                prop_assert!(
                    (a - b).abs() <= tolerance,
                    "state {name} period {p}: socket mean {a}, in-proc mean {b}, \
                     tolerance {tolerance}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The checkpoint/restart path is deterministic per seed: a supervised
    /// run in which a worker-striking adversary repeatedly kills the densest
    /// transport segment (crash, park, period-boundary-checkpoint restore)
    /// replays bit-for-bit, and the kills demonstrably land. The in-process
    /// backend keeps the same supervision semantics as the socket transport
    /// without real process churn, which is what makes this exactly
    /// reproducible everywhere.
    #[test]
    fn supervised_kill_and_restart_is_deterministic_per_seed(seed in 0u64..1_000) {
        let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.2)
            .compile(&sys)
            .unwrap();
        let transport = TransportConfig::default()
            .with_segments(4)
            .unwrap()
            .with_supervision(3);
        let scenario = Scenario::new(400, 40)
            .unwrap()
            .with_seed(seed)
            .with_transport(transport)
            .unwrap()
            .with_adversary(
                TargetLargestState::new(0.25, 5, 10, 2)
                    .unwrap()
                    .striking_workers(),
            );
        let run = || {
            Simulation::of(protocol.clone())
                .scenario(scenario.clone())
                .initial(InitialStates::counts(&[390, 10]))
                .observe(CountsRecorder::new())
                .observe(ResilienceReport::new())
                .run::<AsyncRuntime>()
                .unwrap()
        };
        let first = run();
        let victims: f64 = first
            .metrics
            .series("resilience:victims")
            .unwrap()
            .iter()
            .map(|&(_, v)| v)
            .sum();
        prop_assert!(victims > 0.0, "the adversary's worker strikes must land");
        prop_assert_eq!(first, run());
    }
}

/// Final counts of one seeded run with only a [`CountsRecorder`] attached.
fn final_counts<R: Runtime>(protocol: &Protocol, scenario: Scenario, initial: &[u64]) -> Vec<u64> {
    let run = Simulation::of(protocol.clone())
        .scenario(scenario)
        .initial(InitialStates::counts(initial))
        .observe(CountsRecorder::new())
        .run::<R>()
        .unwrap();
    let last = run.final_counts().expect("counts recorded");
    last.iter().map(|&c| c as u64).collect()
}

fn figure1_endemic() -> EndemicParams {
    EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap()
}

/// Golden final counts, first recorded before the batched kernel merged
/// same-destination actions into one multinomial bucket. None of these
/// protocols repeats a destination within a state, so the merged kernel must
/// consume the PRNG stream draw for draw as the per-action kernel did — on
/// its own, as the hybrid runtime's middle phase (each hybrid run below
/// spends 9, 145 and 243 periods at count level between handoffs) and as
/// every shard of a sharded run.
///
/// Seven of the nine vectors were re-recorded in PR 24, which replaced the
/// Box–Muller body of `Rng::standard_normal` with a ziggurat: the three
/// batched and three sharded runs and the N = 20 000 hybrid epidemic all take
/// normal-regime binomial (and, sharded, hypergeometric) draws, whose stream
/// that PR moved once, on purpose (`netsim::stochastic`'s stream contract).
/// The hybrid endemic (N = 1 500) and hybrid LV (N = 2 000) vectors never
/// leave the exact regimes and kept their literals. The kernels' draw
/// *order* was not touched. A pin that moves again means the stream moved
/// where it must not — a bug, unless an issue says which regime moves.
#[test]
fn batched_kernel_stream_is_pinned_where_no_destination_repeats() {
    let epidemic = ProtocolCompiler::new("epidemic")
        .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
        .unwrap();
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let lv = LvParams::new().protocol().unwrap();
    let plain =
        |n: usize, periods: u64, seed: u64| Scenario::new(n, periods).unwrap().with_seed(seed);
    let sharded = |placement: Placement, periods: u64, seed: u64| {
        let shards = ShardConfig::new(4, 0.05).unwrap().with_placement(placement);
        plain(1_000_000, periods, seed).with_topology(Topology::Sharded(shards))
    };
    let endemic_eq = figure1_endemic().equilibrium_counts(1_000_000);

    assert_eq!(
        final_counts::<BatchedRuntime>(&epidemic, plain(1_000_000, 12, 11), &[999_000, 1_000]),
        [14_676, 985_324]
    );
    assert_eq!(
        final_counts::<HybridRuntime>(&epidemic, plain(20_000, 14, 12), &[19_999, 1]),
        [1_181, 18_819]
    );
    assert_eq!(
        final_counts::<ShardedRuntime>(
            &epidemic,
            sharded(Placement::Blocks, 12, 13),
            &[999_000, 1_000]
        ),
        [169_325, 830_675]
    );

    assert_eq!(
        final_counts::<BatchedRuntime>(&endemic, plain(1_000_000, 200, 21), &endemic_eq),
        [26_796, 88_620, 884_584]
    );
    assert_eq!(
        final_counts::<HybridRuntime>(
            &endemic,
            plain(1_500, 300, 22),
            &figure1_endemic().equilibrium_counts(1_500)
        ),
        [38, 137, 1_325]
    );
    assert_eq!(
        final_counts::<ShardedRuntime>(&endemic, sharded(Placement::Uniform, 200, 23), &endemic_eq),
        [27_364, 88_321, 884_315]
    );

    assert_eq!(
        final_counts::<BatchedRuntime>(&lv, plain(1_000_000, 300, 31), &[550_000, 450_000, 0]),
        [888_562, 19_648, 91_790]
    );
    assert_eq!(
        final_counts::<HybridRuntime>(&lv, plain(2_000, 300, 32), &[1_200, 800, 0]),
        [1_945, 4, 51]
    );
    assert_eq!(
        final_counts::<ShardedRuntime>(
            &lv,
            sharded(Placement::Blocks, 300, 33),
            &[550_000, 450_000, 0]
        ),
        [861_784, 26_174, 112_042]
    );
}

/// Block placement starts the first shards with a single state each, so the
/// Figure-1 push action meets receptive populations that drain within the
/// period: the kernel used to credit both the receptives' own move and the
/// push (N = 10⁷ read 10 069 954 after 25 periods). The population must be
/// conserved at every snapshot.
#[test]
fn sharded_blocks_placement_conserves_the_endemic_population() {
    let n = 10_000_000u64;
    let scenario = Scenario::new(n as usize, 500)
        .unwrap()
        .with_topology(Topology::sharded(64, 0.01).unwrap())
        .with_seed(1);
    let run = Simulation::of(figure1_endemic().figure1_protocol().unwrap())
        .scenario(scenario)
        .initial(InitialStates::counts(
            &figure1_endemic().equilibrium_counts(n),
        ))
        .observe(CountsRecorder::new())
        .run::<ShardedRuntime>()
        .unwrap();
    assert_eq!(run.counts.len(), 501);
    for (period, counts) in run.counts.iter() {
        assert_eq!(counts.iter().sum::<f64>() as u64, n, "period {period}");
    }
}

/// What a stream pin records of one run with the standard recording set: the
/// final counts, the messages of the whole run and the sum of every
/// transition series.
fn fingerprint<R: Runtime>(
    runtime: &R,
    scenario: Scenario,
    initial: &[u64],
) -> (Vec<u64>, u64, u64) {
    let run = Simulation::of(runtime.protocol().clone())
        .scenario(scenario)
        .initial(InitialStates::counts(initial))
        .run_on(runtime)
        .unwrap();
    let total = |recorder: &MetricsRecorder, name: &str| -> u64 {
        let series = recorder.series(name).unwrap();
        series.iter().map(|&(_, v)| v as u64).sum()
    };
    let counts = run.final_counts().expect("counts recorded");
    let transitions = run
        .transitions
        .series_names()
        .into_iter()
        .map(|name| total(&run.transitions, name))
        .sum();
    (
        counts.iter().map(|&c| c as u64).collect(),
        total(&run.metrics, "messages"),
        transitions,
    )
}

/// Four sharded runs whose draws cover every path a shard's counts take
/// between kernels — the per-shard crash/recovery model with a rejoin state,
/// block placement with global, shard-targeted and partition events, each
/// adversary injection the sharded tier applies at master level, and the
/// 64-shard shape of the `sharded_partition` benchmark workload. Recorded
/// before the shards became the columns of one block; the draws and their
/// order did not move with it.
#[test]
fn sharded_stream_is_pinned_on_every_boundary_path() {
    let epidemic = ProtocolCompiler::new("epidemic")
        .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
        .unwrap();
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let lv = LvParams::new().protocol().unwrap();
    let uniform = |shards: usize, migration: f64| {
        Topology::Sharded(
            ShardConfig::new(shards, migration)
                .unwrap()
                .with_placement(Placement::Uniform),
        )
    };

    // S = 4, crash/recovery in every shard, recoveries rejoin as receptive.
    let n = 400_000;
    let receptive = endemic.require_state("receptive").unwrap();
    let rejoining = ShardedRuntime::build(endemic.clone(), &RunConfig::rejoining_to(receptive));
    let scenario = Scenario::new(n, 80)
        .unwrap()
        .with_topology(uniform(4, 0.05))
        .with_failure_model(netsim::FailureModel::new(0.01, 0.05).unwrap())
        .with_seed(41);
    assert_eq!(
        fingerprint(
            &rejoining,
            scenario,
            &figure1_endemic().equilibrium_counts(n as u64)
        ),
        (vec![10_641, 64_011, 325_348], 8_888_417, 1_052_293)
    );

    // S = 8, block placement, a global massive failure, a shard failure and
    // a partition window.
    let scenario = Scenario::new(1_000_000, 60)
        .unwrap()
        .with_topology(Topology::sharded(8, 0.02).unwrap())
        .with_massive_failure(12, 0.3)
        .unwrap()
        .with_shard_massive_failure(20, 2, 0.5)
        .unwrap()
        .with_shard_partition(5, 10, 40)
        .unwrap()
        .with_seed(42);
    assert_eq!(
        fingerprint(&ShardedRuntime::new(lv), scenario, &[550_000, 450_000, 0]),
        (vec![484_908, 381_414, 133_678], 47_630_103, 271_360)
    );

    // S = 4, an adversary crashing a state, then a shard, then recovering.
    let adversary = ObliviousSchedule::new()
        .inject_at(
            6,
            Injection::CrashState {
                state: 1,
                fraction: 0.3,
            },
        )
        .unwrap()
        .inject_at(
            9,
            Injection::CrashShard {
                shard: 2,
                fraction: 0.5,
            },
        )
        .unwrap()
        .inject_at(14, Injection::RecoverUniform { fraction: 0.6 })
        .unwrap();
    let scenario = Scenario::new(400_000, 30)
        .unwrap()
        .with_topology(uniform(4, 0.1))
        .with_adversary(adversary)
        .with_seed(43);
    assert_eq!(
        fingerprint(&ShardedRuntime::new(epidemic), scenario, &[396_000, 4_000]),
        (vec![1_001, 398_999], 2_624_599, 394_999)
    );

    // The sharded_partition workload's shape at N = 10⁶.
    let n = 1_000_000;
    let scenario = Scenario::new(n, 500)
        .unwrap()
        .with_topology(uniform(64, 0.01))
        .with_shard_massive_failure(100, 3, 0.5)
        .unwrap()
        .with_shard_partition(7, 200, 300)
        .unwrap()
        .with_seed(44);
    assert_eq!(
        fingerprint(
            &ShardedRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(n as u64)
        ),
        (vec![27_671, 88_187, 884_142], 105_971_399, 13_173_645)
    );
}

/// "Recruitment by committee" with a way back: an (x, y) pair recruits an
/// undecided z into x through a token hosted by x, and x decays back into z.
fn token_protocol() -> Protocol {
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y", "z"])
        .term("x", 0.5, &[("x", 1), ("y", 1)])
        .term("z", -0.5, &[("x", 1), ("y", 1)])
        .term("x", -0.1, &[("x", 1)])
        .term("z", 0.1, &[("x", 1)])
        .build()
        .unwrap();
    ProtocolCompiler::new("token")
        .with_normalizing_constant(0.5)
        .compile(&sys)
        .unwrap()
}

/// A lossy in-process transport: exponential latency, 1 % drops, four
/// segments and a window in which segments 0 and 3 cannot talk.
fn lossy_links(scenario: Scenario) -> Scenario {
    let link = LinkModel::new(LatencyModel::Exponential { mean: 180.0 }, 0.01).unwrap();
    let transport = TransportConfig::new(link)
        .with_segments(4)
        .unwrap()
        .with_partition(0, 3, 10, 15)
        .unwrap();
    scenario.with_transport(transport).unwrap()
}

/// The per-process tiers' streams, recorded before the runtimes read one
/// compiled protocol plan: a Figure-1 push protocol, and a `Tokenize`
/// protocol under crash/recovery whose recoveries rejoin as undecided.
#[test]
fn agent_stream_is_pinned() {
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let n = 4_000;
    let scenario = Scenario::new(n, 120).unwrap().with_seed(51);
    assert_eq!(
        fingerprint(
            &AgentRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(n as u64)
        ),
        (vec![104, 352, 3_544], 100_378, 12_613)
    );

    let token = token_protocol();
    let z = token.require_state("z").unwrap();
    let scenario = Scenario::new(3_000, 80)
        .unwrap()
        .with_failure_model(netsim::FailureModel::new(0.02, 0.1).unwrap())
        .with_seed(52);
    assert_eq!(
        fingerprint(
            &AgentRuntime::build(token, &RunConfig::rejoining_to(z)),
            scenario,
            &[900, 900, 1_200]
        ),
        (vec![57, 209, 2_734], 64_880, 3_278)
    );
}

/// The async tier in process over lossy exponential links with segments and
/// a partition window, on the epidemic, the Figure-1 push protocol and the
/// `Tokenize` protocol.
#[test]
fn async_stream_is_pinned() {
    let epidemic = ProtocolCompiler::new("epidemic")
        .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
        .unwrap();
    let scenario = lossy_links(Scenario::new(2_000, 30).unwrap().with_seed(53));
    assert_eq!(
        fingerprint(&AsyncRuntime::new(epidemic), scenario, &[1_990, 10]),
        (vec![0, 2_000], 10_785, 1_990)
    );

    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let scenario = lossy_links(Scenario::new(2_000, 40).unwrap().with_seed(54));
    assert_eq!(
        fingerprint(
            &AsyncRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(2_000)
        ),
        (vec![62, 236, 1_702], 14_573, 2_074)
    );

    let scenario = lossy_links(Scenario::new(2_000, 30).unwrap().with_seed(55));
    assert_eq!(
        fingerprint(
            &AsyncRuntime::new(token_protocol()),
            scenario,
            &[600, 600, 800]
        ),
        (vec![862, 600, 538], 18_782, 2_000)
    );
}

/// The exact continuous-time tier on push channels (Figure 1) and on a
/// token channel gated on its consumer pool.
#[test]
fn ssa_stream_is_pinned() {
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let scenario = Scenario::new(3_000, 60).unwrap().with_seed(56);
    assert_eq!(
        fingerprint(
            &SsaRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(3_000)
        ),
        (vec![80, 261, 2_659], 36_346, 4_804)
    );

    let scenario = Scenario::new(1_000, 40).unwrap().with_seed(57);
    assert_eq!(
        fingerprint(
            &SsaRuntime::new(token_protocol()),
            scenario,
            &[300, 300, 400]
        ),
        (vec![697, 300, 3], 38_240, 2_431)
    );
}

/// Tau-leaping from a small seed, so the run takes both exact bursts and
/// Poisson leaps, and on the Figure-1 push channels.
#[test]
fn tau_leap_stream_is_pinned() {
    let epidemic = ProtocolCompiler::new("epidemic")
        .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
        .unwrap();
    let runtime = TauLeapRuntime::new(epidemic);
    let scenario = Scenario::new(50_000, 40).unwrap().with_seed(58);
    let initial = [49_990, 10];
    let mut state = runtime
        .init(&scenario, &InitialStates::counts(&initial))
        .unwrap();
    for _ in 0..scenario.periods() {
        runtime.step(&mut state).unwrap();
    }
    assert!(state.leaps() > 0 && state.exact_steps() > 0);
    assert_eq!(
        fingerprint(&runtime, scenario, &initial),
        (vec![0, 50_000], 426_143, 49_990)
    );

    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let scenario = Scenario::new(100_000, 30).unwrap().with_seed(59);
    assert_eq!(
        fingerprint(
            &TauLeapRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(100_000)
        ),
        (vec![2_386, 8_753, 88_861], 619_159, 81_309)
    );
}

/// The batched tier under losses, on a push protocol and a token protocol,
/// at inputs where no push or token conversion can outnumber the members
/// that stayed. Recorded on the retired aggregate kernel, which ran these
/// two streams draw for draw as the batched kernel does.
#[test]
fn lossy_count_level_stream_is_pinned() {
    let loss = LossConfig::new(0.1, 0.05).unwrap();
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let scenario = Scenario::new(100_000, 100)
        .unwrap()
        .with_seed(60)
        .with_loss(loss);
    assert_eq!(
        fingerprint(
            &BatchedRuntime::new(endemic),
            scenario,
            &figure1_endemic().equilibrium_counts(100_000)
        ),
        (vec![3_198, 8_824, 87_978], 2_203_471, 263_601)
    );

    let scenario = Scenario::new(50_000, 40)
        .unwrap()
        .with_seed(61)
        .with_loss(loss);
    assert_eq!(
        fingerprint(
            &BatchedRuntime::new(token_protocol()),
            scenario,
            &[15_000, 15_000, 20_000]
        ),
        (vec![23_094, 15_000, 11_906], 1_414_329, 82_550)
    );
}

/// Nine-state plurality (eight proposals and the undecided state): every
/// proposal state carries seven actions into the undecided state, which the
/// batched kernel merges into one multinomial bucket, and the undecided
/// state samples nine required states. Recorded before the kernel read its
/// propensities from a per-period fraction row; the row must not move it.
#[test]
fn many_state_plurality_stream_is_pinned() {
    let protocol = dpde::protocols::lv::multi::MultiLvParams::new(8)
        .unwrap()
        .protocol()
        .unwrap();
    let initial: Vec<u64> = (0..9)
        .map(|i| if i < 8 { 110_000 + 2_000 * i } else { 64_000 })
        .collect();
    let scenario = Scenario::new(1_000_000, 200).unwrap().with_seed(62);
    assert_eq!(
        fingerprint(&BatchedRuntime::new(protocol), scenario, &initial),
        (
            vec![62_467, 63_126, 64_630, 67_133, 66_046, 68_350, 69_932, 72_132, 466_184],
            1_473_299_788,
            3_216_364
        )
    );
}

/// Two-choice LV under losses: its `Sample` actions require other states,
/// so each required factor is degraded by a per-contact success rate below
/// one. Recorded before the kernel read its propensities from a per-period
/// fraction row; the row must not move it.
#[test]
fn lossy_required_state_sample_stream_is_pinned() {
    let loss = LossConfig::new(0.1, 0.05).unwrap();
    let scenario = Scenario::new(1_000_000, 300)
        .unwrap()
        .with_seed(63)
        .with_loss(loss);
    assert_eq!(
        fingerprint(
            &BatchedRuntime::new(LvParams::new().protocol().unwrap()),
            scenario,
            &[550_000, 450_000, 0]
        ),
        (vec![776_375, 53_059, 170_566], 376_136_226, 3_045_472)
    );
}

/// Every path the environment takes at a period boundary, on every tier that
/// has one: scheduled massive failures, the crash/recovery model (with a
/// rejoin state), churn, each adversary injection a tier applies, a
/// supervised worker restore, a cascade whose strategy state crosses hybrid
/// handoffs, and the block path of a count-batched ensemble. Recorded before
/// the tiers' boundary code became one environment module.
#[test]
fn environment_stream_is_pinned() {
    let epidemic = ProtocolCompiler::new("epidemic")
        .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
        .unwrap();
    let endemic = figure1_endemic().figure1_protocol().unwrap();
    let receptive = endemic.require_state("receptive").unwrap();
    let rejoining = RunConfig::rejoining_to(receptive);
    let strike_and_heal = || {
        ObliviousSchedule::new()
            .inject_at(
                6,
                Injection::CrashState {
                    state: 1,
                    fraction: 0.4,
                },
            )
            .unwrap()
            .inject_at(12, Injection::RecoverUniform { fraction: 0.5 })
            .unwrap()
    };
    let model = netsim::FailureModel::new(0.01, 0.05).unwrap();

    // Batched: a scheduled massive failure; the crash/recovery model with a
    // rejoin state; an oblivious state-targeted crash and a recovery.
    let n = 200_000;
    let equilibrium = figure1_endemic().equilibrium_counts(n as u64);
    let batched = BatchedRuntime::new(endemic.clone());
    let scenario = Scenario::new(n, 40)
        .unwrap()
        .with_massive_failure(15, 0.5)
        .unwrap()
        .with_seed(71);
    assert_eq!(
        fingerprint(&batched, scenario, &equilibrium),
        (vec![8_462, 17_190, 174_348], 1_239_142, 138_336)
    );
    let scenario = Scenario::new(n, 40)
        .unwrap()
        .with_failure_model(model)
        .with_seed(72);
    assert_eq!(
        fingerprint(
            &BatchedRuntime::build(endemic.clone(), &rejoining),
            scenario,
            &equilibrium
        ),
        (vec![5_467, 29_445, 165_088], 2_051_462, 246_781)
    );
    let scenario = Scenario::new(n, 30)
        .unwrap()
        .with_adversary(strike_and_heal())
        .with_seed(73);
    assert_eq!(
        fingerprint(&batched, scenario, &equilibrium),
        (vec![5_359, 21_060, 173_581], 1_226_448, 152_789)
    );

    // Agent: the same injections per id; a churn trace.
    let agent = AgentRuntime::build(endemic.clone(), &rejoining);
    let scenario = Scenario::new(3_000, 30)
        .unwrap()
        .with_adversary(strike_and_heal())
        .with_seed(74);
    assert_eq!(
        fingerprint(
            &agent,
            scenario,
            &figure1_endemic().equilibrium_counts(3_000)
        ),
        (vec![74, 306, 2_620], 18_102, 2_257)
    );
    let churn = SyntheticChurnConfig {
        hosts: 2_000,
        hours: 6,
        mean_availability: 0.7,
        churn_min: 0.1,
        churn_max: 0.25,
    };
    let mut rng = Rng::seed_from(75);
    let trace = churn.generate(&mut rng).unwrap();
    let scenario = Scenario::new(2_000, 60)
        .unwrap()
        .with_churn_trace(&trace, &mut rng)
        .unwrap()
        .with_seed(76);
    assert_eq!(
        fingerprint(
            &agent,
            scenario,
            &figure1_endemic().equilibrium_counts(2_000)
        ),
        (vec![57, 306, 1_637], 32_426, 3_675)
    );

    // Async in process: the failure model; a state-targeted crash and a
    // recovery; a supervised worker kill and its restore.
    let asynchronous = AsyncRuntime::build(endemic.clone(), &rejoining);
    let scenario = Scenario::new(2_000, 30)
        .unwrap()
        .with_failure_model(model)
        .with_seed(77);
    assert_eq!(
        fingerprint(
            &asynchronous,
            scenario,
            &figure1_endemic().equilibrium_counts(2_000)
        ),
        (vec![77, 244, 1_679], 13_980, 1_757)
    );
    let scenario = Scenario::new(2_000, 30)
        .unwrap()
        .with_adversary(strike_and_heal())
        .with_seed(78);
    assert_eq!(
        fingerprint(
            &asynchronous,
            scenario,
            &figure1_endemic().equilibrium_counts(2_000)
        ),
        (vec![69, 191, 1_740], 11_720, 1_452)
    );
    let supervised = TransportConfig::default()
        .with_segments(4)
        .unwrap()
        .with_supervision(3);
    let scenario = Scenario::new(400, 30)
        .unwrap()
        .with_transport(supervised)
        .unwrap()
        .with_adversary(ObliviousSchedule::new().kill_worker_at(5, 3).unwrap())
        .with_seed(79);
    assert_eq!(
        fingerprint(&AsyncRuntime::new(epidemic.clone()), scenario, &[390, 10]),
        (vec![0, 400], 1_440, 390)
    );

    // SSA and tau-leap: a massive failure plus an adversary.
    let hostile = |n: usize, seed: u64| {
        Scenario::new(n, 30)
            .unwrap()
            .with_massive_failure(8, 0.3)
            .unwrap()
            .with_adversary(strike_and_heal())
            .with_seed(seed)
    };
    assert_eq!(
        fingerprint(
            &SsaRuntime::new(endemic.clone()),
            hostile(3_000, 80),
            &figure1_endemic().equilibrium_counts(3_000)
        ),
        (vec![91, 274, 2_635], 15_870, 1_973)
    );
    assert_eq!(
        fingerprint(
            &TauLeapRuntime::new(endemic.clone()),
            hostile(100_000, 81),
            &figure1_endemic().equilibrium_counts(100_000)
        ),
        (vec![2_922, 9_755, 87_323], 528_492, 67_331)
    );

    // Hybrid: a cascade sparked at count level, its hazard carried across
    // the handoffs it causes.
    let hybrid = HybridRuntime::new(epidemic.clone());
    let cascade = Scenario::new(20_000, 40)
        .unwrap()
        .with_adversary(CascadingFailure::new(8, 0.3, 1.5, 0.5).unwrap())
        .with_seed(82);
    let initial = [19_900, 100];
    let mut state = hybrid
        .init(&cascade, &InitialStates::counts(&initial))
        .unwrap();
    for _ in 0..cascade.periods() {
        hybrid.step(&mut state).unwrap();
    }
    assert_ne!(state.handoffs(), (0, 0));
    assert_eq!(
        fingerprint(&hybrid, cascade, &initial),
        (vec![3_028, 16_972], 141_912, 16_872)
    );

    // The block path: every final-count row of a 70-seed ensemble, each row
    // folded into one number (receptive · 1 000 003 + stash; the averse
    // count is the rest of N).
    let result = Ensemble::of(endemic)
        .scenario(
            Scenario::new(100_000, 25)
                .unwrap()
                .with_massive_failure(5, 0.2)
                .unwrap()
                .with_failure_model(model)
                .with_adversary(strike_and_heal()),
        )
        .initial(InitialStates::counts(
            &figure1_endemic().equilibrium_counts(100_000),
        ))
        .seed_range(900..970)
        .run::<BatchedRuntime>()
        .unwrap();
    let rows: Vec<u64> = result
        .final_counts
        .iter()
        .map(|row| row[0] as u64 * 1_000_003 + row[1] as u64)
        .collect();
    assert_eq!(rows.len(), 70);
    assert_eq!(
        (
            rows[0],
            rows[69],
            rows.iter()
                .fold(0u64, |h, &r| h.wrapping_mul(31).wrapping_add(r))
        ),
        (2_798_018_170, 2_815_018_011, 11_906_799_712_570_948_658)
    );
}

/// The same overdraft used to hand the hybrid runtime more processes than
/// the group has at its count→membership handoff (an out-of-bounds panic):
/// an endemic outbreak from ten stashers overshoots, the receptives drain
/// while most of the group pushes at them, and the run must come through
/// conserved.
#[test]
fn hybrid_endemic_outbreak_conserves_the_population() {
    let run = Simulation::of(figure1_endemic().figure1_protocol().unwrap())
        .scenario(Scenario::new(20_000, 120).unwrap().with_seed(22))
        .initial(InitialStates::counts(&[19_990, 10, 0]))
        .observe(CountsRecorder::new())
        .run::<HybridRuntime>()
        .unwrap();
    for (period, counts) in run.counts.iter() {
        assert_eq!(counts.iter().sum::<f64>() as u64, 20_000, "period {period}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A count-batched ensemble advances its seeds in blocks of 64 columns,
    /// and column `r` of a block must be the run `BatchedRuntime` produces at
    /// the `r`-th seed: every `final_counts` row equals the final counts of a
    /// `Simulation` at that seed, for every protocol family the kernel
    /// treats differently (plain sampling, a push action, several buckets
    /// per state, repeated destinations), with and without a scheduled
    /// massive failure, a crash/recovery model and an oblivious adversary —
    /// over 70 seeds, so one full block and one partial block. A
    /// single-seed ensemble's mean *is* that run's trajectory.
    #[test]
    fn ensemble_columns_are_the_scalar_runs_of_their_seeds(
        seed_base in 0u64..1_000_000,
        hostile in any::<bool>(),
        family in 0usize..4,
    ) {
        let n = 100_000u64;
        let (protocol, initial) = match family {
            0 => (
                ProtocolCompiler::new("epidemic")
                    .compile(&parse_system("x' = -x*y\ny' = x*y", &[]).unwrap())
                    .unwrap(),
                vec![n - 100, 100],
            ),
            1 => (
                figure1_endemic().figure1_protocol().unwrap(),
                figure1_endemic().equilibrium_counts(n).to_vec(),
            ),
            2 => (LvParams::new().protocol().unwrap(), vec![55_000, 45_000, 0]),
            _ => (
                dpde::protocols::lv::multi::MultiLvParams::new(8)
                    .unwrap()
                    .protocol()
                    .unwrap(),
                (0..9).map(|i| if i < 8 { 12_000 + i } else { 3_972 }).collect(),
            ),
        };
        let mut scenario = Scenario::new(n as usize, 30).unwrap();
        if hostile {
            scenario = scenario
                .with_massive_failure(10, 0.5)
                .unwrap()
                .with_failure_model(netsim::FailureModel::new(0.01, 0.04).unwrap())
                .with_adversary(ObliviousSchedule::new().crash_uniform_at(20, 0.25).unwrap());
        }
        let ensemble = Ensemble::of(protocol.clone())
            .scenario(scenario.clone())
            .initial(InitialStates::counts(&initial))
            .seed_range(seed_base..seed_base + 70);
        let result = ensemble.run::<BatchedRuntime>().unwrap();
        prop_assert_eq!(result.runs(), 70);
        prop_assert!(result.failures.is_empty());
        let scalar = |seed: u64| {
            Simulation::of(protocol.clone())
                .scenario(scenario.clone().with_seed(seed))
                .initial(InitialStates::counts(&initial))
                .observe(CountsRecorder::new())
                .run::<BatchedRuntime>()
                .unwrap()
        };
        for (&seed, row) in result.seeds.iter().zip(&result.final_counts) {
            let run = scalar(seed);
            prop_assert_eq!(row.as_slice(), run.counts.last_state(), "seed {}", seed);
        }
        for (_, mean) in result.mean.iter() {
            prop_assert!((mean.iter().sum::<f64>() - n as f64).abs() < 1e-6);
        }
        let alone = ensemble.seeds([seed_base + 69]).run::<BatchedRuntime>().unwrap();
        prop_assert_eq!(alone.mean, scalar(seed_base + 69).counts);
    }
}

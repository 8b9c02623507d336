//! End-to-end integration tests spanning all workspace crates: equations →
//! rewriting → compilation → simulation → comparison with the analysis.

use dpde::prelude::*;

/// The full pipeline on the motivating epidemic example: parse, classify,
/// compile, run, and verify the run against the ODE and the O(log N) claim.
#[test]
fn epidemic_pipeline_from_text_to_verified_run() {
    let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
    let report = taxonomy::classify(&sys);
    assert!(report.mappable_without_tokens());

    let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
    assert_eq!(MessageComplexity::of(&protocol).worst_case(), 1);

    let n = 8_192usize;
    let scenario = Scenario::new(n, 60).unwrap().with_seed(99);
    let run = AgentRuntime::new(protocol)
        .run(&scenario, &InitialStates::counts(&[n as u64 - 1, 1]))
        .unwrap();

    // Saturation in O(log N) periods.
    let infected = run.state_series("y").unwrap();
    let saturation = infected.iter().position(|&y| y >= (n - 5) as f64);
    assert!(saturation.is_some());
    assert!((saturation.unwrap() as f64) < 3.0 * Epidemic::expected_rounds(n as u64));

    // The trajectory tracks the differential equations. With the compiler's
    // automatic normalizing constant p = 1 the protocol is a coarse (one time
    // unit per period) discretization of the ODE, so the transient carries an
    // O(p) bias; the qualitative shape and the endpoint still agree.
    let eq_report = compare_to_system(&run.as_ode_trajectory(n as f64), &sys, 0.01).unwrap();
    assert!(
        eq_report.max_abs_error < 0.3,
        "error {}",
        eq_report.max_abs_error
    );
    let final_fraction = run.final_counts().expect("counts recorded")[1] / n as f64;
    assert!(final_fraction > 0.99);
}

/// The generic driver stack end to end: one `Simulation` spec executed on
/// both runtime fidelities, and an `Ensemble` fanning 8 seeds across worker
/// threads whose mean trajectory tracks the ODE.
#[test]
fn simulation_and_ensemble_drivers_work_across_fidelities() {
    let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
    let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
    let n = 4_000usize;

    // The same builder spec, replayed at both fidelities.
    let spec = |protocol: Protocol| {
        Simulation::of(protocol)
            .scenario(Scenario::new(n, 40).unwrap().with_seed(6))
            .initial(InitialStates::counts(&[n as u64 - 4, 4]))
            .observe(CountsRecorder::new())
    };
    let agent = spec(protocol.clone()).run::<AgentRuntime>().unwrap();
    let aggregate = spec(protocol.clone()).run::<AggregateRuntime>().unwrap();
    for run in [&agent, &aggregate] {
        assert!(run.final_counts().unwrap()[1] > 0.99 * n as f64);
        // Opt-in recording: only counts were requested.
        assert!(run.metrics.series_names().is_empty());
        assert!(run.tracked_members.is_empty());
    }

    // Ensemble of 8 seeds across threads: the mean trajectory tracks the ODE.
    let ensemble = Ensemble::of(protocol)
        .scenario(Scenario::new(n, 40).unwrap())
        .initial(InitialStates::counts(&[n as u64 - 4, 4]))
        .seed_range(0..8)
        .threads(4)
        .run::<AgentRuntime>()
        .unwrap();
    assert_eq!(ensemble.runs(), 8);
    assert!(ensemble.threads_used > 1);
    let report = compare_to_system(&ensemble.mean_as_ode_trajectory(n as f64), &sys, 0.01).unwrap();
    assert!(report.max_abs_error < 0.3, "error {}", report.max_abs_error);
}

/// Both drivers make the one tier decision: for every row of the tier
/// policy, a `Simulation` with no observers selects what an `Ensemble` of the
/// same builder inputs selects.
#[test]
fn simulation_and_ensemble_select_the_same_tier() {
    use ErrorBudget::{Bounded, Exact, Fast};
    let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
    let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
    let plain = || Scenario::new(10_000, 10).unwrap();
    let sharded = || Topology::sharded(4, 0.01).unwrap();
    let mut schedule = FailureSchedule::new();
    schedule.add(1, netsim::FailureEvent::Crash(netsim::ProcessId(0)));
    let per_id = plain().with_failure_schedule(schedule).unwrap();
    let transported = plain().with_transport(TransportConfig::default()).unwrap();
    let large: &[u64] = &[5_000, 5_000];
    let small: &[u64] = &[9_999, 1];
    let rows = [
        (None, None, large, Fast, FidelityTier::Batched),
        (Some(plain()), None, large, Fast, FidelityTier::Batched),
        (Some(plain()), None, small, Fast, FidelityTier::Hybrid),
        (Some(per_id), None, large, Exact, FidelityTier::Agent),
        (
            Some(plain()),
            Some(sharded()),
            small,
            Bounded(0.05),
            FidelityTier::Sharded,
        ),
        (
            Some(plain().with_topology(sharded())),
            Some(Topology::WellMixed),
            large,
            Fast,
            FidelityTier::Batched,
        ),
        (Some(transported), None, small, Exact, FidelityTier::Async),
        (Some(plain()), None, small, Exact, FidelityTier::Ssa),
        (
            Some(plain()),
            None,
            large,
            Bounded(0.05),
            FidelityTier::TauLeap,
        ),
    ];
    for (scenario, topology, counts, budget, tier) in rows {
        let mut simulation = Simulation::of(protocol.clone())
            .initial(InitialStates::counts(counts))
            .error_budget(budget);
        let mut ensemble = Ensemble::of(protocol.clone())
            .initial(InitialStates::counts(counts))
            .error_budget(budget);
        if let Some(scenario) = scenario {
            simulation = simulation.scenario(scenario.clone());
            ensemble = ensemble.scenario(scenario);
        }
        if let Some(topology) = topology {
            simulation = simulation.topology(topology);
            ensemble = ensemble.topology(topology);
        }
        assert_eq!(simulation.selected_tier(), tier, "{simulation:?}");
        assert_eq!(ensemble.selected_tier(), tier, "{ensemble:?}");
    }
}

/// An ensemble on the async tier is, seed by seed, the runs
/// `Simulation::run_auto` makes of the same scenario at those seeds.
#[test]
fn a_transport_ensemble_is_its_simulations_seed_by_seed() {
    let sys = parse_system("x' = -x*y\ny' = x*y", &[]).unwrap();
    let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
    let scenario = Scenario::new(400, 8)
        .unwrap()
        .with_transport(TransportConfig::default())
        .unwrap();
    let initial = InitialStates::counts(&[390, 10]);
    let ensemble = Ensemble::of(protocol.clone())
        .scenario(scenario.clone())
        .initial(initial.clone())
        .seeds([3, 4])
        .threads(2);
    assert_eq!(ensemble.selected_tier(), FidelityTier::Async);
    let result = ensemble.run_auto().unwrap();
    assert_eq!(result.seeds, [3, 4]);
    for (seed, finals) in [3, 4].into_iter().zip(&result.final_counts) {
        let run = Simulation::of(protocol.clone())
            .scenario(scenario.clone().with_seed(seed))
            .initial(initial.clone())
            .observe(CountsRecorder::new())
            .run_auto()
            .unwrap();
        assert_eq!(run.final_counts().unwrap(), &finals[..], "seed {seed}");
    }
}

/// The LV rewrite chain of Section 4.2.1: original → completed → rewritten →
/// compiled protocol, all agreeing on the simplex, and the protocol picking
/// the initial majority.
#[test]
fn lv_rewrite_chain_and_majority_outcome() {
    let params = LvParams::new();
    let original = params.original_equations();
    let completed = rewrite::complete(&original, "z").unwrap();
    let rewritten = params.rewritten_equations();

    assert!(!taxonomy::is_complete(&original));
    assert!(taxonomy::is_complete(&completed));
    assert!(taxonomy::classify(&rewritten).mappable_without_tokens());

    // The rewritten system equals the completed system on the simplex.
    for state in [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.34, 0.33, 0.33]] {
        let a = completed.eval_rhs(&state);
        let b = rewritten.eval_rhs(&state);
        for (ai, bi) in a.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-9);
        }
    }

    // Majority selection picks the initial majority.
    let selector = MajoritySelection::new(params);
    let scenario = Scenario::new(3_000, 700).unwrap().with_seed(5);
    let outcome = selector.run(&scenario, 1_000, 2_000).unwrap();
    assert_eq!(outcome.decision, Decision::One);
    assert!(outcome.correct);
}

/// Endemic replication keeps an object alive through a massive failure, with
/// the observed equilibrium matching the closed-form analysis (Figures 5 & 7
/// in miniature).
#[test]
fn endemic_replication_survives_massive_failure_and_matches_analysis() {
    let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
    let n = 2_000usize;
    let store = MigratoryStore::new(params).unwrap();
    let scenario = Scenario::new(n, 500)
        .unwrap()
        .with_massive_failure(250, 0.5)
        .unwrap()
        .with_seed(12);
    let report = store.run_from_equilibrium(&scenario).unwrap();
    assert!(report.object_survived);

    // Before the failure the stasher count sits near the analytical value.
    let stashers = report.run.state_series("stash").unwrap();
    let expected = params.expected_stashers(n as f64);
    let pre: f64 = stashers[150..250].iter().sum::<f64>() / 100.0;
    assert!(
        (pre - expected).abs() < 0.3 * expected,
        "pre {pre} vs analysis {expected}"
    );

    // After the failure, half the contacts are fruitless: the receptive count
    // stays roughly the same while stashers drop by about half (the paper's
    // explanation of Figure 5).
    let post: f64 = stashers[450..].iter().sum::<f64>() / (stashers.len() - 450) as f64;
    assert!(
        post < 0.75 * pre,
        "post {post} should be well below pre {pre}"
    );
    assert!(
        post > 0.2 * pre,
        "object population should not collapse, post {post}"
    );
}

/// The hybrid tier is as cheap as the batched one when every population is
/// large: started at the endemic equilibrium at N = 10⁵ (≈ 2 500 receptives,
/// the smallest population), it never leaves count level and never hands off.
#[test]
fn endemic_equilibrium_keeps_hybrid_at_count_level() {
    use dpde::core::runtime::HybridFidelity;

    let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
    let protocol = params.figure1_protocol().unwrap();
    let scenario = Scenario::new(100_000, 30).unwrap().with_seed(7);
    let runtime = HybridRuntime::new(protocol);
    let mut state = runtime
        .init(
            &scenario,
            &InitialStates::counts(&params.equilibrium_counts(100_000)),
        )
        .unwrap();
    assert_eq!(state.fidelity(), HybridFidelity::CountLevel);
    for period in 0..30 {
        runtime.step(&mut state).unwrap();
        assert_eq!(
            state.fidelity(),
            HybridFidelity::CountLevel,
            "left count level at period {period}"
        );
    }
    assert_eq!(state.handoffs(), (0, 0));
}

/// Churn from a synthetic Overnet-like trace (Figures 9 & 10 in miniature):
/// the stasher population and flux stay stable under 10–25 % hourly churn.
#[test]
fn endemic_replication_is_churn_resistant() {
    let params = EndemicParams::from_contact_count(8, 0.1, 0.02).unwrap();
    let n = 1_000usize;
    let churn_cfg = SyntheticChurnConfig {
        hosts: n,
        hours: 30,
        mean_availability: 0.7,
        churn_min: 0.10,
        churn_max: 0.25,
    };
    let mut rng = Rng::seed_from(77);
    let trace = churn_cfg.generate(&mut rng).unwrap();
    let periods = dpde::netsim::PERIODS_PER_HOUR * trace.hours() as u64;
    let scenario = Scenario::new(n, periods)
        .unwrap()
        .with_churn_trace(&trace, &mut rng)
        .unwrap()
        .with_seed(78);

    let store = MigratoryStore::new(params).unwrap();
    let report = store.run_from_equilibrium(&scenario).unwrap();
    assert!(report.object_survived, "the object must survive churn");

    // The stasher count stays within a band around the (availability-adjusted)
    // equilibrium over the second half of the run.
    let stashers = report.run.state_series("stash").unwrap();
    let half = stashers.len() / 2;
    let mean = stashers[half..].iter().sum::<f64>() / (stashers.len() - half) as f64;
    let alive_equilibrium = params.expected_stashers(0.7 * n as f64);
    assert!(
        mean > 0.3 * alive_equilibrium && mean < 2.0 * alive_equilibrium,
        "mean stashers {mean} vs availability-adjusted equilibrium {alive_equilibrium}"
    );
}

/// The compiler's failure compensation (Section 3) restores the intended
/// equilibrium on a lossy network.
#[test]
fn failure_compensation_restores_equilibrium_under_losses() {
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y", "z"])
        .term("x", -0.8, &[("x", 1), ("y", 1)])
        .term("x", 0.02, &[("z", 1)])
        .term("y", 0.8, &[("x", 1), ("y", 1)])
        .term("y", -0.1, &[("y", 1)])
        .term("z", 0.1, &[("y", 1)])
        .term("z", -0.02, &[("z", 1)])
        .build()
        .unwrap();
    let loss = LossConfig::new(0.3, 0.0).unwrap();
    let f = loss.effective_contact_failure(1);
    let n = 50_000u64;
    // Expected equilibrium receptive fraction without losses: γ/β = 0.125.
    let initial = InitialStates::fractions(&[0.125, 0.15, 0.725]);

    let naive = ProtocolCompiler::new("naive").compile(&sys).unwrap();
    let compensated = ProtocolCompiler::new("compensated")
        .with_failure_compensation(f)
        .compile(&sys)
        .unwrap();

    let run = |protocol| {
        AggregateRuntime::new(protocol)
            .with_loss(loss)
            .run(n, 3_000, &initial, 31)
            .unwrap()
    };
    let naive_run = run(naive);
    let comp_run = run(compensated);

    let tail_mean = |r: &RunResult| {
        let xs = r.state_series("x").unwrap();
        xs[2_000..].iter().sum::<f64>() / (xs.len() - 2_000) as f64
    };
    let target = 0.125 * n as f64;
    let naive_x = tail_mean(&naive_run);
    let comp_x = tail_mean(&comp_run);
    // Without compensation the receptive population overshoots the target
    // (fewer successful contacts); with compensation it comes back to it.
    assert!(naive_x > 1.2 * target, "naive {naive_x} vs target {target}");
    assert!(
        (comp_x - target).abs() < 0.15 * target,
        "compensated {comp_x} vs target {target}"
    );
}

/// Tokenizing end to end: a polynomial (but not restricted) system still
/// compiles and its protocol tracks the equations.
#[test]
fn tokenizing_protocol_tracks_equations() {
    // "Recruitment by committee": an (x, y) pair recruits an undecided z into
    // x. The z equation loses mass through a term that does not contain z, so
    // the compiler must emit a Tokenizing action (hosted by x, consuming a z).
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y", "z"])
        .term("x", 0.5, &[("x", 1), ("y", 1)])
        .term("z", -0.5, &[("x", 1), ("y", 1)])
        .build()
        .unwrap();
    let report = taxonomy::classify(&sys);
    assert!(report.mappable());
    assert!(!report.mappable_without_tokens());

    let protocol = ProtocolCompiler::new("token")
        .with_normalizing_constant(0.05)
        .compile(&sys)
        .unwrap();
    // Compare over a horizon on which the ODE keeps z positive (the ODE has no
    // positivity constraint, while the protocol drops tokens once no z-process
    // remains — exactly the divergence Section 6's "Limitations of Tokenizing"
    // warns about). 80 periods × p = 4 ODE time units keeps z well above 0.
    let n = 100_000u64;
    let run = AggregateRuntime::new(protocol)
        .run(n, 80, &InitialStates::fractions(&[0.3, 0.3, 0.4]), 13)
        .unwrap();
    // z drains into x while y stays put.
    let last = run.final_counts().expect("counts recorded");
    assert!(last[2] < 0.22 * n as f64, "z should drain, got {}", last[2]);
    assert!(last[0] > 0.45 * n as f64, "x should grow, got {}", last[0]);
    assert!((last[1] - 0.3 * n as f64).abs() < 0.01 * n as f64);
    let eq_report = compare_to_system(&run.as_ode_trajectory(n as f64), &sys, 0.01).unwrap();
    assert!(
        eq_report.max_abs_error < 0.05,
        "error {}",
        eq_report.max_abs_error
    );
}

/// The generic analysis machinery reproduces the paper's Theorem 3 and
/// Theorem 4 statements.
#[test]
fn analysis_reproduces_paper_theorems() {
    // Theorem 3 for the Figure 2 parameters.
    let endemic = EndemicParams::new(4.0, 1.0, 0.01).unwrap();
    assert!(endemic.endemic_equilibrium_is_stable());
    assert!(endemic.is_stable_spiral().unwrap());
    let trivial = analyze_equilibrium(&endemic.equations(), &[1.0, 0.0, 0.0]).unwrap();
    assert_eq!(trivial.classification_reduced, Stability::Saddle);

    // Theorem 4 for the LV system.
    let lv = LvParams::new();
    let classes = lv.classify_equilibria().unwrap();
    assert_eq!(classes[0], Stability::UnstableNode);
    assert_eq!(classes[1], Stability::StableNode);
    assert_eq!(classes[2], Stability::StableNode);
    assert_eq!(classes[3], Stability::Saddle);
}

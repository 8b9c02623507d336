//! Quickstart: write differential equations, compile them into a distributed
//! protocol, run the protocol in simulation, and check that the run tracks
//! the equations (the paper's Theorem 1, measured).
//!
//! Run with `cargo run --release --example quickstart`.

use dpde::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The epidemic equations of the paper's motivating example:
    //    ẋ = −xy (susceptible), ẏ = xy (infected).
    let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
    println!("source equations:\n{sys}\n");

    // The taxonomy tells us which mapping rules apply.
    let report = taxonomy::classify(&sys);
    println!(
        "polynomial: {}, complete: {}, completely partitionable: {}, restricted: {}",
        report.polynomial,
        report.complete,
        report.completely_partitionable,
        report.restricted_polynomial
    );

    // 2. Compile the equations into a protocol state machine.
    let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
    println!("\n{}", protocol.render());

    // Message complexity: susceptible processes send one sampling message per
    // protocol period; infected processes send none.
    let mc = MessageComplexity::of(&protocol);
    println!(
        "worst-case messages per process per period: {}",
        mc.worst_case()
    );

    // 3. Run the protocol on 10 000 simulated processes, one initial
    //    infective. The Simulation builder records only what we observe;
    //    swapping `AgentRuntime` for `BatchedRuntime` replays the same
    //    experiment at count-level fidelity.
    let n = 10_000usize;
    let result = Simulation::of(protocol.clone())
        .scenario(Scenario::new(n, 40)?.with_seed(42))
        .initial(InitialStates::counts(&[n as u64 - 1, 1]))
        .observe(CountsRecorder::new())
        .run::<AgentRuntime>()?;

    println!("\nperiod  susceptible  infected");
    for (t, state) in result.counts.iter().step_by(4) {
        println!("{t:>6}  {:>11}  {:>8}", state[0], state[1]);
    }

    // 4. Compare the run against a numerical integration of the equations.
    let report = compare_to_system(&result.as_ode_trajectory(n as f64), &sys, 0.01)?;
    println!(
        "\nprotocol vs ODE: max deviation {:.4}, mean deviation {:.4} (fractions)",
        report.max_abs_error, report.mean_abs_error
    );

    // 4b. The same experiment at one million processes. `run_auto` picks the
    //     fastest trustworthy fidelity: here the single initial infective is
    //     a small count, so it selects the hybrid runtime — per-process
    //     while the infected population is tiny, count-batched (cost
    //     independent of N) once every population is large — and the run
    //     still takes milliseconds.
    let big_n = 1_000_000usize;
    let big = Simulation::of(protocol.clone())
        .scenario(Scenario::new(big_n, 40)?.with_seed(42))
        .initial(InitialStates::counts(&[big_n as u64 - 1, 1]))
        .observe(CountsRecorder::new())
        .run_auto()?;
    println!(
        "batched at N = 10^6: {} of 10^6 infected after 40 periods",
        big.final_counts().expect("counts recorded")[1]
    );

    // 5. The analysis toolbox works on the same equations: the all-infected
    //    point (0, 1) is the stable outcome.
    let stability = analyze_equilibrium(&sys, &[0.0, 1.0])?;
    println!("equilibrium (0, 1) is {}", stability.classification_reduced);
    Ok(())
}

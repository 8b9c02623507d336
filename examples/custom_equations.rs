//! Designing a brand-new protocol from your own differential equations.
//!
//! This example walks the full framework: start from equations that are *not*
//! in mappable form, rewrite them (completion + constant expansion), compile
//! with failure compensation for a lossy network, analyse the equilibria, and
//! validate the running protocol against the equations.
//!
//! The model: a "task heat" system where busy workers recruit idle workers
//! (like an epidemic) but also cool down spontaneously, and a fraction of the
//! group is permanently resting.
//!
//! Run with `cargo run --release --example custom_equations`.

use dpde::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write the raw two-variable model: busy (b) and resting (r) workers.
    //    ḃ = k·b·(1 − b − r) − c·b     (recruitment minus cool-down)
    //    ṙ = c·b − a·r                 (cool-down feeds resting, resting wakes up)
    // The remaining fraction 1 − b − r is idle.
    let raw = parse_system(
        "b' = k*b - k*b^2 - k*b*r - c*b\n\
         r' = c*b - a*r",
        &[("k", 2.0), ("c", 0.25), ("a", 0.05)],
    )?;
    println!("raw equations:\n{raw}\n");
    println!("complete? {}", taxonomy::is_complete(&raw));

    // 2. Rewrite into mappable form: add the idle state explicitly so the
    //    right-hand sides sum to zero.
    let completed = rewrite::complete(&raw, "idle")?;
    let report = taxonomy::classify(&completed);
    println!(
        "after completion: complete = {}, completely partitionable = {}, restricted = {}",
        report.complete, report.completely_partitionable, report.restricted_polynomial
    );

    // 3. Compile — on a lossy network, asking the compiler to compensate for a
    //    10 % per-contact failure rate (Section 3, "The Effect of Failures").
    let lossy = LossConfig::new(0.1, 0.0)?;
    let protocol = ProtocolCompiler::new("task-heat")
        .with_failure_compensation(lossy.effective_contact_failure(1))
        .compile(&completed)?;
    println!("\n{}", protocol.render());

    // 4. Analyse: find all equilibria on the simplex and classify them.
    let finder = EquilibriumFinder::new();
    println!("equilibria of the completed system:");
    for eq in finder.search_simplex(&completed, 8) {
        let stability = analyze_equilibrium(&completed, &eq)?;
        println!(
            "  ({:.3}, {:.3}, {:.3})  →  {}",
            eq[0], eq[1], eq[2], stability.classification_reduced
        );
    }

    // 5. Run the protocol over the lossy network and compare against the
    //    ODE. The batched runtime picks the loss model up from the
    //    scenario; the count-level fidelity makes the 2000-period run cheap.
    let n = 20_000u64;
    let result = Simulation::of(protocol)
        .scenario(
            Scenario::new(n as usize, 2_000)?
                .with_seed(7)
                .with_loss(lossy),
        )
        .initial(InitialStates::fractions(&[0.05, 0.0, 0.95]))
        .observe(CountsRecorder::new())
        .run::<BatchedRuntime>()?;
    let report = compare_to_system(&result.as_ode_trajectory(n as f64), &completed, 0.05)?;
    println!(
        "\nprotocol vs ODE over 2000 periods: max deviation {:.4}, mean {:.4}",
        report.max_abs_error, report.mean_abs_error
    );
    let last = result.final_counts().expect("counts recorded");
    println!(
        "final populations: busy = {}, resting = {}, idle = {}",
        last[0], last[1], last[2]
    );
    Ok(())
}

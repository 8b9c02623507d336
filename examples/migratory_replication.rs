//! Case study I: migratory replication of a file with the endemic protocol
//! (Section 4.1 of the paper).
//!
//! A 2 000-host persistent store keeps one file alive by letting replicas
//! wander: stashers delete the file after a while (γ), averse hosts become
//! receptive again (α), receptive hosts fetch the file when they contact a
//! stasher (b contacts per period), and stashers push it onto receptive
//! contacts. Halfway through the run, half of the hosts crash.
//!
//! Run with `cargo run --release --example migratory_replication`.

use dpde::prelude::*;
use dpde::protocols::endemic::{analysis, STASH};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parameters in the style of the paper's Figure 5 (scaled down so the
    // example finishes in seconds): b = 2 contacts per period, γ = 0.05,
    // α = 0.002.
    let params = EndemicParams::from_contact_count(2, 0.05, 0.002)?;
    let n = 2_000usize;
    let periods = 800u64;

    println!(
        "endemic parameters: β = {}, γ = {}, α = {}",
        params.beta, params.gamma, params.alpha
    );
    let eq = params.equilibria(n as f64);
    println!(
        "analysis: equilibrium (receptive, stash, averse) = ({:.1}, {:.1}, {:.1})",
        eq.endemic[0], eq.endemic[1], eq.endemic[2]
    );
    println!(
        "Theorem 3: endemic equilibrium stable? {} (stable spiral: {})",
        params.endemic_equilibrium_is_stable(),
        params.is_stable_spiral()?
    );

    // Longevity estimate (probabilistic safety).
    let longevity = analysis::longevity(eq.endemic[1], 360.0);
    println!(
        "probability that all replicas vanish before new ones appear: {:.3e}; expected object lifetime {:.3e} years",
        longevity.extinction_probability, longevity.expected_years
    );

    // Run the protocol, crashing 50 % of the hosts at the halfway point.
    let store = MigratoryStore::new(params)?.with_stasher_tracking();
    let scenario = Scenario::new(n, periods)?
        .with_massive_failure(periods / 2, 0.5)?
        .with_seed(2024);
    let report = store.run_from_equilibrium(&scenario)?;

    println!("\nperiod  alive  stashers  flux(receptive->stash)");
    let stashers = report.run.state_series(STASH)?;
    for t in (0..=periods).step_by(80) {
        let alive = report
            .run
            .metrics
            .series("alive")?
            .iter()
            .find(|(p, _)| *p == t)
            .map_or(0.0, |(_, v)| *v);
        let flux = report
            .run
            .transitions
            .series("receptive->stash")
            .ok()
            .and_then(|s| s.iter().find(|(p, _)| *p == t).map(|(_, v)| *v))
            .unwrap_or(0.0);
        println!("{t:>6}  {alive:>5}  {:>8}  {flux:>6}", stashers[t as usize]);
    }

    println!(
        "\nobject survived the whole run: {}",
        report.object_survived
    );
    println!("mean stashers (second half): {:.1}", report.mean_stashers);
    println!(
        "mean file flux per period (second half): {:.2}",
        report.mean_flux
    );
    println!(
        "replica untraceability: mean consecutive Jaccard similarity {:.3} (1 = static placement)",
        report.mean_consecutive_jaccard.unwrap_or(1.0)
    );
    println!(
        "load balancing: coefficient of variation of per-host stash time {:.3}",
        report.load_balance_cv.unwrap_or(0.0)
    );

    // The same protocol replayed at count-level fidelity through the generic
    // Simulation driver: no host identity (so no failure modelling), but
    // orders of magnitude faster — handy for parameter sweeps before paying
    // for the agent-level run.
    let mut counts = [
        eq.endemic[0].round() as u64,
        eq.endemic[1].round().max(1.0) as u64,
        0,
    ];
    counts[2] = n as u64 - counts[0] - counts[1];
    let fast = Simulation::of(params.figure1_protocol()?)
        .scenario(Scenario::new(n, periods)?.with_seed(7))
        .initial(InitialStates::counts(&counts))
        .observe(CountsRecorder::new())
        .run::<BatchedRuntime>()?;
    println!(
        "\naggregate-fidelity cross-check (no failures): final stasher count {:.0}",
        fast.state_series(STASH)?.last().unwrap()
    );
    Ok(())
}

//! Figure 9: effect of host churn (A) — state populations stay stable.
//!
//! N = 2000 hosts, b = 32, γ = 0.1, α = 0.005, 6-minute protocol periods,
//! hourly churn of 10–25 % of the system injected from a synthetic
//! Overnet-like availability trace (the real traces are not redistributable;
//! the generator matches the statistics the paper quotes). The numbers of
//! stashers, receptives and averse hosts remain stable, and the number of
//! stashers stays low.

use dpde_bench::{
    banner, churn_scenario, compare_line, run_endemic, scale_from_args, scaled, ENDEMIC_SERIES,
};
use dpde_protocols::endemic::{EndemicParams, STASH};

fn main() {
    let scale = scale_from_args();
    banner(
        "Figure 9",
        "endemic protocol under host churn: state populations",
        scale,
    );

    let n = scaled(2_000, scale, 500) as usize;
    let hours = scaled(170, scale.max(0.2), 40) as usize;
    let window_hours = 20.min(hours / 2);
    let params = EndemicParams::from_contact_count(32, 0.1, 0.005).expect("valid parameters");

    let scenario = churn_scenario(n, hours, 99);
    let periods_per_hour = netsim::PERIODS_PER_HOUR;
    let result = run_endemic(params, &scenario, false);

    // Print the populations for the final `window_hours` hours (the paper
    // shows hours 150–170).
    println!("hour,Stash:Alive,Rcptv:Alive,Avers:Alive,alive");
    let start_period = (hours - window_hours) as u64 * periods_per_hour;
    let receptives = result.run.state_series(ENDEMIC_SERIES[0]).unwrap();
    let stashers = result.run.state_series(ENDEMIC_SERIES[1]).unwrap();
    let averse = result.run.state_series(ENDEMIC_SERIES[2]).unwrap();
    let alive = result.run.metrics.series("alive").unwrap();
    for p in (start_period..scenario.periods()).step_by(1) {
        let i = p as usize;
        let hour = p as f64 / periods_per_hour as f64;
        let alive_now = alive
            .iter()
            .find(|(ap, _)| *ap == p)
            .map_or(0.0, |(_, v)| *v);
        println!(
            "{hour:.1},{},{},{},{alive_now}",
            stashers[i], receptives[i], averse[i]
        );
    }

    // Stability summary over the window.
    let spread = |s: &[f64]| {
        let tail = &s[start_period as usize..];
        let m = tail.iter().sum::<f64>() / tail.len() as f64;
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        (m, min, max)
    };
    let (sm, smin, smax) = spread(&stashers);
    let (rm, _, _) = spread(&receptives);
    let (am, _, _) = spread(&averse);

    println!("\n== summary ==");
    compare_line(
        "stasher population stays stable and low under churn",
        "stable, low",
        &format!("mean {sm:.0} (min {smin:.0}, max {smax:.0}) of {n} hosts"),
    );
    compare_line(
        "receptive and averse populations remain stable",
        "stable",
        &format!("receptive mean {rm:.0}, averse mean {am:.0}"),
    );
    compare_line(
        "object survives the whole run",
        "yes",
        if result
            .run
            .state_series(STASH)
            .unwrap()
            .iter()
            .all(|&v| v > 0.0)
        {
            "yes"
        } else {
            "no"
        },
    );
}

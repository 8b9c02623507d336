//! Shared machinery for the experiment harness.
//!
//! Every figure of the paper's evaluation (Figures 2, 4–12) and every in-text
//! numerical claim has a binary in `src/bin/` that regenerates the
//! corresponding series or table on stdout (CSV-ish, ready for plotting), plus
//! a `== summary ==` section comparing the paper's reported values with the
//! measured ones. Timing lives in the separate `benchmark/` package, not here.
//!
//! All binaries accept `--scale <f>` (or the `DPDE_SCALE` environment
//! variable) to rescale the group sizes and horizons by a factor: `< 1`
//! shrinks everything so the full suite can be smoke-tested quickly, `> 1`
//! upscales beyond the paper's dimensions for stress runs, and the default
//! `--scale 1` reproduces the paper's dimensions. Malformed values abort the
//! run with an error instead of being silently ignored.

use dpde_core::runtime::{
    AgentRuntime, AliveTracker, CountsRecorder, InitialStates, MembershipTracker, MessageCounter,
    RunResult, Simulation, TransitionRecorder,
};
use dpde_core::Protocol;
use dpde_protocols::endemic::{EndemicParams, AVERSE, RECEPTIVE, STASH};
use dpde_protocols::lv::{LvParams, STATE_X, STATE_Y, STATE_Z};
use netsim::{Rng, Scenario, SyntheticChurnConfig};

/// Parses a scale factor from command-line arguments and an optional
/// `DPDE_SCALE` environment value (the `--scale` flag wins when both are
/// given).
///
/// # Errors
///
/// Returns a human-readable message when a value is missing, unparseable,
/// non-finite or not strictly positive — the harness treats a typoed scale
/// as fatal rather than silently running at the paper's full dimensions.
pub fn parse_scale<I>(args: I, env: Option<&str>) -> Result<f64, String>
where
    I: IntoIterator<Item = String>,
{
    let mut scale: Option<f64> = None;
    let args: Vec<String> = args.into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scale" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| "--scale expects a value".to_string())?;
            scale = Some(
                value
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --scale value `{value}`"))?,
            );
            i += 1;
        }
        i += 1;
    }
    // The flag wins outright: the environment is only consulted (and hence
    // only validated) when no --scale flag was given.
    if scale.is_none() {
        if let Some(v) = env {
            scale = Some(
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid DPDE_SCALE value `{v}`"))?,
            );
        }
    }
    let s = scale.unwrap_or(1.0);
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("scale must be positive and finite, got {s}"))
    }
}

/// Parses the `--scale` argument / `DPDE_SCALE` environment variable of the
/// current process, exiting with a diagnostic on malformed input.
///
/// The scale multiplies group sizes and horizons (clamped to sensible minima
/// by the callers). `1.0` reproduces the paper's dimensions; values above 1
/// upscale for stress runs.
pub fn scale_from_args() -> f64 {
    let env = std::env::var("DPDE_SCALE").ok();
    match parse_scale(std::env::args().skip(1), env.as_deref()) {
        Ok(scale) => scale,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

/// Applies a scale factor to a paper-sized quantity, keeping a minimum.
pub fn scaled(value: u64, scale: f64, min: u64) -> u64 {
    ((value as f64 * scale).round() as u64).max(min)
}

/// Prints one paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: &str) {
    println!("{label:<58} paper: {paper:<18} measured: {measured}");
}

/// Standard experiment header.
pub fn banner(figure: &str, description: &str, scale: f64) {
    println!("# {figure} — {description}");
    if (scale - 1.0).abs() > f64::EPSILON {
        println!("# running at scale {scale} of the paper's dimensions");
    }
    println!();
}

/// Result of one endemic-protocol experiment plus the settings it ran with.
#[derive(Debug)]
pub struct EndemicRun {
    /// The protocol parameters used.
    pub params: EndemicParams,
    /// Group size.
    pub n: usize,
    /// The raw run output.
    pub run: RunResult,
}

/// The observer set the endemic figures need: alive-only populations,
/// transition series, alive counts and message counts, plus (optionally)
/// stasher-set snapshots.
fn endemic_simulation(protocol: Protocol, scenario: &Scenario, track_stashers: bool) -> Simulation {
    let receptive = protocol.require_state(RECEPTIVE).expect("state exists");
    let stash = protocol.require_state(STASH).expect("state exists");
    let mut sim = Simulation::of(protocol)
        .scenario(scenario.clone())
        .rejoin_state(receptive)
        .observe(CountsRecorder::alive_only())
        .observe(TransitionRecorder::new())
        .observe(AliveTracker::new())
        .observe(MessageCounter::new());
    if track_stashers {
        sim = sim.observe(MembershipTracker::of(stash));
    }
    sim
}

/// Runs the Figure 1 endemic protocol from its analytical equilibrium under
/// the given scenario.
pub fn run_endemic(params: EndemicParams, scenario: &Scenario, track_stashers: bool) -> EndemicRun {
    let protocol = params.figure1_protocol().expect("valid endemic parameters");
    let n = scenario.group_size();
    let eq = params.equilibria(n as f64).endemic;
    let mut counts = [eq[0].round() as u64, eq[1].round().max(1.0) as u64, 0];
    counts[2] = n as u64 - counts[0] - counts[1];
    let run = endemic_simulation(protocol, scenario, track_stashers)
        .initial(InitialStates::counts(&counts))
        .run::<AgentRuntime>()
        .expect("endemic run");
    EndemicRun { params, n, run }
}

/// Runs the endemic protocol from an arbitrary `[receptive, stash, averse]`
/// distribution.
pub fn run_endemic_from(
    params: EndemicParams,
    scenario: &Scenario,
    counts: &[u64; 3],
) -> EndemicRun {
    let protocol = params.figure1_protocol().expect("valid endemic parameters");
    let run = endemic_simulation(protocol, scenario, false)
        .initial(InitialStates::counts(counts))
        .run::<AgentRuntime>()
        .expect("endemic run");
    EndemicRun {
        params,
        n: scenario.group_size(),
        run,
    }
}

/// Runs the LV protocol from a given `(x, y, z)` split. Counts report alive
/// processes only, so runs with massive failures (Figure 12) show the
/// surviving population converging.
pub fn run_lv(params: LvParams, scenario: &Scenario, counts: &[u64; 3]) -> RunResult {
    let protocol: Protocol = params.protocol().expect("valid LV parameters");
    Simulation::of(protocol)
        .scenario(scenario.clone())
        .initial(InitialStates::counts(counts))
        .observe(CountsRecorder::alive_only())
        .observe(TransitionRecorder::new())
        .observe(AliveTracker::new())
        .run::<AgentRuntime>()
        .expect("LV run")
}

/// The series names used when printing endemic runs.
pub const ENDEMIC_SERIES: [&str; 3] = [RECEPTIVE, STASH, AVERSE];
/// The series names used when printing LV runs.
pub const LV_SERIES: [&str; 3] = [STATE_X, STATE_Y, STATE_Z];

/// Builds the synthetic Overnet-like churn scenario used by Figures 9 and 10:
/// `n` hosts, `hours` hours of trace at 10–25 % hourly churn, 6-minute
/// protocol periods.
pub fn churn_scenario(n: usize, hours: usize, seed: u64) -> Scenario {
    let cfg = SyntheticChurnConfig {
        hosts: n,
        hours,
        mean_availability: 0.7,
        churn_min: 0.10,
        churn_max: 0.25,
    };
    let mut rng = Rng::seed_from(seed);
    let trace = cfg.generate(&mut rng).expect("valid churn configuration");
    let periods = netsim::PERIODS_PER_HOUR * hours as u64;
    Scenario::new(n, periods)
        .expect("valid scenario")
        .with_churn_trace(&trace, &mut rng)
        .expect("matching trace")
        .with_seed(seed + 1)
}

/// First period at which `minority` (the smaller of the x/y series) drops to
/// at most `threshold` — the LV convergence time.
pub fn lv_convergence_period(result: &RunResult, threshold: f64) -> Option<u64> {
    let xs = result.state_series(STATE_X).ok()?;
    let ys = result.state_series(STATE_Y).ok()?;
    first_below(&xs, &ys, threshold)
}

/// [`lv_convergence_period`] over two raw series (also usable on ensemble
/// mean envelopes).
pub fn first_below(xs: &[f64], ys: &[f64], threshold: f64) -> Option<u64> {
    xs.iter()
        .zip(ys)
        .position(|(x, y)| x.min(*y) <= threshold)
        .map(|p| p as u64)
}

/// Downsamples a run into printable rows `period, series...` every `stride`
/// periods.
pub fn downsampled_rows(result: &RunResult, series: &[&str], stride: usize) -> Vec<Vec<String>> {
    let columns: Vec<Vec<f64>> = series
        .iter()
        .map(|name| result.state_series(name).unwrap_or_default())
        .collect();
    downsampled_columns(&columns, stride)
}

/// Downsamples raw per-period columns into printable rows.
pub fn downsampled_columns(columns: &[Vec<f64>], stride: usize) -> Vec<Vec<String>> {
    let len = columns.first().map_or(0, Vec::len);
    let mut rows = Vec::new();
    for i in (0..len).step_by(stride.max(1)) {
        let mut row = vec![i.to_string()];
        for col in columns {
            row.push(format!("{}", col[i]));
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_scale_accepts_defaults_flags_and_env() {
        assert_eq!(parse_scale(strings(&[]), None), Ok(1.0));
        assert_eq!(parse_scale(strings(&["--scale", "0.25"]), None), Ok(0.25));
        // The flag overrides the environment, and later flags win.
        assert_eq!(
            parse_scale(strings(&["--scale", "0.5"]), Some("0.1")),
            Ok(0.5)
        );
        // A valid flag even shadows a malformed environment value.
        assert_eq!(
            parse_scale(strings(&["--scale", "0.5"]), Some("banana")),
            Ok(0.5)
        );
        assert_eq!(
            parse_scale(strings(&["--scale", "0.5", "--scale", "2"]), None),
            Ok(2.0)
        );
        assert_eq!(parse_scale(strings(&[]), Some(" 0.01 ")), Ok(0.01));
    }

    #[test]
    fn parse_scale_allows_upscaling() {
        assert_eq!(parse_scale(strings(&["--scale", "4"]), None), Ok(4.0));
        assert_eq!(parse_scale(strings(&[]), Some("2.5")), Ok(2.5));
    }

    #[test]
    fn parse_scale_rejects_malformed_input_loudly() {
        assert!(parse_scale(strings(&["--scale"]), None)
            .unwrap_err()
            .contains("expects a value"));
        assert!(parse_scale(strings(&["--scale", "huge"]), None)
            .unwrap_err()
            .contains("huge"));
        assert!(parse_scale(strings(&[]), Some("banana"))
            .unwrap_err()
            .contains("banana"));
        assert!(parse_scale(strings(&["--scale", "0"]), None).is_err());
        assert!(parse_scale(strings(&["--scale", "-1"]), None).is_err());
        assert!(parse_scale(strings(&["--scale", "inf"]), None).is_err());
        assert!(parse_scale(strings(&["--scale", "NaN"]), None).is_err());
    }

    #[test]
    fn scale_helpers() {
        assert_eq!(scaled(100_000, 0.01, 500), 1_000);
        assert_eq!(scaled(100, 0.001, 50), 50);
        assert_eq!(scaled(1_000, 2.0, 50), 2_000);
    }

    #[test]
    fn endemic_and_lv_helpers_run() {
        let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
        let scenario = Scenario::new(400, 50).unwrap().with_seed(1);
        let run = run_endemic(params, &scenario, true);
        assert_eq!(run.n, 400);
        assert_eq!(run.run.counts.len(), 51);
        assert!(!run.run.tracked_members.is_empty());
        let rows = downsampled_rows(&run.run, &ENDEMIC_SERIES, 10);
        assert_eq!(rows.len(), 6);

        let scenario = Scenario::new(400, 100).unwrap().with_seed(2);
        let lv = run_lv(LvParams::new(), &scenario, &[240, 160, 0]);
        assert_eq!(lv.counts.len(), 101);
        // Convergence threshold of N is trivially met at period 0.
        assert_eq!(lv_convergence_period(&lv, 400.0), Some(0));
        assert_eq!(first_below(&[3.0, 1.0], &[2.0, 2.0], 1.5), Some(1));
    }

    #[test]
    fn churn_scenario_builds() {
        let s = churn_scenario(200, 3, 9);
        assert_eq!(s.group_size(), 200);
        assert_eq!(s.periods(), 30);
        assert!(!s.churn_events().is_empty());
    }
}

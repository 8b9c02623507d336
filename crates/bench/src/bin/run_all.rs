//! Runs every experiment binary in sequence (at the current scale), so
//! `cargo run --release -p dpde-bench --bin run_all -- --scale 0.05` gives a
//! quick end-to-end smoke test of the whole harness and
//! `cargo run --release -p dpde-bench --bin run_all` regenerates every figure
//! at the paper's dimensions.

use std::process::Command;

const BINS: &[&str] = &[
    "exp_endemic_equilibria",
    "exp_lv_equilibria",
    "exp_longevity_table",
    "exp_reality_check",
    "exp_epidemic_logn",
    "exp_shard_epidemic",
    "exp_async_epidemic",
    "exp_near_tie_takeover",
    "exp_adversary",
    "exp_ssa_burst",
    "exp_socket_epidemic",
    "fig02_endemic_phase_portrait",
    "fig04_lv_phase_portrait",
    "fig05_endemic_massive_failure",
    "fig06_endemic_file_flux",
    "fig07_endemic_analysis_vs_measured",
    "fig08_endemic_untraceability",
    "fig09_endemic_churn_counts",
    "fig10_endemic_churn_transitions",
    "fig11_lv_convergence",
    "fig12_lv_massive_failure",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("executable directory");
    let path = |bin: &str| exe_dir.join(format!("{bin}{}", std::env::consts::EXE_SUFFIX));
    // Cargo builds only the binaries it was asked for: check every sibling
    // before running any, so a partial build fails at once, by name.
    let missing: Vec<&str> = BINS
        .iter()
        .copied()
        .filter(|bin| !path(bin).is_file())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "error: {} of {} experiment binaries missing from {}: {missing:?}\n\
             build them all first: cargo build --release -p dpde-bench",
            missing.len(),
            BINS.len(),
            exe_dir.display()
        );
        std::process::exit(2);
    }
    let mut failures = Vec::new();
    for bin in BINS {
        println!("\n=========================== {bin} ===========================");
        let status = Command::new(path(bin)).args(&args).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                println!("!! {bin} failed: {other:?}");
                failures.push(*bin);
            }
        }
    }
    println!("\n=========================== done ===========================");
    if failures.is_empty() {
        println!("all {} experiments completed", BINS.len());
    } else {
        println!("{} experiment(s) failed: {failures:?}", failures.len());
        std::process::exit(1);
    }
}

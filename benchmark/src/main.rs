//! The dpde benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! dpde-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dpde-benchmark all     [--seed n] [--seconds s] [--out file]
//! dpde-benchmark compare <baseline.json> <candidate.json>
//! dpde-benchmark --smoke [--seed n]
//! ```
//!
//! Run it from the repository root (`cargo run --release --offline
//! --manifest-path benchmark/Cargo.toml -- …`).

mod compare;
mod e2e;
mod heap;
mod json;
mod layers;
mod probe;
mod report;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

use compare::{Results, WorkloadResult};
use e2e::Plan;
use layers::{PROBE_METRICS, REPLAY_METRICS};
use report::{Outcome, DETAIL_PREFIX, RUN_SECONDS};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{AnyError, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Everything the command line can carry.
#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a u64")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--out" => args.out = Some(value("a path")?),
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.files.push(arg),
        }
    }
    Ok(args)
}

/// The benchmark's own directory, relative to the working directory: the
/// command runs from the repository root, but a run from inside
/// `benchmark/` should not scatter files either.
fn package_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

/// `benchmark/out`, created on demand: traces, results and socket files
/// all stay inside the checkout.
fn out_dir() -> Result<PathBuf, AnyError> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn find_workload(name: Option<&str>) -> Result<&'static Workload, AnyError> {
    let name = name.ok_or("--workload is required")?;
    workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", ")).into()
    })
}

/// The traced replay of `workload`, its spans written to
/// `benchmark/out/trace.<workload>.json`.
fn run_replay(workload: &'static Workload, plan: &Plan) -> Result<Outcome, AnyError> {
    let mut tracer = trace::Tracer::new();
    let replayed = layers::replay(workload, plan, &mut tracer)?;
    let path = out_dir()?.join(format!("trace.{}.json", workload.name));
    std::fs::write(&path, tracer.to_json(workload.name, plan.seed).render())?;
    println!(
        "traced replay of {}: {} spans written to {}",
        workload.name,
        tracer.spans().len(),
        path.display()
    );
    for (name, ns) in tracer.self_time_by_name() {
        println!("  self time {:<16} {:>14.3} ms", name, ns as f64 / 1e6);
    }
    Ok(report::per_layer(REPLAY_METRICS, &replayed)?)
}

/// The layer probes. Their worker sockets live under `benchmark/out`; a
/// relative path keeps them below the 108-byte `sun_path` limit.
fn run_probes(plan: &Plan) -> Result<Outcome, AnyError> {
    let sockets = out_dir()?.join("sockets");
    std::fs::create_dir_all(&sockets)?;
    std::env::set_var("DPDE_UDS_TMPDIR", &sockets);
    println!("layer probes:");
    Ok(report::per_layer(PROBE_METRICS, &layers::probes(plan)?)?)
}

/// One pass of one workload in this process. The benchmark contract has a
/// traced run report every per-layer metric, so it runs the workload's
/// replay and the probes, which are the same for every workload.
fn run_pass(workload: &'static Workload, plan: &Plan, traced: bool) -> Result<Outcome, AnyError> {
    if traced {
        Ok(run_replay(workload, plan)?.merged(run_probes(plan)?))
    } else {
        Ok(report::end_to_end(&e2e::Report::measure(workload, plan)?))
    }
}

/// The driver's form: one workload, one pass, the result as the last line.
fn run_single(args: &Args) -> Result<u8, AnyError> {
    let workload = find_workload(args.workload.as_deref())?;
    let plan = Plan::measure(args.seed.unwrap_or(1), args.seconds.unwrap_or(RUN_SECONDS));
    let outcome = run_pass(workload, &plan, args.trace.unwrap_or(false))?;
    println!("{DETAIL_PREFIX}{}", outcome.detail().render());
    println!("{}", outcome.result_line());
    Ok(u8::from(!outcome.correct))
}

/// Runs the untraced pass in a child process of its own, as the driver
/// does (fresh heap, cold caches), and reads its detail line back.
fn run_child(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, AnyError> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with(DETAIL_PREFIX)) {
        println!("{line}");
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{} printed no result; exit {:?}; stderr: {}",
                workload.name,
                output.status.code(),
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
    Ok(Outcome::from_detail(&json::parse(detail)?)?)
}

/// Everything: per workload the untraced pass (a process each) and the
/// traced replay, then the layer probes once.
fn run_all(args: &Args) -> Result<u8, AnyError> {
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let plan = Plan::measure(seed, seconds);
    let mut workloads = Vec::new();
    for workload in &workloads::ALL {
        workloads.push(WorkloadResult {
            name: workload.name.into(),
            end_to_end: run_child(workload, seed, seconds)?,
            replay: run_replay(workload, &plan)?,
        });
    }
    let results = Results {
        seed: seed.to_string(),
        seconds,
        workloads,
        probes: run_probes(&plan)?,
    };
    let path = match &args.out {
        Some(path) => PathBuf::from(path),
        None => out_dir()?.join("results.json"),
    };
    std::fs::write(&path, results.to_json().render())?;
    println!("results written to {}", path.display());
    let passes = results
        .workloads
        .iter()
        .flat_map(|w| {
            [
                (w.name.as_str(), "end to end", &w.end_to_end),
                (w.name.as_str(), "replay", &w.replay),
            ]
        })
        .chain([("all workloads", "probes", &results.probes)]);
    let mut correct = true;
    for (name, pass, outcome) in passes {
        if !outcome.correct {
            println!("INCORRECT: {name} ({pass}): {} failed", outcome.failed);
            correct = false;
        }
    }
    Ok(u8::from(!correct))
}

fn run_compare(args: &Args) -> Result<u8, AnyError> {
    let [baseline, candidate] = args.files.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let load = |path: &String| -> Result<Results, AnyError> {
        Ok(Results::from_text(&std::fs::read_to_string(path)?)
            .map_err(|e| format!("{path}: {e}"))?)
    };
    let comparison = compare::compare(&Spec::load()?, &load(baseline)?, &load(candidate)?)?;
    compare::print(&comparison);
    Ok(comparison.exit_code())
}

/// 1 round, 3 samples, N ÷ 100: asserts only that every name listed in
/// `BENCHMARK.json` is emitted, with its unit.
fn run_smoke(args: &Args) -> Result<u8, AnyError> {
    let spec = Spec::load()?;
    spec.validate()?;
    let plan = Plan::smoke(args.seed.unwrap_or(1));
    let mut problems = Vec::new();
    let listed: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
    let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    if listed != ours {
        problems.push(format!(
            "workloads differ: listed {listed:?}, implemented {ours:?}"
        ));
    }
    for workload in &workloads::ALL {
        for (traced, listed) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let outcome = run_pass(workload, &plan, traced)?;
            let emitted = outcome
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()));
            problems.extend(
                spec::mismatches(listed, emitted)
                    .into_iter()
                    .map(|p| format!("{}: {p}", workload.name)),
            );
        }
    }
    for problem in &problems {
        println!("SMOKE: {problem}");
    }
    println!(
        "smoke: {} workloads, {} end-to-end and {} per-layer names checked, {} problems",
        ours.len(),
        spec.end_to_end.len(),
        spec.per_layer.len(),
        problems.len()
    );
    Ok(u8::from(!problems.is_empty()))
}

fn main() -> ExitCode {
    // The socket probes re-exec this binary as their worker processes.
    netsim::maybe_run_worker();
    let run = || -> Result<u8, AnyError> {
        let args = parse_args(std::env::args().skip(1))?;
        match (args.command.as_deref(), args.smoke) {
            (None, true) => run_smoke(&args),
            (None, false) => run_single(&args),
            (Some("all"), false) => run_all(&args),
            (Some("compare"), false) => run_compare(&args),
            (Some(other), _) => Err(format!("unknown command `{other}`").into()),
        }
    };
    // 0: correct and within every bound. 1: a failed call or check, or a
    // breach. 2: the benchmark itself could not run. 3 (`compare` only):
    // nothing worse than an unresolved pairing.
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(err) => {
            eprintln!("dpde-benchmark: {err}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_driver_form_parses() {
        let args = parse("--workload exact_ssa --seed 18446744073709551615 --seconds 10 --trace 1")
            .unwrap();
        assert_eq!(args.workload.as_deref(), Some("exact_ssa"));
        assert_eq!(args.seed, Some(u64::MAX));
        assert_eq!(args.seconds, Some(10.0));
        assert_eq!(args.trace, Some(true));
        assert!(args.command.is_none() && !args.smoke);
    }

    #[test]
    fn subcommands_and_files_parse() {
        let args = parse("compare a.json b.json").unwrap();
        assert_eq!(args.command.as_deref(), Some("compare"));
        assert_eq!(args.files, ["a.json", "b.json"]);
        assert!(parse("--smoke").unwrap().smoke);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "--seed",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--seconds 1e9",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
        assert!(find_workload(Some("nope")).is_err());
        assert!(find_workload(None).is_err());
        assert_eq!(
            find_workload(Some("bounded_tau")).unwrap().name,
            "bounded_tau"
        );
    }
}

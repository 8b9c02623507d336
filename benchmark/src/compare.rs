//! `results.json` (what `all` writes) and the `compare` subcommand that
//! judges two of them against the bounds in `BENCHMARK.json`.

use crate::json::{parse, Value};
use crate::report::{Measured, Outcome};
use crate::spec::Spec;
use crate::stats::{quartile_spread, OverRounds};

/// What `all` ran for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The untraced pass.
    pub end_to_end: Outcome,
    /// The rows of the workload's traced replay.
    pub replay: Outcome,
}

/// A complete set of runs of one commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// The `--seed` every workload ran with (text: a u64 does not fit a
    /// JSON number).
    pub seed: String,
    /// The `--seconds` every workload ran with.
    pub seconds: f64,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
    /// The rows of the layer probes, which do not depend on the workload
    /// and are run once per set.
    pub probes: Outcome,
}

impl Results {
    /// Serializes the set.
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().map(|w| {
            (
                w.name.clone(),
                Value::obj([
                    ("end_to_end", w.end_to_end.detail()),
                    ("replay", w.replay.detail()),
                ]),
            )
        });
        Value::obj([
            ("seed", Value::str(&*self.seed)),
            ("seconds", Value::Num(self.seconds)),
            ("workloads", Value::obj(workloads)),
            ("probes", self.probes.detail()),
        ])
    }

    /// Parses what [`to_json`](Self::to_json) wrote.
    ///
    /// # Errors
    ///
    /// Names what is missing or malformed.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let outcome = |of: &Value, path: &str, key: &str| {
            of.get(key)
                .ok_or_else(|| format!("`{path}` has no `{key}`"))
                .and_then(Outcome::from_detail)
                .map_err(|e| format!("{path}.{key}: {e}"))
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("missing object `workloads`")?
            .iter()
            .map(|(name, w)| {
                Ok(WorkloadResult {
                    name: name.clone(),
                    end_to_end: outcome(w, name, "end_to_end")?,
                    replay: outcome(w, name, "replay")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Results {
            seed: doc
                .get("seed")
                .and_then(Value::as_str)
                .ok_or("missing string `seed`")?
                .to_owned(),
            seconds: doc
                .get("seconds")
                .and_then(Value::as_f64)
                .ok_or("missing number `seconds`")?,
            workloads,
            probes: outcome(&doc, "results", "probes")?,
        })
    }

    fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// How one workload × metric pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Breach,
    /// The rounds of one side spread wider than the bound, so the pairing
    /// can be called neither unchanged nor regressed: run it again.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value and per-round values.
    pub a: (f64, Vec<f64>),
    /// Candidate value and per-round values.
    pub b: (f64, Vec<f64>),
    /// How much worse `b` is, as a share of `a` (negative: better).
    pub worse_by: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// What `compare` found.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload × end-to-end metric.
    pub rows: Vec<Row>,
    /// What fails the comparison besides a breach: failed calls or checks
    /// in either set, and count-type per-layer rows (checksums among them)
    /// that differ between two sets run at the same seed.
    pub problems: Vec<String>,
}

impl Comparison {
    /// 0: every pairing within its bound. 1: a breach, a failed call or a
    /// count row that differs. 3: nothing worse than an unresolved pairing.
    pub fn exit_code(&self) -> u8 {
        let has = |verdict| self.rows.iter().any(|r| r.verdict == verdict);
        if has(Verdict::Breach) || !self.problems.is_empty() {
            1
        } else if has(Verdict::Unresolved) {
            3
        } else {
            0
        }
    }
}

/// How much worse `candidate` is than `baseline`, as a share of `baseline`.
fn worse_by(baseline: f64, candidate: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (baseline - candidate) / baseline
    } else {
        (candidate - baseline) / baseline
    }
}

/// The verdict on one pairing: where the rounds of either side spread
/// (quartile distance over median) wider than the bound, the pairing is
/// unresolved — unless every round of the candidate reads better than every
/// round of the baseline.
fn judge(a: &Measured, b: &Measured, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = |m: &Measured| match m.rounds.len() {
        0 | 1 => 0.0,
        _ => quartile_spread(&m.rounds),
    };
    let every_round_better = !a.rounds.is_empty()
        && a.rounds.iter().all(|&ra| {
            b.rounds
                .iter()
                .all(|&rb| worse_by(ra, rb, higher_is_better) < 0.0)
        });
    if (spread(a) > bound || spread(b) > bound) && !every_round_better {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, higher_is_better) <= bound {
        Verdict::Within
    } else {
        Verdict::Breach
    }
}

/// Count-type rows of `a` that `b` lacks or reads differently.
fn count_rows_that_differ(what: &str, a: &Outcome, b: &Outcome, problems: &mut Vec<String>) {
    for m in a.metrics.iter().filter(|m| m.unit == "count") {
        let other = b.metric(&m.name).map(|o| o.value);
        if other != Some(m.value) {
            problems.push(format!(
                "{what}: count row {} differs at the same seed: {} vs {other:?}",
                m.name, m.value
            ));
        }
    }
}

/// Compares candidate `b` against baseline `a` on every workload ×
/// end-to-end metric of `spec`.
///
/// # Errors
///
/// A workload or metric of `spec` that a file lacks.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let same_seed = a.seed == b.seed;
    for (name, _) in &spec.workloads {
        let missing = |which: &str| format!("the {which} has no workload `{name}`");
        let wa = a.workload(name).ok_or_else(|| missing("baseline"))?;
        let wb = b.workload(name).ok_or_else(|| missing("candidate"))?;
        for metric in &spec.end_to_end {
            let pick = |w: &WorkloadResult| {
                w.end_to_end
                    .metric(&metric.name)
                    .cloned()
                    .ok_or_else(|| format!("`{name}` lacks `{}`", metric.name))
            };
            let (ma, mb) = (pick(wa)?, pick(wb)?);
            let bound = metric.bound.unwrap_or(0.0);
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name.clone(),
                worse_by: worse_by(ma.value, mb.value, metric.higher_is_better),
                bound,
                verdict: judge(&ma, &mb, metric.higher_is_better, bound),
                a: (ma.value, ma.rounds),
                b: (mb.value, mb.rounds),
            });
        }
        for (which, w) in [("baseline", wa), ("candidate", wb)] {
            let failed = w.end_to_end.failed + w.replay.failed;
            if failed > 0 {
                problems.push(format!("{name}: {failed} failed calls in the {which}"));
            }
        }
        if same_seed {
            count_rows_that_differ(name, &wa.replay, &wb.replay, &mut problems);
        }
    }
    for (which, set) in [("baseline", a), ("candidate", b)] {
        if set.probes.failed > 0 {
            problems.push(format!(
                "probes: {} failed checks in the {which}",
                set.probes.failed
            ));
        }
    }
    if same_seed {
        count_rows_that_differ("probes", &a.probes, &b.probes, &mut problems);
    }
    Ok(Comparison { rows, problems })
}

/// Prints the comparison.
pub fn print(comparison: &Comparison) {
    let show = |(value, rounds): &(f64, Vec<f64>)| {
        if rounds.is_empty() {
            return format!("{value:.5}");
        }
        let r = OverRounds::of(rounds);
        format!("{value:.5} [{:.5}, {:.5}]", r.min, r.max)
    };
    println!(
        "{:<22} {:<12} {:>38} {:>38} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "baseline [round min, max]",
        "candidate [round min, max]",
        "worse by",
        "bound"
    );
    let count = |verdict| {
        comparison
            .rows
            .iter()
            .filter(|r| r.verdict == verdict)
            .count()
    };
    for r in &comparison.rows {
        println!(
            "{:<22} {:<12} {:>38} {:>38} {:>+8.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            show(&r.a),
            show(&r.b),
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Within => "within",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved (rounds spread wider than the bound; run again)",
            }
        );
    }
    for problem in &comparison.problems {
        println!("FAILED: {problem}");
    }
    println!(
        "{} pairings: {} breached, {} unresolved, {} other failures",
        comparison.rows.len(),
        count(Verdict::Breach),
        count(Verdict::Unresolved),
        comparison.problems.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricSpec;

    fn spec() -> Spec {
        let metric = |name: &str, higher, bound| MetricSpec {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound,
        };
        Spec {
            workloads: vec![("w".into(), "why".into())],
            end_to_end: vec![
                metric("setup_s", false, Some(0.1)),
                metric("work_per_s", true, Some(0.1)),
            ],
            per_layer: vec![metric("events", false, None)],
            run_seconds: 10.0,
        }
    }

    fn outcome(metrics: Vec<Measured>) -> Outcome {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        }
    }

    fn measured(name: &str, unit: &str, value: f64, rounds: &[f64]) -> Measured {
        Measured {
            name: name.into(),
            unit: unit.into(),
            value,
            rounds: rounds.to_vec(),
        }
    }

    /// One workload: `setup_s` with five rounds, a steady `work_per_s`, a
    /// checksum in the replay and an event count in the probes.
    fn results(setup: [f64; 5], work: f64, checksum: f64, events: f64) -> Results {
        Results {
            seed: "1".into(),
            seconds: 10.0,
            workloads: vec![WorkloadResult {
                name: "w".into(),
                end_to_end: outcome(vec![
                    measured("setup_s", "s", crate::stats::median(&setup), &setup),
                    measured("work_per_s", "1/s", work, &[work; 5]),
                ]),
                replay: outcome(vec![measured("result_checksum", "count", checksum, &[])]),
            }],
            probes: outcome(vec![measured("events", "count", events, &[])]),
        }
    }

    const STEADY: [f64; 5] = [0.99, 1.0, 1.0, 1.01, 1.02];

    #[test]
    fn results_round_trip_through_json() {
        let r = results(STEADY, 500.0, 7.0, 42.0);
        assert_eq!(Results::from_text(&r.to_json().render()).unwrap(), r);
        assert!(Results::from_text("{}").is_err());
    }

    #[test]
    fn direction_and_bound_decide_between_within_and_breach() {
        let base = results(STEADY, 500.0, 7.0, 42.0);
        // 5 % slower set-up, 20 % less throughput.
        let slower = results([1.04, 1.05, 1.05, 1.06, 1.06], 400.0, 7.0, 42.0);
        let c = compare(&spec(), &base, &slower).unwrap();
        assert!(c.problems.is_empty(), "{:?}", c.problems);
        assert_eq!(c.rows[0].verdict, Verdict::Within);
        assert!((c.rows[0].worse_by - 0.05).abs() < 1e-12);
        assert_eq!(c.rows[1].verdict, Verdict::Breach);
        assert!((c.rows[1].worse_by - 0.2).abs() < 1e-12);
        assert_eq!(c.exit_code(), 1);
        // Higher throughput is better, not worse.
        let c = compare(&spec(), &base, &results(STEADY, 900.0, 7.0, 42.0)).unwrap();
        assert_eq!(c.rows[1].verdict, Verdict::Within);
        assert!(c.rows[1].worse_by < 0.0);
        assert_eq!(c.exit_code(), 0);
    }

    #[test]
    fn rounds_that_spread_wider_than_the_bound_leave_the_pairing_unresolved() {
        let base = results(STEADY, 500.0, 7.0, 42.0);
        // The candidate's median is within the bound, but its rounds are
        // 30 % apart: neither unchanged nor regressed.
        let noisy = [0.9, 0.95, 1.05, 1.2, 1.25];
        let c = compare(&spec(), &base, &results(noisy, 500.0, 7.0, 42.0)).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert_eq!(c.exit_code(), 3);
        // A noisy baseline does the same, whichever way the medians fall.
        let c = compare(&spec(), &results(noisy, 500.0, 7.0, 42.0), &base).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        // A 40 % regression with one fast round is not excused by it.
        let regressed = [1.0, 1.38, 1.4, 1.4, 1.42];
        let c = compare(&spec(), &base, &results(regressed, 500.0, 7.0, 42.0)).unwrap();
        assert_ne!(c.rows[0].verdict, Verdict::Within);
        assert_ne!(c.exit_code(), 0);
        // ... but every round better than every baseline round is a gain,
        // however wide the spread.
        let faster = [0.5, 0.6, 0.7, 0.8, 0.9];
        let c = compare(&spec(), &base, &results(faster, 500.0, 7.0, 42.0)).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Within);
    }

    #[test]
    fn count_rows_checksums_and_failed_calls_fail_the_comparison() {
        let base = results(STEADY, 500.0, 7.0, 42.0);
        for (other, what) in [
            (
                results(STEADY, 500.0, 7.0, 43.0),
                "count row events differs",
            ),
            (
                results(STEADY, 500.0, 8.0, 42.0),
                "count row result_checksum differs",
            ),
        ] {
            let c = compare(&spec(), &base, &other).unwrap();
            assert!(c.problems.iter().any(|p| p.contains(what)), "{c:?}");
            assert_eq!(c.exit_code(), 1);
        }
        let mut failing = base.clone();
        failing.workloads[0].end_to_end.failed = 2;
        let c = compare(&spec(), &base, &failing).unwrap();
        assert!(c.problems.iter().any(|p| p.contains("2 failed calls")));
        assert_eq!(c.exit_code(), 1);
        // A different seed makes count rows incomparable, not different.
        let mut reseeded = results(STEADY, 500.0, 8.0, 43.0);
        reseeded.seed = "2".into();
        let c = compare(&spec(), &base, &reseeded).unwrap();
        assert!(c.problems.is_empty(), "{:?}", c.problems);
        let empty = Results {
            workloads: vec![],
            ..base.clone()
        };
        assert!(compare(&spec(), &base, &empty).is_err());
    }
}

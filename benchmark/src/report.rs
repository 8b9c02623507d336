//! Turning measurements into output: the human-readable listing (every
//! metric by name, with its unit), the one-line JSON result the driver
//! reads, and the detail record `all` and `compare` work from.

use crate::e2e::Report;
use crate::json::Value;
use crate::layers::{LayerMetric, Layers};
use crate::stats::OverRounds;

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

/// The end-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
///
/// `fail_share` (failed ÷ attempted calls) is deliberately not among them:
/// the benchmark contract asks for end-to-end metrics that are never 0, and
/// this one must always be. It is carried by the `failed` and `attempted`
/// fields of every result instead, and printed.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("work_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// One metric of a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (for a per-round statistic, the median round).
    pub value: f64,
    /// The per-round values, where the metric has rounds (else empty).
    pub rounds: Vec<f64>,
}

/// What one process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// No call failed and every probe check held.
    pub correct: bool,
    /// User calls issued in timed regions.
    pub attempted: usize,
    /// User calls (or probe checks) that failed.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(&*m.unit)),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    /// The same outcome with the round extremes, for `results.json`.
    pub fn detail(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut members = vec![
                ("value".to_owned(), Value::Num(m.value)),
                ("unit".to_owned(), Value::str(&*m.unit)),
            ];
            if !m.rounds.is_empty() {
                let rounds = m.rounds.iter().copied().map(Value::Num).collect();
                members.push(("rounds".to_owned(), Value::Arr(rounds)));
            }
            (m.name.clone(), Value::Obj(members))
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// Reads a [`detail`](Self::detail) record back.
    ///
    /// # Errors
    ///
    /// Names the member that is missing or mistyped.
    pub fn from_detail(doc: &Value) -> Result<Self, String> {
        let number = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing object `metrics`")?
            .iter()
            .map(|(name, m)| {
                Ok(Measured {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("`{name}` has no unit"))?
                        .to_owned(),
                    value: number(m, "value")?,
                    rounds: m
                        .get("rounds")
                        .and_then(Value::as_array)
                        .map(|r| r.iter().filter_map(Value::as_f64).collect())
                        .unwrap_or_default(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Outcome {
            correct: doc
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("missing boolean `correct`")?,
            attempted: number(doc, "attempted")? as usize,
            failed: number(doc, "failed")? as usize,
            metrics,
        })
    }

    /// Both outcomes as one: the driver's traced form reports the replay
    /// and the probes together.
    pub fn merged(mut self, other: Outcome) -> Outcome {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self
    }

    /// The metric of that name.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Prefix of the detail line a child process prints for `all`.
pub const DETAIL_PREFIX: &str = "#detail ";

/// Folds an untraced report into the end-to-end metrics and prints them.
pub fn end_to_end(report: &Report) -> Outcome {
    let w = report.workload;
    let samples: Vec<usize> = report.rounds.iter().map(|r| r.samples.ms.len()).collect();
    println!(
        "workload {}: {} rounds, samples per round {:?}, tier {:?}, work unit: {}",
        w.name,
        report.rounds.len(),
        samples,
        w.tier,
        w.work_unit
    );
    let per_round = [report.setup_s(), report.run_ms_p50(), report.work_per_s()];
    let mut metrics: Vec<Measured> = END_TO_END
        .iter()
        .zip(per_round)
        .map(|(&(name, unit), rounds)| Measured {
            name: name.into(),
            unit: unit.into(),
            value: OverRounds::of(&rounds).median,
            rounds,
        })
        .collect();
    let (heap_name, heap_unit) = END_TO_END[3];
    metrics.push(Measured {
        name: heap_name.into(),
        unit: heap_unit.into(),
        value: report.peak_heap_mb,
        rounds: Vec::new(),
    });
    let line = |name: &str, rounds: &[f64], unit: &str, what: &str| {
        let r = OverRounds::of(rounds);
        println!(
            "  {name:<14} {:>16.6} {unit:<4} {what} (min {:.6}, max {:.6})",
            r.median, r.min, r.max
        );
    };
    for m in metrics.iter().filter(|m| !m.rounds.is_empty()) {
        line(
            &m.name,
            &m.rounds,
            &m.unit,
            "median round, at reference speed",
        );
    }
    println!(
        "  {:<14} {:>16.6} {:<4} live heap of one extra untimed round",
        "peak_heap_mb", report.peak_heap_mb, "MiB"
    );
    let diagnostic = "diagnostic only";
    line("speed_index", &report.speed_index(), "x", diagnostic);
    line("raw_ms_p50", &report.raw_ms_p50(), "ms", diagnostic);
    line("raw_ms_p90", &report.raw_ms_p90(), "ms", diagnostic);
    let (attempted, failed) = (report.attempted(), report.failed());
    println!(
        "  {:<14} {:>16.6} {:<4} {failed} failed of {attempted} calls",
        "fail_share",
        failed as f64 / attempted as f64,
        "ratio"
    );
    let reasons = report.rounds.iter().flat_map(|r| &r.samples.failures);
    for reason in reasons.take(5) {
        println!("  FAILED CALL: {reason}");
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Folds one part of a traced run into its per-layer metrics and prints
/// them with the end-to-end metric each should move. `listed` is the part's
/// share of `BENCHMARK.json`.
///
/// # Errors
///
/// A listed metric that the part did not emit (or the reverse) is a bug in
/// this program.
pub fn per_layer(listed: &[LayerMetric], part: &Layers) -> Result<Outcome, String> {
    let mut metrics = Vec::with_capacity(listed.len());
    for spec in listed {
        let (_, value, note) = part
            .rows()
            .iter()
            .find(|r| r.0 == spec.name)
            .ok_or_else(|| format!("per-layer metric `{}` was not emitted", spec.name))?;
        println!(
            "  {:<46} {:>16.4} {:<5} ({} is better) {note}; moves {}",
            spec.name, value, spec.unit, spec.better, spec.moves
        );
        metrics.push(Measured {
            name: spec.name.into(),
            unit: spec.unit.into(),
            value: *value,
            rounds: Vec::new(),
        });
    }
    if let Some(extra) = part
        .rows()
        .iter()
        .find(|r| listed.iter().all(|m| m.name != r.0))
    {
        return Err(format!(
            "emitted `{}` is not a listed per-layer metric",
            extra.0
        ));
    }
    for reason in part.failures.iter().take(5) {
        println!("  FAILED CHECK: {reason}");
    }
    Ok(Outcome {
        correct: part.failures.is_empty(),
        attempted: part.attempted.max(1),
        failed: part.failures.len(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 412,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "run_ms_p50".into(),
                    unit: "ms".into(),
                    value: 18.25,
                    rounds: vec![17.5, 19.0, 18.25],
                },
                Measured {
                    name: "peak_heap_mb".into(),
                    unit: "MiB".into(),
                    value: 11.0,
                    rounds: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let doc = parse(&outcome().result_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = doc.get("metrics").unwrap().get("run_ms_p50").unwrap();
        let keys: Vec<&str> = metric
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(412.0));
    }

    #[test]
    fn detail_round_trips() {
        let original = outcome();
        let back = Outcome::from_detail(&parse(&original.detail().render()).unwrap()).unwrap();
        assert_eq!(back, original);
        assert_eq!(
            back.metric("run_ms_p50").unwrap().rounds,
            [17.5, 19.0, 18.25]
        );
        assert!(Outcome::from_detail(&parse("{}").unwrap()).is_err());
    }
}

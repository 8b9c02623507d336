//! `BENCHMARK.json`: loading, the limits its contract sets, and the check
//! that the names this program emits are the names the file lists.

use crate::json::{parse, Value};
use std::collections::BTreeSet;

/// Most workloads a benchmark may list.
pub const MAX_WORKLOADS: usize = 8;
/// Most end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;
/// Largest regression bound an end-to-end metric may carry.
pub const MAX_BOUND: f64 = 0.25;

/// A name starts with a letter or digit and is made of at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this program reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
    /// Measuring time of one run.
    pub run_seconds: f64,
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn metrics(doc: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))?
        .iter()
        .map(|m| {
            let higher_is_better = match text(m, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("`better` is `{other}`")),
            };
            let bound = if bounded {
                Some(
                    field(m, "bound")?
                        .as_f64()
                        .ok_or("`bound` is not a number")?,
                )
            } else {
                None
            };
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns what is malformed or missing.
    pub fn from_text(json: &str) -> Result<Self, String> {
        let doc = parse(json)?;
        let workloads = field(&doc, "workloads")?
            .as_array()
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("`run_seconds` is not a number")?,
        })
    }

    /// Reads `BENCHMARK.json` from the working directory (the root of the
    /// checkout, where the benchmark's command is run from).
    ///
    /// # Errors
    ///
    /// Returns an I/O or format problem as text.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Self::from_text(&text)
    }

    /// Checks the limits of the benchmark contract.
    ///
    /// # Errors
    ///
    /// Returns the first limit the file breaks.
    pub fn validate(&self) -> Result<(), String> {
        let within = |what: &str, len: usize, lo: usize, hi: usize| {
            if (lo..=hi).contains(&len) {
                Ok(())
            } else {
                Err(format!("{len} {what}, allowed {lo} to {hi}"))
            }
        };
        within("workloads", self.workloads.len(), 2, MAX_WORKLOADS)?;
        within(
            "end-to-end metrics",
            self.end_to_end.len(),
            1,
            MAX_END_TO_END,
        )?;
        within("per-layer metrics", self.per_layer.len(), 1, MAX_PER_LAYER)?;
        let mut seen = BTreeSet::new();
        let names = self.workloads.iter().map(|w| &w.0).chain(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| &m.name),
        );
        for name in names {
            if !valid_name(name) {
                return Err(format!("invalid name `{name}`"));
            }
            if !seen.insert(name) {
                return Err(format!("name `{name}` is used twice"));
            }
        }
        for (name, why) in &self.workloads {
            if why.chars().count() > 200 || why.contains('\n') {
                return Err(format!("`why` of `{name}` is not one line of at most 200"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit `{}` on `{}`", m.unit, m.name));
            }
        }
        for m in &self.end_to_end {
            match m.bound {
                Some(b) if (0.0..=MAX_BOUND).contains(&b) => {}
                _ => return Err(format!("bound of `{}` outside 0..={MAX_BOUND}", m.name)),
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && !m.higher_is_better => {}
            _ => return Err("`setup_s` (unit s, better lower) is required".into()),
        }
        if self.run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&self.run_seconds) {
            return Err(format!(
                "run_seconds {} is not a whole 1..=60",
                self.run_seconds
            ));
        }
        Ok(())
    }
}

/// Names (with units) that one side has and the other lacks, as text; empty
/// when `emitted` is exactly what `listed` asks for.
pub fn mismatches<'a>(
    listed: &[MetricSpec],
    emitted: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Vec<String> {
    let listed: BTreeSet<(&str, &str)> = listed
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let emitted: BTreeSet<(&str, &str)> = emitted.into_iter().collect();
    let missing = listed
        .difference(&emitted)
        .map(|(n, u)| format!("not emitted: {n} [{u}]"));
    let extra = emitted
        .difference(&listed)
        .map(|(n, u)| format!("not in BENCHMARK.json: {n} [{u}]"));
    missing.chain(extra).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for good in [
            "setup_s",
            "core.batched.step_ns.s33",
            "a",
            "9lives",
            "x-y_z.0",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "µs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract() {
        for good in ["ms", "s", "1/s", "count", "MiB", "%", "ns/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "per second", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn spec(workloads: usize, end_to_end: usize, per_layer: usize) -> Spec {
        let metric = |prefix: &str, i: usize, bound| MetricSpec {
            name: if i == 0 && bound {
                "setup_s".into()
            } else {
                format!("{prefix}{i}")
            },
            unit: "s".into(),
            higher_is_better: false,
            bound: bound.then_some(0.1),
        };
        Spec {
            workloads: (0..workloads)
                .map(|i| (format!("w{i}"), "why".into()))
                .collect(),
            end_to_end: (0..end_to_end).map(|i| metric("e", i, true)).collect(),
            per_layer: (0..per_layer).map(|i| metric("l", i, false)).collect(),
            run_seconds: 10.0,
        }
    }

    #[test]
    fn limits_are_eight_sixteen_and_one_hundred_twenty_eight() {
        assert_eq!(spec(8, 16, 128).validate(), Ok(()));
        assert_eq!(spec(2, 1, 1).validate(), Ok(()));
        assert!(spec(9, 16, 128)
            .validate()
            .unwrap_err()
            .contains("workloads"));
        assert!(spec(1, 16, 128).validate().is_err());
        assert!(spec(8, 17, 128)
            .validate()
            .unwrap_err()
            .contains("end-to-end"));
        assert!(spec(8, 0, 128).validate().is_err());
        assert!(spec(8, 16, 129)
            .validate()
            .unwrap_err()
            .contains("per-layer"));
        assert!(spec(8, 16, 0).validate().is_err());
    }

    #[test]
    fn duplicate_names_bounds_and_setup_are_checked() {
        let mut s = spec(2, 2, 2);
        s.per_layer[1].name = "w0".into();
        assert!(s.validate().unwrap_err().contains("twice"));
        let mut s = spec(2, 2, 2);
        s.end_to_end[1].bound = Some(0.3);
        assert!(s.validate().unwrap_err().contains("bound"));
        let mut s = spec(2, 2, 2);
        s.end_to_end[0].name = "startup".into();
        assert!(s.validate().unwrap_err().contains("setup_s"));
        let mut s = spec(2, 2, 2);
        s.run_seconds = 61.0;
        assert!(s.validate().is_err());
        let mut s = spec(2, 2, 2);
        s.workloads[0].1 = "x".repeat(201);
        assert!(s.validate().is_err());
    }

    #[test]
    fn mismatches_name_both_directions() {
        let listed = spec(2, 2, 1).end_to_end;
        assert!(mismatches(&listed, [("setup_s", "s"), ("e1", "s")]).is_empty());
        let report = mismatches(&listed, [("setup_s", "ms"), ("other", "s")]);
        assert_eq!(report.len(), 4, "{report:?}");
        assert!(report.iter().any(|r| r == "not emitted: e1 [s]"));
        assert!(report
            .iter()
            .any(|r| r == "not in BENCHMARK.json: other [s]"));
    }

    /// The file this repository ships is the one this program implements:
    /// same workloads, same metric names and units, within every limit.
    #[test]
    fn the_shipped_benchmark_json_matches_this_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let shipped = Spec::from_text(&text).unwrap();
        assert_eq!(shipped.validate(), Ok(()));
        let workloads: Vec<&str> = shipped.workloads.iter().map(|w| w.0.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let e2e = crate::report::END_TO_END.iter().map(|m| (m.0, m.1));
        assert_eq!(mismatches(&shipped.end_to_end, e2e), Vec::<String>::new());
        let ours: Vec<_> = crate::layers::PROBE_METRICS
            .iter()
            .chain(crate::layers::REPLAY_METRICS)
            .collect();
        let layers = ours.iter().map(|m| (m.name, m.unit));
        assert_eq!(mismatches(&shipped.per_layer, layers), Vec::<String>::new());
        for (listed, ours) in shipped.per_layer.iter().zip(ours) {
            assert_eq!(listed.name, ours.name, "BENCHMARK.json lists them in order");
            assert_eq!(
                listed.higher_is_better,
                ours.better == "higher",
                "{}",
                ours.name
            );
        }
        assert_eq!(shipped.run_seconds, crate::report::RUN_SECONDS);
    }
}

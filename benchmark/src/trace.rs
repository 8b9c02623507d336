//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Nothing inside `crates/` is instrumented.
//!
//! A span carries name, start, end, parent and the sample it belongs to.
//! The period loop of a run would produce one span per `step` and per
//! `on_period` call — millions per round — so those two are *aggregated*:
//! one span per run and kind, `start`/`end` bracketing the first and last
//! call, `busy_ns` the summed duration of the `calls` individual calls. For
//! an ordinary span `busy_ns == end − start` and `calls == 1`. A layer's
//! self time is its busy time minus the busy time of its children.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name (`setup.parse`, `run.step`, …).
    pub name: &'static str,
    /// Enclosing span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one sample (`u32::MAX`: none).
    pub sample: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time spent inside the span: `end − start`, or the summed call
    /// durations of an aggregated span.
    pub busy_ns: u64,
    /// Calls folded into this span.
    pub calls: u64,
}

/// In-memory span store; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

/// Sample id of spans that belong to no sample (workload, round, set-up).
pub const NO_SAMPLE: u32 = u32::MAX;

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, sample: u32) -> SpanId {
        let now = self.now_ns();
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            sample,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Runs `body` inside a span.
    pub fn span<T>(&mut self, name: &'static str, sample: u32, body: impl FnOnce() -> T) -> T {
        let id = self.enter(name, sample);
        let out = body();
        self.exit(id);
        out
    }

    /// Records an aggregated child of the innermost open span: `calls`
    /// calls between `first_start` and `last_end` that were busy for
    /// `busy_ns` in total.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        sample: u32,
        first_start: Instant,
        last_end: Instant,
        busy_ns: u64,
        calls: u64,
    ) {
        let since = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            sample,
            start_ns: since(first_start),
            end_ns: since(last_end),
            busy_ns,
            calls,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: busy time minus the busy time of its direct
    /// children (never below zero — aggregated children are measured with
    /// their own clock reads and can exceed a parent by a few nanoseconds).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for span in &self.spans {
            if let Some(SpanId(parent)) = span.parent {
                own[parent] = own[parent].saturating_sub(span.busy_ns);
            }
        }
        own
    }

    /// Self time summed per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// The trace as a JSON document: a `spans` array (`id` is the array
    /// index; `parent` an index or `null`) and the per-name self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::str(s.name)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p.0 as f64)),
                    ),
                    (
                        "sample",
                        if s.sample == NO_SAMPLE {
                            Value::Null
                        } else {
                            Value::Num(f64::from(s.sample))
                        },
                    ),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("busy_ns", Value::Num(s.busy_ns as f64)),
                    ("calls", Value::Num(s.calls as f64)),
                ])
            })
            .collect();
        let self_ns = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, ns)| (name, Value::Num(ns as f64)));
        Value::obj([
            ("workload", Value::str(workload)),
            // As text: a u64 seed does not fit a JSON number.
            ("seed", Value::str(seed.to_string())),
            ("self_ns_by_name", Value::obj(self_ns)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Builds a tracer with hand-set times: root [0, 1000] with an ordinary
    /// child [100, 400], whose own child is [150, 250], and an aggregated
    /// child of the root that was busy 300 ns over 3 calls.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let root = t.enter("sample", 7);
        let init = t.enter("run.init", 7);
        let inner = t.enter("setup.parse", 7);
        t.exit(inner);
        t.exit(init);
        let origin = t.origin;
        t.aggregate(
            "run.step",
            7,
            origin + Duration::from_nanos(450),
            origin + Duration::from_nanos(900),
            300,
            3,
        );
        t.exit(root);
        for (i, (start, end)) in [(0, 1000), (100, 400), (150, 250)].into_iter().enumerate() {
            t.spans[i].start_ns = start;
            t.spans[i].end_ns = end;
            t.spans[i].busy_ns = end - start;
        }
        t
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let t = fixture();
        // sample: 1000 − 300 (init) − 300 (aggregated steps) = 400
        // run.init: 300 − 100 = 200; leaves keep their busy time.
        assert_eq!(t.self_times(), vec![400, 200, 100, 300]);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["sample"], 400);
        assert_eq!(by_name["run.step"], 300);
        assert_eq!(
            by_name.values().sum::<u64>(),
            1000,
            "self times partition the root"
        );
    }

    #[test]
    fn parents_and_aggregates_are_recorded() {
        let t = fixture();
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_eq!(spans[2].parent, Some(SpanId(1)));
        assert_eq!(spans[3].parent, Some(SpanId(0)));
        assert_eq!((spans[3].start_ns, spans[3].end_ns), (450, 900));
        assert_eq!(spans[3].calls, 3);
        assert!(spans.iter().all(|s| s.sample == 7));
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let mut t = fixture();
        t.spans[3].busy_ns = 5_000;
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let t = fixture();
        let doc = crate::json::parse(&t.to_json("w", u64::MAX).render()).unwrap();
        assert_eq!(
            doc.get("seed").unwrap().as_str(),
            Some("18446744073709551615")
        );
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[3].get("busy_ns").unwrap().as_f64(), Some(300.0));
        assert_eq!(
            doc.get("self_ns_by_name")
                .unwrap()
                .get("run.init")
                .unwrap()
                .as_f64(),
            Some(200.0)
        );
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a", NO_SAMPLE);
        let _b = t.enter("b", NO_SAMPLE);
        t.exit(a);
    }
}

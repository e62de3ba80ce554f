//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, never inside the program. Each span keeps
//! its parent and the op it belongs to; a layer's self time is its
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use ksa_server::json::{obj, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name (`topology.rounds`, `op`, …).
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Nonzero `ksa_obs` counter deltas taken around the span.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; one op at a time.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Marks the spans recorded from now on as belonging to `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            counters: Vec::new(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] that also records the `ksa_obs` counter deltas
    /// around the call. The snapshots are taken outside the timed
    /// interval. Counters are process-global, so the deltas are exact
    /// only while one op runs at a time, as in the traced run.
    pub fn counted<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = ksa_obs::snapshot();
        let idx = self.spans.len();
        let out = self.span(name, f);
        let after = ksa_obs::snapshot();
        self.spans[idx].counters = counter_deltas(&before, &after);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as a JSON array, for the trace file written at exit.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.clone())),
                        ("start_ns", Value::Int(s.start_ns as i64)),
                        ("end_ns", Value::Int(s.end_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                        ("op", Value::Int(s.op as i64)),
                        (
                            "counters",
                            Value::Obj(
                                s.counters
                                    .iter()
                                    .map(|&(k, v)| (k.to_string(), Value::Int(v as i64)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

fn counter_deltas(
    before: &ksa_obs::MetricsSnapshot,
    after: &ksa_obs::MetricsSnapshot,
) -> Vec<(&'static str, u64)> {
    let tier = |a: &[(&'static str, u64)], b: &[(&'static str, u64)]| {
        a.iter()
            .map(|&(name, v)| {
                let old = b.iter().find(|(n, _)| *n == name).map_or(0, |&(_, o)| o);
                (name, v.saturating_sub(old))
            })
            .filter(|&(_, d)| d > 0)
            .collect::<Vec<_>>()
    };
    let mut out = tier(&after.det, &before.det);
    out.extend(tier(&after.perf, &before.perf));
    out
}

/// Self time of every span in milliseconds: its duration minus the
/// durations of its direct children.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64 / 1e6)
        .collect()
}

/// Totals over the spans of one trace, keyed by span name.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Summed self time per span name, ms.
    pub self_ms: BTreeMap<String, f64>,
    /// Summed full duration per span name, ms.
    pub total_ms: BTreeMap<String, f64>,
    /// Summed counter deltas per `(span name, counter)`.
    pub counters: BTreeMap<(String, &'static str), u64>,
    /// Number of spans per name.
    pub calls: BTreeMap<String, usize>,
}

impl Ledger {
    /// Aggregates `spans`.
    pub fn of(spans: &[Span]) -> Ledger {
        let mut ledger = Ledger::default();
        for (s, own) in spans.iter().zip(self_ms(spans)) {
            *ledger.self_ms.entry(s.name.clone()).or_default() += own;
            *ledger.total_ms.entry(s.name.clone()).or_default() += s.dur_ns() as f64 / 1e6;
            *ledger.calls.entry(s.name.clone()).or_default() += 1;
            for &(c, v) in &s.counters {
                *ledger.counters.entry((s.name.clone(), c)).or_default() += v;
            }
        }
        ledger
    }

    /// Summed self time of spans named `name` (0 when none ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed full duration of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed delta of `counter` over spans named `name`.
    pub fn count(&self, name: &str, counter: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, c), _)| n == name && *c == counter)
            .map(|(_, &v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            op: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ a.inner [15,25); op ⊃ b [50,90)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_ms(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        // Self times of a tree partition the root's duration.
        assert_eq!(self_ms(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn ledger_sums_by_name_across_ops() {
        let spans = vec![
            span("op", 0, 10, None),
            span("layer", 2, 6, Some(0)),
            span("op", 20, 25, None),
            span("layer", 21, 22, Some(2)),
        ];
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.ms("op"), 10.0);
        assert_eq!(ledger.total("op"), 15.0);
        assert_eq!(ledger.ms("layer"), 5.0);
        assert_eq!(ledger.ms("absent"), 0.0);
        assert_eq!(ledger.calls["layer"], 2);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_op() {
        let mut t = Tracer::default();
        t.set_op(7);
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.op == 7));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_ms(s);
        assert!(own[1] >= 2.0 && own[0] < own[1]);
    }
}

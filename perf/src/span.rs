//! Host-time spans around the benchmark's own calls into each layer.
//!
//! Spans are kept in memory and written once the run ends: as self-time
//! lines on stdout and, on request, as Chrome `trace_event` JSON. A
//! disabled [`Tracer`] records nothing, so end-to-end runs pay one branch
//! per span.

use std::time::{Duration, Instant};

use crate::json;

/// Chrome-trace process id of the benchmark's spans. The simulator's own
/// trace export (`all_experiments --trace-out`) numbers its processes
/// from 0, one per simulated system, so a high fixed id keeps the two
/// files loadable side by side (or merged) without colliding tracks.
const CHROME_PID: u64 = 1 << 20;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `workloads.tako` or `graph.gen`.
    pub name: String,
    /// Spans of one unit share `<workload>/<unit>`.
    pub id: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one single-threaded run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, id: &str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        Some(i)
    }

    /// Close `span` (and any span left open inside it).
    pub fn exit(&mut self, span: SpanId) {
        let Some(i) = span else { return };
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == i {
                break;
            }
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `i`'s duration minus the part of its interval its children
    /// cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let mut kids: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort();
        let (lo, hi) = (self.spans[i].start, self.spans[i].end);
        let mut covered = Duration::ZERO;
        let mut reach = lo;
        for (s, e) in kids {
            let (s, e) = (s.max(reach), e.min(hi));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        self.spans[i].duration().saturating_sub(covered)
    }

    /// The spans as Chrome `trace_event` JSON ("X" complete events in
    /// microseconds of host time on one process whose id is above any
    /// the simulator's own export uses).
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{CHROME_PID},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json::string(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":{CHROME_PID},\"tid\":0,\"name\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent},\"self_us\":{}}}}}",
                json::string(&s.name),
                json::number(micros(s.start)),
                json::number(micros(s.duration())),
                json::string(&s.id),
                json::number(micros(self.self_time(i))),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<(&str, Option<usize>, u64, u64)>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans
            .into_iter()
            .map(|(name, parent, s, e)| Span {
                name: name.into(),
                id: "w/u".into(),
                parent,
                start: Duration::from_millis(s),
                end: Duration::from_millis(e),
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = fixed(vec![
            ("root", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 30, 50), // overlaps a: covered once
            ("c", Some(1), 15, 20), // grandchild: not root's child
        ]);
        assert_eq!(t.self_time(0), Duration::from_millis(60));
        assert_eq!(t.self_time(1), Duration::from_millis(25));
        assert_eq!(t.self_time(3), Duration::from_millis(5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", "w/u");
        t.exit(s);
        assert!(s.is_none() && t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_export() {
        let mut t = Tracer::new(true);
        let a = t.enter("outer", "w");
        let b = t.enter("inner", "w/u");
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        let v = json::parse(&t.chrome_json("tako_perf w")).unwrap();
        let events = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("name").and_then(json::Value::as_str),
            Some("inner")
        );
    }
}

//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out at the end of a traced run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: a layer boundary crossed by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    /// Request (or optimizer run) the span belongs to; 0 for setup and
    /// the layer ladder.
    pub req: u64,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span recorder panicked")
    }
}

/// A possibly-absent tracer: every call is a no-op on untraced runs, so
/// the measured code path is the same either way.
#[derive(Clone, Copy)]
pub struct Trace<'a>(pub Option<&'a Tracer>);

impl Trace<'_> {
    pub const OFF: Trace<'static> = Trace(None);

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.0
            .map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed))
    }

    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(t) = self.0 {
            let span = Span {
                name,
                id,
                parent,
                req,
                start: start.saturating_duration_since(t.epoch).as_secs_f64(),
                end: end.saturating_duration_since(t.epoch).as_secs_f64(),
            };
            t.spans.lock().expect("a span recorder panicked").push(span);
        }
    }

    /// Records a span with a fresh id and returns that id.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(name, id, parent, req, start, end);
        id
    }
}

/// Per span name: (span count, summed self seconds). A span's self time
/// is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let mut kids: Vec<(f64, f64)> = children
            .get(&s.id)
            .into_iter()
            .flatten()
            .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut covered, mut reach) = (0.0, s.start);
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end - s.start) - covered;
    }
    out
}

/// Spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": {}, \"start_s\": {}, \"end_s\": {}}}",
            s.name, s.id, parent, s.req, s.start, s.end
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("request", 1, None, 0.0, 10.0),
            span("queue_wait", 2, Some(1), 1.0, 4.0),
            span("exec", 3, Some(1), 3.0, 6.0),
            span("late", 4, Some(1), 9.0, 12.0),
        ];
        let t = self_times(&spans);
        // Children cover [1, 6] and [9, 10] of the request.
        assert!((t["request"].1 - 4.0).abs() < 1e-12);
        assert!((t["queue_wait"].1 - 3.0).abs() < 1e-12);
        assert_eq!(t["request"].0, 1);
    }
}

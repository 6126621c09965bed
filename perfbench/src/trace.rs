//! In-memory spans around the calls the benchmark makes into each
//! layer, written once at exit as Chrome trace-event JSON.
//!
//! Spans are recorded only when tracing is on; `Tracer::end` returns the
//! span's duration either way, so the untraced path times the same
//! boundaries without keeping anything.

use operon_exec::json::Value;
use std::time::{Duration, Instant};

/// One closed span.
struct Span {
    name: &'static str,
    /// Design or request the span belongs to.
    id: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    counts: Vec<(&'static str, f64)>,
}

/// An open span: its start instant, and its slot when recorded.
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder for one benchmark process.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Slots of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: &str) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let at = start - self.origin;
            self.spans.push(Span {
                name,
                id: id.to_owned(),
                start: at,
                end: at,
                parent: self.stack.last().copied(),
                counts: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Attaches a count to an open span.
    pub fn count(&mut self, open: &Open, key: &'static str, value: f64) {
        if let Some(slot) = open.slot {
            self.spans[slot].counts.push((key, value));
        }
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end = end - self.origin;
            self.stack.retain(|&s| s != slot);
        }
        end - open.start
    }

    /// The recorded spans as a Chrome trace-event document (complete
    /// `X` events, microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("span", Value::from(i)),
                    ("id", Value::from(s.id.as_str())),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                ];
                args.extend(s.counts.iter().map(|&(k, v)| (k, Value::from(v))));
                Value::object(vec![
                    ("name", Value::from(s.name)),
                    ("cat", Value::from("operon")),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(s.start.as_secs_f64() * 1e6)),
                    ("dur", Value::from((s.end - s.start).as_secs_f64() * 1e6)),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(1u64)),
                    ("args", Value::object(args)),
                ])
            })
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
        .compact()
    }
}

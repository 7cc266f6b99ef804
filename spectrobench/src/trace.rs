//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer (the
//! library crates are not instrumented for this), kept in memory, and
//! written out as JSON when the run ends. A disabled tracer still times
//! (callers need the durations) but records nothing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span that has begun but not ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    name: &'static str,
    parent: Option<u64>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            // Relaxed: the id is a unique counter and publishes nothing.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            start: Instant::now(),
        }
    }

    /// Ends `open` now and returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        self.record(open.name, open.id, open.parent, open.start, end);
        end - open.start
    }

    /// Records a span whose bounds were taken elsewhere (request phases
    /// measured by the load generator).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            name,
            id,
            parent,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// time.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent);
        let value = f();
        (value, self.end(open))
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// The JSON export: `{"spans": [{name, id, parent, start_us, end_us}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name, s.id, parent, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Sum, in seconds, of the self times of every span below `root` (not
/// `root` itself): a span's self time is its duration less what its
/// direct children cover.
pub fn stage_self_time(spans: &[Span], root: u64) -> f64 {
    let mut ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.id)
        .collect();
    let mut total = 0.0;
    while let Some(id) = ids.pop() {
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(id)).collect();
        let Some(me) = spans.iter().find(|s| s.id == id) else {
            continue;
        };
        let covered: f64 = children.iter().map(|c| c.end_us - c.start_us).sum();
        total += (me.end_us - me.start_us - covered) / 1e6;
        ids.extend(children.iter().map(|c| c.id));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            id,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn stage_self_times_add_up_to_what_the_stages_cover() {
        let spans = vec![
            span("flow", 1, None, 0.0, 100.0),
            span("a", 2, Some(1), 10.0, 40.0),
            span("b", 3, Some(1), 40.0, 90.0),
            span("b.inner", 4, Some(3), 50.0, 60.0),
            span("other", 5, None, 0.0, 500.0),
        ];
        // a (30) + b's own 40 + b.inner (10): the 20 µs of flow outside
        // any stage are left out.
        assert!((stage_self_time(&spans, 1) - 80e-6).abs() < 1e-12);
        assert!((stage_self_time(&spans, 3) - 10e-6).abs() < 1e-12);
        assert_eq!(stage_self_time(&spans, 4), 0.0);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (v, elapsed) = tracer.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(elapsed >= Duration::ZERO);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        on.time("x", None, || ());
        assert_eq!(on.spans().len(), 1);
        assert!(on.to_json().contains("\"name\": \"x\""));
    }
}

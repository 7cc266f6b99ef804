//! Structured observability for the spectroscopy workspace: hierarchical
//! spans, atomic counters/gauges, log-linear histograms, a bounded
//! lock-free event journal, and pluggable exporters — with zero
//! dependencies and a near-zero-cost disabled path.
//!
//! # Model
//!
//! A [`Collector`] owns four things: a [`Clock`] (the workspace's only
//! sanctioned time source — inject a [`ManualClock`] for deterministic
//! tests), a [`MetricsRegistry`] of named counters/gauges/histograms, a
//! bounded seqlock [`Journal`] of span/gauge records, and an optional
//! [`Subscriber`] that sees every event synchronously.
//!
//! Instrumented code calls the free functions ([`span()`], [`counter_add`],
//! [`gauge_set`]) or the [`span!`] macro; they consult a process-global
//! collector slot. When nothing is installed the entire call is one
//! relaxed atomic load — this is the fast path the `serve_load` overhead
//! gate measures.
//!
//! ```
//! let guard = obs::install(obs::Collector::new());
//! {
//!     let _span = obs::span!("demo.work");
//!     obs::counter_add("demo.items", 3);
//! }
//! let events = guard.collector().events();
//! assert_eq!(events[0].name, "demo.work");
//! drop(guard); // uninstalls; later spans are no-ops again
//! ```
//!
//! Installation is guarded by a process-wide mutex held for the guard's
//! lifetime, so concurrent tests that each install a collector serialize
//! instead of clobbering each other's events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod export;
mod journal;
mod metrics;
mod span;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use export::{
    chrome_trace, human_line, json_line, ChromeTraceSubscriber, Event, EventKind,
    HumanSubscriber, JsonLinesSubscriber, Subscriber,
};
pub use journal::{Journal, NameTable, RawEvent, RecordKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, BUCKETS,
};
pub use span::{thread_id, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Fast-path switch: `false` means [`span`]/[`counter_add`]/[`gauge_set`]
/// return after a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed collector, if any.
static ACTIVE: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Serializes [`install`] callers: the guard holds this for its lifetime.
static INSTALL_GATE: Mutex<()> = Mutex::new(());

/// Default journal capacity (records) for [`Collector::new`].
pub const DEFAULT_JOURNAL_CAPACITY: usize = 16_384;

/// Owns the clock, metrics, journal, and optional subscriber behind one
/// installed observability session.
pub struct Collector {
    clock: Arc<dyn Clock>,
    journal: Journal,
    names: NameTable,
    registry: MetricsRegistry,
    subscriber: RwLock<Option<Arc<dyn Subscriber>>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("journal_capacity", &self.journal.capacity())
            .field("recorded", &self.journal.recorded())
            .finish_non_exhaustive()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector with a [`MonotonicClock`], the default journal
    /// capacity, and no subscriber.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A collector timing spans with `clock` (use [`ManualClock`] in
    /// tests for exact, reproducible durations).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            journal: Journal::new(DEFAULT_JOURNAL_CAPACITY),
            names: NameTable::new(),
            registry: MetricsRegistry::new(),
            subscriber: RwLock::new(None),
        }
    }

    /// Replaces the journal with one holding `capacity` records.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal = Journal::new(capacity);
        self
    }

    /// Attaches a subscriber that sees every event synchronously.
    pub fn with_subscriber(self, subscriber: Arc<dyn Subscriber>) -> Self {
        *self
            .subscriber
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(subscriber);
        self
    }

    /// Current reading of this collector's clock.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Interns `name`, returning its dense id.
    pub(crate) fn intern(&self, name: &str) -> u32 {
        self.names.intern(name)
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// The histogram named `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Adds `delta` to the counter named `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    /// Sets the gauge named `name`, journals the update, and notifies the
    /// subscriber.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
        let name_id = self.intern(name);
        let now = self.now_nanos();
        let thread = span::thread_id();
        self.journal
            .record(RecordKind::Gauge, name_id, thread, 0, now, value.to_bits());
        if let Some(subscriber) = self.current_subscriber() {
            subscriber.on_event(&Event {
                name: name.to_string(),
                kind: EventKind::Gauge,
                thread,
                depth: 0,
                start_ns: now,
                end_ns: now,
                value,
            });
        }
    }

    /// Journals a completed span and notifies the subscriber. Called by
    /// [`SpanGuard`] on drop.
    pub(crate) fn finish_span(&self, name_id: u32, start: u64, end: u64, depth: u32, thread: u32) {
        self.journal
            .record(RecordKind::Span, name_id, thread, depth, start, end);
        if let Some(subscriber) = self.current_subscriber() {
            subscriber.on_event(&Event {
                name: self.names.resolve(name_id),
                kind: EventKind::Span,
                thread,
                depth,
                start_ns: start,
                end_ns: end,
                value: 0.0,
            });
        }
    }

    fn current_subscriber(&self) -> Option<Arc<dyn Subscriber>> {
        self.subscriber
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A resolved snapshot of the journal in claim order.
    pub fn events(&self) -> Vec<Event> {
        self.journal
            .snapshot()
            .into_iter()
            .map(|raw| match raw.kind {
                RecordKind::Span => Event {
                    name: self.names.resolve(raw.name_id),
                    kind: EventKind::Span,
                    thread: raw.thread,
                    depth: raw.depth,
                    start_ns: raw.a,
                    end_ns: raw.b,
                    value: 0.0,
                },
                RecordKind::Gauge => Event {
                    name: self.names.resolve(raw.name_id),
                    kind: EventKind::Gauge,
                    thread: raw.thread,
                    depth: raw.depth,
                    start_ns: raw.a,
                    end_ns: raw.a,
                    value: f64::from_bits(raw.b),
                },
            })
            .collect()
    }

    /// A sorted snapshot of every registered metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Renders the current journal contents as chrome-trace JSON.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.events())
    }

    /// Total journal records ever claimed.
    pub fn journal_recorded(&self) -> u64 {
        self.journal.recorded()
    }

    /// Journal records dropped under overwrite contention.
    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped()
    }
}

/// Keeps a collector installed; dropping it uninstalls and re-arms the
/// disabled fast path.
///
/// Holds the process-wide install gate, so two tests that both call
/// [`install`] run one after the other rather than interleaving events.
#[must_use = "dropping the guard uninstalls the collector"]
pub struct InstallGuard {
    collector: Arc<Collector>,
    _gate: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallGuard")
            .field("collector", &self.collector)
            .finish()
    }
}

impl InstallGuard {
    /// The installed collector (for reading events/metrics afterwards).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        // Relaxed: ENABLED is only an advisory fast-path hint; the ACTIVE
        // RwLock below carries the collector and the synchronization. A
        // stale read costs one extra lock round-trip, never a wrong value.
        ENABLED.store(false, Ordering::Relaxed);
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs `collector` as the process-global observability sink until
/// the returned guard is dropped. Blocks while another guard is alive.
pub fn install(collector: Collector) -> InstallGuard {
    let gate = INSTALL_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let collector = Arc::new(collector);
    *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&collector));
    // Relaxed: see InstallGuard::drop — ACTIVE is the source of truth.
    ENABLED.store(true, Ordering::Relaxed);
    InstallGuard {
        collector,
        _gate: gate,
    }
}

/// The installed collector, or `None` after one relaxed load when
/// observability is off.
pub fn active() -> Option<Arc<Collector>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    ACTIVE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Opens a span named `name`; the span closes (and is journaled) when
/// the returned guard drops. A no-op guard when nothing is installed.
pub fn span(name: &str) -> SpanGuard {
    match active() {
        Some(collector) => span::open(collector, name),
        None => SpanGuard::disabled(),
    }
}

/// Adds `delta` to the global counter named `name` (no-op when off).
pub fn counter_add(name: &str, delta: u64) {
    if let Some(collector) = active() {
        collector.counter_add(name, delta);
    }
}

/// Sets the global gauge named `name` (no-op when off).
pub fn gauge_set(name: &str, value: f64) {
    if let Some(collector) = active() {
        collector.gauge_set(name, value);
    }
}

/// Opens a span: `let _span = obs::span!("train.epoch");`.
///
/// Equivalent to [`span()`]; exists so call sites read like structured
/// logging and can later grow fields without changing shape.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_reenabled_after_guard_drop() {
        // "Not recording" only holds while no sibling test has a
        // collector installed, so both checks hold the install gate.
        let not_installed = || INSTALL_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let _gate = not_installed();
            let outside = span("not.recorded");
            assert!(!outside.is_recording());
        }
        let guard = install(Collector::with_clock(Arc::new(ManualClock::new(0))));
        {
            let inner = span("recorded");
            assert!(inner.is_recording());
        }
        assert_eq!(guard.collector().events().len(), 1);
        drop(guard);
        let _gate = not_installed();
        let after = span("not.recorded.either");
        assert!(!after.is_recording());
    }

    #[test]
    fn manual_clock_gives_exact_durations() {
        let clock = Arc::new(ManualClock::new(1_000));
        let guard = install(Collector::with_clock(clock.clone() as Arc<dyn Clock>));
        {
            let _span = span!("exact");
            clock.advance(250);
        }
        let events = guard.collector().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].start_ns, 1_000);
        assert_eq!(events[0].end_ns, 1_250);
        assert_eq!(events[0].duration_nanos(), 250);
    }

    #[test]
    fn counters_and_gauges_flow_through_free_functions() {
        let guard = install(Collector::with_clock(Arc::new(ManualClock::new(0))));
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 1.5);
        let metrics = guard.collector().metrics();
        assert_eq!(metrics.counters, vec![("c".to_string(), 5)]);
        assert_eq!(metrics.gauges, vec![("g".to_string(), 1.5)]);
        // The gauge update is also journaled for the trace timeline.
        let events = guard.collector().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Gauge);
        assert_eq!(events[0].value, 1.5);
    }
}

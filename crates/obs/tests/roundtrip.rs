//! Round-trip tests for the obs crate: deterministic span timing through
//! a ManualClock, chrome-trace export parsed back with serde_json,
//! journal wraparound, and concurrent counters. The disabled fast path
//! lives in `tests/disabled.rs`: it asserts that *no* collector is
//! installed, which only holds in a binary where no sibling test can be
//! holding an `obs::install` guard.

use std::sync::Arc;

use obs::{
    ChromeTraceSubscriber, Clock, Collector, Event, EventKind, HumanSubscriber,
    JsonLinesSubscriber, ManualClock,
};
use serde_json::Value;

fn manual_collector(clock: &Arc<ManualClock>) -> Collector {
    Collector::with_clock(Arc::clone(clock) as Arc<dyn Clock>)
}

#[test]
fn nested_spans_have_exact_durations_and_depths() {
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(manual_collector(&clock));
    {
        let _outer = obs::span!("train.epoch");
        clock.advance(100);
        {
            let _inner = obs::span!("train.batch");
            clock.advance(40);
        }
        clock.advance(10);
    }
    let events = guard.collector().events();
    assert_eq!(events.len(), 2);
    // Inner closes first, so it journals first.
    let inner = &events[0];
    let outer = &events[1];
    assert_eq!(inner.name, "train.batch");
    assert_eq!(inner.depth, 1);
    assert_eq!(inner.start_ns, 100);
    assert_eq!(inner.end_ns, 140);
    assert_eq!(outer.name, "train.epoch");
    assert_eq!(outer.depth, 0);
    assert_eq!(outer.start_ns, 0);
    assert_eq!(outer.end_ns, 150);
    // Containment: the inner span sits inside the outer on one thread.
    assert_eq!(inner.thread, outer.thread);
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
}

#[test]
fn chrome_trace_round_trips_through_a_real_json_parser() {
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(manual_collector(&clock));
    {
        let _req = obs::span!("serve.request");
        clock.advance(2_000_000); // 2 ms
    }
    obs::gauge_set("serve.queue_depth", 3.0);
    let doc = guard.collector().chrome_trace();
    drop(guard);

    let parsed: Value = serde_json::from_str(&doc).expect("chrome trace must be valid JSON");
    let events = parsed["traceEvents"]
        .as_array()
        .expect("traceEvents array");
    assert_eq!(events.len(), 2);
    let span = &events[0];
    assert_eq!(span["name"].as_str(), Some("serve.request"));
    assert_eq!(span["ph"].as_str(), Some("X"));
    assert_eq!(span["pid"].as_i64(), Some(1));
    // 2 ms expressed in chrome-trace microseconds.
    assert!((span["dur"].as_f64().unwrap() - 2000.0).abs() < 1e-9);
    let gauge = &events[1];
    assert_eq!(gauge["ph"].as_str(), Some("C"));
    assert!((gauge["args"]["value"].as_f64().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn json_lines_subscriber_emits_parseable_objects() {
    let clock = Arc::new(ManualClock::new(50));
    let subscriber = Arc::new(JsonLinesSubscriber::new());
    let guard = obs::install(
        manual_collector(&clock).with_subscriber(Arc::clone(&subscriber) as Arc<dyn obs::Subscriber>),
    );
    {
        let _span = obs::span!("store.save");
        clock.advance(7);
    }
    obs::gauge_set("train.loss", 0.25);
    drop(guard);

    let lines = subscriber.lines();
    assert_eq!(lines.len(), 2);
    let span: Value = serde_json::from_str(&lines[0]).expect("span line parses");
    assert_eq!(span["name"].as_str(), Some("store.save"));
    assert_eq!(span["kind"].as_str(), Some("span"));
    assert_eq!(span["start_ns"].as_u64(), Some(50));
    assert_eq!(span["end_ns"].as_u64(), Some(57));
    let gauge: Value = serde_json::from_str(&lines[1]).expect("gauge line parses");
    assert_eq!(gauge["kind"].as_str(), Some("gauge"));
    assert!((gauge["value"].as_f64().unwrap() - 0.25).abs() < 1e-12);
}

#[test]
fn human_subscriber_indents_nested_spans() {
    let clock = Arc::new(ManualClock::new(0));
    let subscriber = Arc::new(HumanSubscriber::new());
    let guard = obs::install(
        manual_collector(&clock).with_subscriber(Arc::clone(&subscriber) as Arc<dyn obs::Subscriber>),
    );
    {
        let _outer = obs::span!("pipeline.stage.train");
        {
            let _inner = obs::span!("train.epoch");
            clock.advance(1_000_000);
        }
    }
    drop(guard);
    let lines = subscriber.lines();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("  train.epoch "), "got: {}", lines[0]);
    assert!(
        lines[1].starts_with("pipeline.stage.train "),
        "got: {}",
        lines[1]
    );
}

#[test]
fn chrome_trace_subscriber_matches_collector_journal() {
    let clock = Arc::new(ManualClock::new(0));
    let subscriber = Arc::new(ChromeTraceSubscriber::new());
    let guard = obs::install(
        manual_collector(&clock).with_subscriber(Arc::clone(&subscriber) as Arc<dyn obs::Subscriber>),
    );
    for _ in 0..3 {
        let _span = obs::span!("ms.generate_dataset");
        clock.advance(10);
    }
    let from_journal = guard.collector().chrome_trace();
    drop(guard);
    assert_eq!(subscriber.len(), 3);
    assert_eq!(subscriber.to_json(), from_journal);
}

#[test]
fn journal_wraparound_keeps_newest_and_counts_everything() {
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(manual_collector(&clock).with_journal_capacity(8));
    for _ in 0..20 {
        let _span = obs::span!("wrap");
        clock.advance(1);
    }
    let collector = guard.collector();
    assert_eq!(collector.journal_recorded(), 20);
    assert_eq!(collector.journal_dropped(), 0);
    let events = collector.events();
    assert_eq!(events.len(), 8);
    // The newest 8 spans ended at nanos 13..=20.
    assert_eq!(events.first().unwrap().end_ns, 13);
    assert_eq!(events.last().unwrap().end_ns, 20);
}

#[test]
fn concurrent_counter_updates_are_exact() {
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(manual_collector(&clock));
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(std::thread::spawn(|| {
            for _ in 0..1000 {
                obs::counter_add("stress.count", 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(guard.collector().counter("stress.count").get(), 8000);
}

#[test]
fn spans_from_multiple_threads_carry_distinct_thread_ids() {
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(manual_collector(&clock));
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(std::thread::spawn(|| {
            let _span = obs::span!("threaded");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let events: Vec<Event> = guard.collector().events();
    assert_eq!(events.len(), 4);
    let mut threads: Vec<u32> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), 4, "each thread gets its own id");
    assert!(events.iter().all(|e| e.kind == EventKind::Span));
}

#[test]
fn install_guard_serializes_sessions() {
    // Two sequential installs must not see each other's data; the gate
    // also blocks a second installer while the first guard lives (checked
    // implicitly by every test in this binary running with --test-threads
    // defaulting to parallel).
    let clock = Arc::new(ManualClock::new(0));
    {
        let guard = obs::install(manual_collector(&clock));
        obs::counter_add("session", 1);
        assert_eq!(guard.collector().counter("session").get(), 1);
    }
    {
        let guard = obs::install(manual_collector(&clock));
        assert_eq!(
            guard.collector().counter("session").get(),
            0,
            "fresh collector starts empty"
        );
    }
}

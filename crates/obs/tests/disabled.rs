//! The disabled fast path, in its own test binary.
//!
//! This test asserts that no collector is installed. Cargo runs the
//! tests of one binary on parallel threads, so any sibling test holding
//! an `obs::install` guard would make the spans below record; alone in
//! its binary, the assertion is deterministic.

use std::sync::Arc;

use obs::{Clock, Collector, ManualClock};

#[test]
fn disabled_path_records_nothing_anywhere() {
    // No collector installed in this scope: everything must be inert.
    {
        let span = obs::span("ghost");
        assert!(!span.is_recording());
    }
    obs::counter_add("ghost.counter", 5);
    obs::gauge_set("ghost.gauge", 1.0);
    assert!(obs::active().is_none());

    // Installing afterwards starts from a clean slate.
    let clock = Arc::new(ManualClock::new(0));
    let guard = obs::install(Collector::with_clock(clock as Arc<dyn Clock>));
    assert!(guard.collector().events().is_empty());
    assert!(guard.collector().metrics().counters.is_empty());
}

//! Drives the `monitor` crate's closed loop end-to-end and publishes the
//! episode report: streaming inference through the sharded tier, drift
//! detection, auto-recharacterization, zero-drop hot swaps — under the
//! same chaos the monitor chaos suite injects (sensor dropouts, an
//! injected characterization failure, two mid-swap worker panics).
//!
//! On top of the monitor's own window traffic, a seeded open-loop
//! arrival process (`bench::arrival`) submits background inference
//! against the same router each tick, so the swaps happen under load
//! that is not the monitor's to pace.
//!
//! Asserts the ISSUE invariants — at least two full drift →
//! recharacterize → swap episodes, zero dropped requests (monitor and
//! background), every episode exactly one terminal, the post-swap model
//! fit back under the drift threshold — and merges a `monitor_loop`
//! section into `BENCH_serve.json` (preserving `serve_load`'s report)
//! plus a CSV episode series. `--smoke` shortens the tail for CI;
//! `--trace <out.json>` writes a chrome-trace profile of the run.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::arrival::ArrivalProcess;
use bench::{banner, merge_into_bench_json, pick, write_csv, TraceSession};
use chem::Mixture;
use datastore::Store;
use faultsim::FaultPlan;
use monitor::{
    bootstrap, DetectorConfig, DriftAction, DriftDetector, DriftSchedule, EpisodeOutcome,
    MonitorConfig, MonitorLoop, MsStream, RecharacterizeConfig,
};
use ms_sim::instrument::InstrumentModel;
use serve::{ModelRegistry, Request, RetryPolicy, Router, RouterConfig, SupervisorConfig};

/// Virtual wall-clock span one monitor tick represents for the
/// background arrival schedule (the prototype measures a window every
/// few seconds in reality; the bench compresses that to stay fast).
const TICK_SPAN_US: f64 = 2_000.0;

/// Background submissions allowed per tick (bounds a burst so the
/// admission queue is exercised, not buried).
const MAX_BG_PER_TICK: usize = 64;

fn process_mixture() -> Mixture {
    Mixture::from_fractions(vec![
        ("N2".into(), 0.55),
        ("O2".into(), 0.18),
        ("Ar".into(), 0.02),
        ("CO2".into(), 0.25),
    ])
    .expect("process mixture fractions are valid")
}

fn drift_one(base: &InstrumentModel) -> InstrumentModel {
    let mut instrument = base.clone();
    instrument.attenuation.rate = -1.0 / 60.0;
    instrument.mass_offset += 0.3;
    instrument
}

fn drift_two(base: &InstrumentModel) -> InstrumentModel {
    let mut instrument = drift_one(base);
    instrument.peak_width.base = 0.70;
    instrument.mass_offset += 0.25;
    instrument.attenuation.rate = -1.0 / 45.0;
    instrument
}

/// Supervision matched to bench-scale ticks (a couple of milliseconds):
/// shard healing after an injected panic completes within a few ticks.
fn fast_supervision() -> RouterConfig {
    RouterConfig {
        supervisor: SupervisorConfig {
            tick: Duration::from_millis(1),
            restart_backoff_base: Duration::from_millis(1),
            max_restart_backoff: Duration::from_millis(20),
            circuit_cooldown: Duration::from_millis(5),
            ..SupervisorConfig::default()
        },
        ..RouterConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "monitor_loop — closed-loop monitoring: drift → recharacterize → swap",
        "DESIGN.md §13 (the paper's four tools, run unattended)",
    );

    let ticks: u64 = if smoke { 80 } else { pick(80, 240) };

    // Seeded drifting stream: bootstrap consumes 28 calibration draws,
    // the detector learns over 6 windows, drift one lands at position
    // 60, drift two after episode one has closed.
    let base = MsStream::new(7, process_mixture(), 4, DriftSchedule::new())
        .true_instrument()
        .clone();
    let schedule = DriftSchedule::new()
        .at(60, DriftAction::SetInstrument(drift_one(&base)))
        .at(260, DriftAction::SetInstrument(drift_two(&base)));
    let mut stream = MsStream::new(7, process_mixture(), 4, schedule);

    // The chaos plan of the monitor chaos suite: dropouts in learning
    // and calibration, a failed first re-characterization attempt, and
    // (via MonitorConfig below) two armed mid-swap worker panics.
    let plan = Arc::new(
        FaultPlan::new()
            .with_sensor_dropout(30)
            .with_sensor_dropout(40)
            .with_sensor_dropout(41)
            .with_sensor_dropout(42)
            .with_sensor_dropout(43)
            .with_sensor_dropout(115)
            .with_sensor_dropout(120)
            .with_sensor_dropout(125)
            .with_characterize_error(0),
    );

    let trace = TraceSession::from_args();

    let store = Store::in_memory();
    let registry = Arc::new(ModelRegistry::new());
    let config = RecharacterizeConfig::quick("mms").expect("serving axis constants are valid");
    let started = Instant::now();
    let boot = bootstrap(&mut stream, &store, &registry, &config, &plan)
        .expect("bootstrap characterize/train/publish");
    println!(
        "bootstrap:  published v{} in {:.2}s (believed attenuation rate {:.5})",
        boot.version,
        started.elapsed().as_secs_f64(),
        boot.believed.attenuation.rate,
    );

    let router = Router::start_with_faults(
        Arc::clone(&registry),
        fast_supervision(),
        Some(Arc::clone(&plan)),
    )
    .expect("start sharded router");

    let serving_axis_len = config.serving_axis.len();
    let detector = DriftDetector::new(DetectorConfig::default()).expect("default detector config");
    let monitor_config = MonitorConfig {
        chaos_mid_swap_panics: 2,
        ..MonitorConfig::default()
    };
    let mut monitor = MonitorLoop::new(
        stream,
        detector,
        &router,
        &store,
        &plan,
        monitor_config,
        config,
        boot.believed,
        boot.version,
    )
    .expect("believed render for the monitor loop");

    // Background load: open-loop Poisson arrivals mapped onto the tick
    // axis (TICK_SPAN_US virtual microseconds per tick).
    let mut arrivals = ArrivalProcess::poisson(97, 2_000.0);
    let mut next_due_us = arrivals.next_arrival_us();
    let retry = RetryPolicy {
        max_attempts: 16,
        base_delay_ms: 1,
        backoff: 1.5,
    };
    let bg_input = vec![0.25f32; serving_axis_len];
    let mut bg_offered = 0u64;
    let mut bg_served = 0u64;
    let mut bg_crash_retried = 0u64;

    let run_started = Instant::now();
    for _ in 0..ticks {
        let tick = monitor.tick().expect("monitor tick");
        if let Some(closed) = &tick.closed_episode {
            println!(
                "episode {}: {:?} open@{} confirm@{:?} close@{} ({:.0}ms) fit {:.3} -> {:.3} \
                 char x{} swap x{}{}",
                closed.episode,
                closed.outcome,
                closed.opened_at_tick,
                closed.confirmed_at_tick,
                closed.closed_at_tick,
                closed.open_to_terminal.as_secs_f64() * 1e3,
                closed.fit_at_open,
                closed.fit_at_close,
                closed.characterize_attempts,
                closed.swap_attempts,
                closed
                    .new_version
                    .map(|v| format!(" -> v{v}"))
                    .unwrap_or_default(),
            );
        }
        // Background arrivals due inside this tick's virtual span.
        let tick_end_us = tick.tick as f64 * TICK_SPAN_US;
        let mut due = 0usize;
        while next_due_us <= tick_end_us && due < MAX_BG_PER_TICK {
            next_due_us = arrivals.next_arrival_us();
            due += 1;
        }
        let mut tickets = Vec::with_capacity(due);
        for _ in 0..due {
            bg_offered += 1;
            let request = Request::new("mms", bg_input.clone())
                .with_deadline(Duration::from_secs(5));
            tickets.push(
                router
                    .submit_with_retry(request, retry)
                    .expect("background submission within retry budget"),
            );
        }
        for ticket in tickets {
            let mut outcome = ticket.wait();
            // A crash-resolved background request is resubmitted, same
            // zero-drop policy as the monitor's own windows.
            let mut attempts = 0;
            while matches!(outcome, Err(serve::ServeError::WorkerCrashed)) && attempts < 8 {
                attempts += 1;
                bg_crash_retried += 1;
                let request = Request::new("mms", bg_input.clone())
                    .with_deadline(Duration::from_secs(5));
                outcome = match router.submit_with_retry(request, retry) {
                    Ok(ticket) => ticket.wait(),
                    Err(_) => Err(serve::ServeError::WorkerCrashed),
                };
            }
            match outcome {
                Ok(_) => bg_served += 1,
                Err(err) => panic!("background request dropped: {err}"),
            }
        }
    }
    let run_seconds = run_started.elapsed().as_secs_f64();
    let report = monitor.into_report().expect("episode conservation");
    report.check_conservation().expect("episode conservation");
    let router_report = router.report();
    router.shutdown();
    if let Some(trace_path) = trace.finish() {
        validate_trace(&trace_path, report.ticks);
    }

    // ── The ISSUE invariants ────────────────────────────────────────
    assert_eq!(report.dropped, 0, "monitor dropped requests: {report:?}");
    assert_eq!(bg_offered, bg_served, "background traffic dropped");
    let swapped: Vec<_> = report
        .episodes
        .iter()
        .filter(|e| e.outcome == EpisodeOutcome::Swapped)
        .collect();
    assert!(
        swapped.len() >= 2,
        "expected >=2 drift->recharacterize->swap episodes, got {:?}",
        report.episodes
    );
    assert!(!report.open_episode, "an episode leaked past the run");
    let final_fit = report.final_fit.expect("final window scored");
    assert!(
        final_fit < 0.3,
        "post-swap fit {final_fit:.3} did not recover under the drift threshold"
    );

    println!(
        "loop:       {} ticks in {run_seconds:.2}s — {} episodes ({} swapped), serving v{}",
        report.ticks,
        report.episodes.len(),
        swapped.len(),
        report.serving_version.unwrap_or(0),
    );
    println!(
        "traffic:    monitor {} served / {} dropped ({} resubmitted), background {} served \
         ({} crash-retried)",
        report.served, report.dropped, report.resubmitted, bg_served, bg_crash_retried,
    );
    println!(
        "stream:     {} sensor dropouts absorbed, {} windows rejected at the fit boundary",
        report.sensor_dropouts, report.windows_rejected,
    );
    println!(
        "recovery:   final fit {final_fit:.3} (baseline {:?}) after {} swaps",
        report.final_baseline.map(|b| (b * 1000.0).round() / 1000.0),
        swapped.len(),
    );

    // ── Publish ─────────────────────────────────────────────────────
    let episodes_json: Vec<serde_json::Value> = report
        .episodes
        .iter()
        .map(|e| {
            serde_json::json!({
                "episode": e.episode,
                "outcome": format!("{:?}", e.outcome),
                "opened_at_tick": e.opened_at_tick,
                "confirmed_at_tick": e.confirmed_at_tick,
                "closed_at_tick": e.closed_at_tick,
                "detect_to_swap_ms": e.open_to_terminal.as_secs_f64() * 1e3,
                "fit_at_open": e.fit_at_open,
                "fit_at_close": e.fit_at_close,
                "new_version": e.new_version,
                "characterize_attempts": e.characterize_attempts,
                "swap_attempts": e.swap_attempts,
                "calibration_dropouts": e.calibration_dropouts,
                "failure": e.failure,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "bench": "monitor_loop",
        "smoke": smoke,
        "ticks": report.ticks,
        "run_seconds": run_seconds,
        "episodes": episodes_json,
        "episodes_swapped": swapped.len(),
        "served": report.served,
        "dropped": report.dropped,
        "resubmitted": report.resubmitted,
        "background_served": bg_served,
        "background_crash_retried": bg_crash_retried,
        "sensor_dropouts": report.sensor_dropouts,
        "windows_rejected": report.windows_rejected,
        "final_fit": final_fit,
        "final_baseline": report.final_baseline,
        "serving_version": report.serving_version,
        "router_restarts": router_report.restarts,
        "router_failovers": router_report.failovers,
    });
    let out = repo_root().join("BENCH_serve.json");
    merge_into_bench_json(&out, serde_json::json!({ "monitor_loop": payload }));
    println!("wrote {} (monitor_loop section)", out.display());

    let rows: Vec<String> = report
        .episodes
        .iter()
        .map(|e| {
            format!(
                "{},{:?},{},{},{},{:.1},{:.4},{:.4},{},{}",
                e.episode,
                e.outcome,
                e.opened_at_tick,
                e.confirmed_at_tick.map_or(0, |t| t),
                e.closed_at_tick,
                e.open_to_terminal.as_secs_f64() * 1e3,
                e.fit_at_open,
                e.fit_at_close,
                e.characterize_attempts,
                e.swap_attempts,
            )
        })
        .collect();
    let csv = write_csv(
        "monitor_loop.csv",
        "episode,outcome,opened_tick,confirmed_tick,closed_tick,detect_to_swap_ms,fit_open,fit_close,characterize_attempts,swap_attempts",
        &rows,
    );
    println!("wrote {}", csv.display());
}

/// Parses the chrome-trace profile and asserts the loop's spans landed:
/// one `monitor.tick` per tick, with the recharacterization phases
/// present.
fn validate_trace(path: &std::path::Path, ticks: u64) {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace must be valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e["ph"] == "X" && e["name"] == name)
            .count() as u64
    };
    let tick_spans = count("monitor.tick");
    let step_spans = count("monitor.recharacterize_step");
    let train_spans = count("monitor.train");
    assert_eq!(
        tick_spans, ticks,
        "trace must carry one monitor.tick span per tick"
    );
    assert!(
        step_spans >= 2 && train_spans >= 2,
        "trace must show the recharacterization phases \
         ({step_spans} steps, {train_spans} trainings)"
    );
    println!(
        "trace:      {} events ({tick_spans} monitor.tick, {step_spans} recharacterize steps)",
        events.len(),
    );
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

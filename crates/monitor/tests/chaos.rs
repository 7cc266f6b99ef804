//! The ISSUE acceptance scenario: a deterministic chaos run of the full
//! closed loop — drift schedule + sensor dropout + injected
//! characterization failure + mid-swap worker panics — completing two
//! full drift → recharacterize → swap episodes with zero dropped
//! requests, every episode reaching exactly one terminal, and the
//! post-swap model fit recovering below the drift threshold.

use std::sync::Arc;

use chem::Mixture;
use faultsim::FaultPlan;
use monitor::{
    bootstrap, DetectorConfig, DriftAction, DriftDetector, DriftSchedule, EpisodeOutcome,
    MonitorConfig, MonitorLoop, MonitorReport, MsStream, RecharacterizeConfig, SpectraStream,
};
use ms_sim::instrument::InstrumentModel;
use serve::{ModelRegistry, Router, RouterConfig, SupervisorConfig};
use std::time::Duration;

/// Supervision tuned to the test's tick rate: monitor ticks run in a
/// couple of milliseconds, so shard healing (detect the dead worker,
/// restart, close the circuit) must complete within a few of them.
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

fn process_mixture() -> Mixture {
    Mixture::from_fractions(vec![
        ("N2".into(), 0.55),
        ("O2".into(), 0.18),
        ("Ar".into(), 0.02),
        ("CO2".into(), 0.25),
    ])
    .unwrap()
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

/// Runs the full chaos scenario once and returns the report.
fn run_chaos_scenario(verbose: bool) -> MonitorReport {
    let base = MsStream::new(7, process_mixture(), 4, DriftSchedule::new())
        .true_instrument()
        .clone();
    // Bootstrap consumes 28 calibration draws; the detector then learns
    // over 6 windows of 4. Drift one lands at position 60 (tick 9's
    // window), drift two well after episode one has closed.
    let schedule = DriftSchedule::new()
        .at(60, DriftAction::SetInstrument(drift_one(&base)))
        .at(260, DriftAction::SetInstrument(drift_two(&base)));
    let mut stream = MsStream::new(7, process_mixture(), 4, schedule);

    // Chaos: dropouts in the learning phase (including one whole
    // window), dropouts in episode one's calibration campaign, the
    // first re-characterization attempt fails, and the next two swap
    // canaries are killed by worker panics.
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

    let store = datastore::Store::in_memory();
    let registry = Arc::new(ModelRegistry::new());
    let config = RecharacterizeConfig::quick("mms").unwrap();
    let boot = bootstrap(&mut stream, &store, &registry, &config, &plan).unwrap();
    assert_eq!(boot.version, 1);

    let router = Router::start_with_faults(
        Arc::clone(&registry),
        fast_supervision(),
        Some(Arc::clone(&plan)),
    )
    .unwrap();

    let detector = DriftDetector::new(DetectorConfig::default()).unwrap();
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
    .unwrap();

    let mut report = None;
    for _ in 0..80 {
        let tick = monitor.tick().unwrap();
        if verbose {
            let health: Vec<String> = router
                .report()
                .shards
                .iter()
                .map(|s| s.health.clone())
                .collect();
            eprintln!(
                "tick {:>2} pos {:>3} state {:<16} verdict {:?} fit {:?} served {} drop {} health {:?}",
                tick.tick,
                monitor.stream().position(),
                tick.state.to_string(),
                tick.verdict,
                tick.fit_distance.map(|f| (f * 1000.0).round() / 1000.0),
                tick.served,
                tick.dropouts,
                health,
            );
        }
        if let Some(closed) = &tick.closed_episode {
            if verbose {
                eprintln!("  closed episode {closed:?}");
            }
        }
        report = Some(tick);
    }
    let _ = report;
    monitor.into_report().unwrap()
}

#[test]
fn closed_loop_survives_chaos_and_recovers() {
    let report = run_chaos_scenario(std::env::var("CHAOS_VERBOSE").is_ok());
    report.check_conservation().unwrap();

    // Zero-drop invariant: every submitted request completed with a
    // prediction, through dropouts, worker panics and two swaps.
    assert_eq!(report.dropped, 0, "dropped requests: {report:?}");
    assert_eq!(report.ticks, 80);
    assert_eq!(report.served, 80 * 4);

    // Two full drift → recharacterize → swap episodes, each with
    // exactly one terminal.
    let swapped: Vec<_> = report
        .episodes
        .iter()
        .filter(|e| e.outcome == EpisodeOutcome::Swapped)
        .collect();
    assert!(
        swapped.len() >= 2,
        "expected ≥2 swapped episodes, got {:?}",
        report.episodes
    );
    for episode in &report.episodes {
        assert!(episode.confirmed_at_tick.is_some() || episode.outcome == EpisodeOutcome::Suppressed);
        assert!(episode.closed_at_tick >= episode.opened_at_tick);
    }

    // Version lineage: bootstrap v1, then one recharacterized model per
    // swapped episode.
    assert_eq!(swapped[0].new_version, Some(2));
    assert_eq!(swapped[1].new_version, Some(3));
    assert_eq!(report.serving_version, Some(3));

    // The injected characterization failure consumed a retry on episode
    // one; the armed canary panics consumed swap retries.
    assert_eq!(swapped[0].characterize_attempts, 2);
    assert!(swapped[0].swap_attempts >= 2, "{:?}", swapped[0]);
    assert_eq!(swapped[1].characterize_attempts, 1);

    // All eight scheduled dropouts were absorbed: seven landed in
    // monitoring windows (the report's count), one in episode one's
    // calibration campaign (discarded before the estimator saw it).
    assert_eq!(report.sensor_dropouts, 7);
    assert_eq!(swapped[0].calibration_dropouts, 1);
    assert_eq!(swapped[1].calibration_dropouts, 0);
    // Tick 4's window was entirely dropped and rejected at the fit
    // boundary rather than poisoning the detector.
    assert_eq!(report.windows_rejected, 1, "{report:?}");

    // Post-swap recovery: both episodes opened far above the drift
    // threshold and the loop ends with the fit back at baseline scale.
    for episode in &swapped {
        assert!(
            episode.fit_at_open > 0.3,
            "episode opened at fit {}",
            episode.fit_at_open
        );
    }
    let final_fit = report.final_fit.expect("final window scored");
    assert!(final_fit < 0.3, "final fit {final_fit} did not recover");
    assert!(!report.open_episode);
}

#[test]
fn chaos_scenario_is_deterministic() {
    let a = run_chaos_scenario(false);
    let b = run_chaos_scenario(false);
    assert_eq!(a.episodes.len(), b.episodes.len());
    for (ea, eb) in a.episodes.iter().zip(&b.episodes) {
        assert_eq!(ea.outcome, eb.outcome);
        assert_eq!(ea.new_version, eb.new_version);
        assert_eq!(ea.characterize_attempts, eb.characterize_attempts);
        assert_eq!(ea.swap_attempts, eb.swap_attempts);
        assert_eq!(ea.calibration_dropouts, eb.calibration_dropouts);
    }
    // Detection timing before any swap is purely data-driven, so the
    // first episode's open/confirm ticks replay exactly. (Later ticks
    // can shift by how many ticks the supervisor needed to heal the
    // panicked shard — wall-clock, not data.)
    assert_eq!(a.episodes[0].opened_at_tick, b.episodes[0].opened_at_tick);
    assert_eq!(
        a.episodes[0].confirmed_at_tick,
        b.episodes[0].confirmed_at_tick
    );
    assert!((a.episodes[0].fit_at_open - b.episodes[0].fit_at_open).abs() < 1e-12);
    assert_eq!(a.served, b.served);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.sensor_dropouts, b.sensor_dropouts);
    assert_eq!(a.serving_version, b.serving_version);
}

#[test]
fn quiet_stream_stays_stable() {
    let stream = MsStream::new(21, process_mixture(), 4, DriftSchedule::new());
    let mut boot_stream = stream.clone();
    let plan = Arc::new(FaultPlan::new());
    let store = datastore::Store::in_memory();
    let registry = Arc::new(ModelRegistry::new());
    let config = RecharacterizeConfig::quick("mms").unwrap();
    let boot = bootstrap(&mut boot_stream, &store, &registry, &config, &plan).unwrap();
    let router = Router::start_with_faults(
        Arc::clone(&registry),
        fast_supervision(),
        Some(Arc::clone(&plan)),
    )
    .unwrap();
    let detector = DriftDetector::new(DetectorConfig::default()).unwrap();
    let monitor = MonitorLoop::new(
        boot_stream,
        detector,
        &router,
        &store,
        &plan,
        MonitorConfig::default(),
        config,
        boot.believed,
        boot.version,
    )
    .unwrap();
    let report = monitor.run(12).unwrap();
    report.check_conservation().unwrap();
    assert!(report.episodes.is_empty(), "{:?}", report.episodes);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.served, 48);
    assert_eq!(report.serving_version, Some(1));
    assert!(!report.open_episode);
}

//! The supervised monitoring lifecycle: stream → serve → score →
//! detect → recharacterize → swap, as one tick-driven state machine.
//!
//! ```text
//!            ┌──────────────────────────────────────────────┐
//!            ▼                                              │ swap ok
//!   Stable ──suspected──▶ DriftSuspected ──confirmed──▶ Recharacterizing
//!     ▲ ▲                     │ cleared                  (→ Swapping)
//!     │ └────suppressed───────┘                              │ failed
//!     └───────── cooldown elapsed ◀──── CoolingDown ◀────────┘
//! ```
//!
//! Episode accounting is conservative by construction: an episode opens
//! at the first `Suspected` verdict and is closed exactly once, with
//! exactly one terminal — `Suppressed` (the suspicion cleared before
//! confirmation), `Swapped` (a new model is serving), or `RolledBack`
//! (recharacterization exhausted its retries; the previous model keeps
//! serving and the loop cools down before re-alarming).
//!
//! Every tick performs one window of *real* inference through the
//! sharded router. Requests are never dropped: transient rejections are
//! retried with backoff, and a request resolved by the crash-completion
//! path (`WorkerCrashed`) is resubmitted — the supervisor restarts the
//! shard underneath. The dropped-request count the report carries is
//! asserted to be zero by the chaos suite and the `monitor_loop` bench.

use std::time::{Duration, Instant};

use chem::fragmentation::GasLibrary;
use chem::Mixture;
use datastore::Store;
use faultsim::FaultPlan;
use ms_sim::instrument::InstrumentModel;
use ms_sim::simulate::TrainingSimulator;
use serve::{Request, RetryPolicy, Router, ServeError, SubmitError};
use spectrum::ContinuousSpectrum;

use crate::detector::{spectral_fit, DriftDetector, Verdict};
use crate::recharacterize::{RecharacterizeConfig, Recharacterizer, StepOutcome};
use crate::stream::{MsStream, SpectraStream};
use crate::MonitorError;

/// Lifecycle state of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopState {
    /// Serving and scoring; no open episode.
    Stable,
    /// An episode is open; waiting for the detector to confirm or
    /// clear.
    DriftSuspected,
    /// Confirmed drift; the recharacterizer is running (collect,
    /// characterize, train, publish).
    Recharacterizing,
    /// The recharacterizer is in its swap phase.
    Swapping,
    /// A rollback just happened; alarms are suppressed while the loop
    /// cools down.
    CoolingDown,
}

impl std::fmt::Display for LoopState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            LoopState::Stable => "stable",
            LoopState::DriftSuspected => "drift-suspected",
            LoopState::Recharacterizing => "recharacterizing",
            LoopState::Swapping => "swapping",
            LoopState::CoolingDown => "cooling-down",
        };
        write!(f, "{name}")
    }
}

/// How one episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeOutcome {
    /// A recharacterized model is serving.
    Swapped,
    /// Recharacterization failed; the previous model kept serving.
    RolledBack,
    /// The suspicion cleared before confirmation (false alarm).
    Suppressed,
}

/// One closed drift episode.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// 1-based episode number.
    pub episode: usize,
    /// Tick at which the episode opened (first `Suspected`).
    pub opened_at_tick: u64,
    /// Tick at which drift was confirmed, if it was.
    pub confirmed_at_tick: Option<u64>,
    /// Tick at which the terminal was reached.
    pub closed_at_tick: u64,
    /// The terminal.
    pub outcome: EpisodeOutcome,
    /// Wall-clock time from episode open to terminal.
    pub open_to_terminal: Duration,
    /// Mean fit distance of the window that opened the episode.
    pub fit_at_open: f64,
    /// Mean fit distance of the last scored window before close.
    pub fit_at_close: f64,
    /// The version now serving, for `Swapped` terminals.
    pub new_version: Option<u32>,
    /// Characterization attempts consumed (injected failures included).
    pub characterize_attempts: u32,
    /// Rolling-swap attempts consumed (failed canaries included).
    pub swap_attempts: u32,
    /// Calibration measurements lost to sensor dropout.
    pub calibration_dropouts: u64,
    /// Why the episode rolled back, when it did.
    pub failure: Option<String>,
}

/// An episode that is still open.
struct OpenEpisode {
    episode: usize,
    opened_at_tick: u64,
    confirmed_at_tick: Option<u64>,
    opened_at: Instant,
    fit_at_open: f64,
}

/// Tuning for [`MonitorLoop`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Ticks the loop stays in `CoolingDown` after a rollback.
    pub cooldown_ticks: u64,
    /// Resubmissions allowed per request after `WorkerCrashed`.
    pub resubmit_attempts: u32,
    /// Deadline attached to every inference request.
    pub request_deadline: Duration,
    /// Submission retry policy for transient rejections.
    pub retry: RetryPolicy,
    /// Worker panics to arm right before swap attempts (deterministic
    /// mid-swap chaos; 0 in production).
    pub chaos_mid_swap_panics: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            cooldown_ticks: 5,
            resubmit_attempts: 8,
            request_deadline: Duration::from_secs(5),
            retry: RetryPolicy {
                max_attempts: 6,
                base_delay_ms: 1,
                backoff: 2.0,
            },
            chaos_mid_swap_panics: 0,
        }
    }
}

/// What one tick did (for drivers that interleave their own traffic).
#[derive(Debug, Clone)]
pub struct TickReport {
    /// 1-based tick number.
    pub tick: u64,
    /// Lifecycle state after the tick.
    pub state: LoopState,
    /// Detector verdict for this tick's window, if it was scored.
    pub verdict: Option<Verdict>,
    /// Mean fit distance of this tick's window, if it was scored.
    pub fit_distance: Option<f64>,
    /// Requests served this tick.
    pub served: u64,
    /// Requests resubmitted after a worker crash this tick.
    pub resubmitted: u64,
    /// Sensor dropouts in this tick's window.
    pub dropouts: u64,
    /// An episode that reached its terminal this tick, if any.
    pub closed_episode: Option<EpisodeReport>,
}

/// The final report of a monitoring run.
#[derive(Debug)]
pub struct MonitorReport {
    /// Ticks executed.
    pub ticks: u64,
    /// Closed episodes, in order.
    pub episodes: Vec<EpisodeReport>,
    /// Whether an episode was still open when the run ended.
    pub open_episode: bool,
    /// Inference requests served (completed with a prediction).
    pub served: u64,
    /// Requests dropped — the zero-drop invariant; must stay 0.
    pub dropped: u64,
    /// Resubmissions after worker crashes.
    pub resubmitted: u64,
    /// Window measurements lost to sensor dropout.
    pub sensor_dropouts: u64,
    /// Windows whose fit score was rejected at the boundary
    /// (degenerate/zero-variance windows, e.g. all samples dropped).
    pub windows_rejected: u64,
    /// Lifecycle state at the end of the run.
    pub final_state: LoopState,
    /// Last scored mean fit distance.
    pub final_fit: Option<f64>,
    /// The detector baseline at the end of the run, if learned.
    pub final_baseline: Option<f64>,
    /// The version serving at the end of the run.
    pub serving_version: Option<u32>,
}

impl MonitorReport {
    /// Episode-conservation check: every closed episode carries exactly
    /// one terminal and the episode numbers are dense (1..=n).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Invariant`] describing the first violation.
    pub fn check_conservation(&self) -> Result<(), MonitorError> {
        for (index, episode) in self.episodes.iter().enumerate() {
            if episode.episode != index + 1 {
                return Err(MonitorError::Invariant(format!(
                    "episode numbering gap: slot {} holds episode {}",
                    index + 1,
                    episode.episode
                )));
            }
            let swapped_fields = episode.new_version.is_some();
            match episode.outcome {
                EpisodeOutcome::Swapped if !swapped_fields => {
                    return Err(MonitorError::Invariant(format!(
                        "episode {} swapped without a version",
                        episode.episode
                    )));
                }
                EpisodeOutcome::RolledBack | EpisodeOutcome::Suppressed if swapped_fields => {
                    return Err(MonitorError::Invariant(format!(
                        "episode {} carries a version despite terminal {:?}",
                        episode.episode, episode.outcome
                    )));
                }
                _ => {}
            }
            if episode.closed_at_tick < episode.opened_at_tick {
                return Err(MonitorError::Invariant(format!(
                    "episode {} closed before it opened",
                    episode.episode
                )));
            }
        }
        Ok(())
    }
}

/// The closed monitoring loop. Owns the stream, detector and episode
/// ledger; borrows the serving fleet.
pub struct MonitorLoop<'a> {
    stream: MsStream,
    detector: DriftDetector,
    router: &'a Router,
    store: &'a Store,
    faults: &'a FaultPlan,
    config: MonitorConfig,
    recharacterize: RecharacterizeConfig,
    believed: InstrumentModel,
    believed_render: ContinuousSpectrum,
    serving_version: u32,
    state: LoopState,
    cooldown_remaining: u64,
    active: Option<Recharacterizer>,
    open_episode: Option<OpenEpisode>,
    episodes: Vec<EpisodeReport>,
    chaos_mid_swap_panics: u32,
    tick: u64,
    served: u64,
    dropped: u64,
    resubmitted: u64,
    sensor_dropouts: u64,
    windows_rejected: u64,
    last_fit: Option<f64>,
}

impl<'a> MonitorLoop<'a> {
    /// Builds a loop around a bootstrapped fleet: `believed` is the
    /// instrument estimate behind `serving_version` (from
    /// [`crate::recharacterize::bootstrap`]).
    ///
    /// # Errors
    ///
    /// [`MonitorError::Ms`] if the believed render cannot be produced
    /// (unknown gas in the process mixture).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stream: MsStream,
        detector: DriftDetector,
        router: &'a Router,
        store: &'a Store,
        faults: &'a FaultPlan,
        config: MonitorConfig,
        recharacterize: RecharacterizeConfig,
        believed: InstrumentModel,
        serving_version: u32,
    ) -> Result<Self, MonitorError> {
        let believed_render = render_belief(&believed, &stream)?;
        let chaos = config.chaos_mid_swap_panics;
        Ok(Self {
            stream,
            detector,
            router,
            store,
            faults,
            config,
            recharacterize,
            believed,
            believed_render,
            serving_version,
            state: LoopState::Stable,
            cooldown_remaining: 0,
            active: None,
            open_episode: None,
            episodes: Vec::new(),
            chaos_mid_swap_panics: chaos,
            tick: 0,
            served: 0,
            dropped: 0,
            resubmitted: 0,
            sensor_dropouts: 0,
            windows_rejected: 0,
            last_fit: None,
        })
    }

    /// The lifecycle state.
    pub fn state(&self) -> LoopState {
        self.state
    }

    /// The version the loop believes is serving.
    pub fn serving_version(&self) -> u32 {
        self.serving_version
    }

    /// The instrument estimate behind the serving model.
    pub fn believed(&self) -> &InstrumentModel {
        &self.believed
    }

    /// The stream (for checkpointing between ticks).
    pub fn stream(&self) -> &MsStream {
        &self.stream
    }

    /// Runs `ticks` ticks and returns the final report.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable tick errors.
    pub fn run(mut self, ticks: u64) -> Result<MonitorReport, MonitorError> {
        for _ in 0..ticks {
            self.tick()?;
        }
        self.into_report()
    }

    /// Finalizes the run without further ticks.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Invariant`] if episode conservation is violated.
    pub fn into_report(self) -> Result<MonitorReport, MonitorError> {
        let report = MonitorReport {
            ticks: self.tick,
            open_episode: self.open_episode.is_some(),
            episodes: self.episodes,
            served: self.served,
            dropped: self.dropped,
            resubmitted: self.resubmitted,
            sensor_dropouts: self.sensor_dropouts,
            windows_rejected: self.windows_rejected,
            final_state: self.state,
            final_fit: self.last_fit,
            final_baseline: self.detector.baseline(),
            serving_version: Some(self.serving_version),
        };
        report.check_conservation()?;
        Ok(report)
    }

    /// One tick: acquire a window, serve it, score it, feed the
    /// detector, advance the lifecycle.
    ///
    /// # Errors
    ///
    /// Unrecoverable stream/serve faults only; everything the loop is
    /// designed to absorb (dropouts, crashes, tool failures) is handled
    /// and accounted instead.
    pub fn tick(&mut self) -> Result<TickReport, MonitorError> {
        let _span = obs::span!("monitor.tick");
        self.tick += 1;
        obs::counter_add("monitor.ticks", 1);

        // 1. Acquire and serve one window. All tickets are awaited
        //    before anything else happens this tick, so no traffic is
        //    in flight when the recharacterizer steps (that quiescence
        //    is what makes armed mid-swap panics land on the canary).
        let window = self.stream.next_window(self.faults)?;
        self.sensor_dropouts += window.dropouts;
        let (served_now, resubmitted_now) = self.serve_window(&window.spectra)?;

        // 2. Score the window against the believed instrument.
        let fit = self.score_window(&window.spectra);
        if let Some(distance) = fit {
            self.last_fit = Some(distance);
        } else {
            self.windows_rejected += 1;
        }

        // 3. Feed the detector (only scored windows count).
        let verdict = fit.map(|distance| self.detector.observe(distance));

        // 4. Advance the lifecycle.
        let closed = self.advance(verdict, fit)?;

        obs::gauge_set("monitor.state", state_gauge(self.state));
        Ok(TickReport {
            tick: self.tick,
            state: self.state,
            verdict,
            fit_distance: fit,
            served: served_now,
            resubmitted: resubmitted_now,
            dropouts: window.dropouts,
            closed_episode: closed,
        })
    }

    /// Submits every window sample for inference and waits for all of
    /// them. Worker crashes are resubmitted (bounded); only exhausting
    /// the resubmission budget counts as a drop.
    fn serve_window(&mut self, spectra: &[ContinuousSpectrum]) -> Result<(u64, u64), MonitorError> {
        let mut served = 0u64;
        let mut resubmitted = 0u64;
        let inputs: Vec<Vec<f32>> = spectra
            .iter()
            .map(|s| s.resampled(&self.recharacterize.serving_axis).to_f32())
            .collect();
        let mut tickets = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let request = Request::new(self.recharacterize.model_name.clone(), input.clone())
                .with_deadline(self.config.request_deadline);
            tickets.push(self.router.submit_with_retry(request, self.config.retry));
        }
        for (index, ticket) in tickets.into_iter().enumerate() {
            let mut outcome = match ticket {
                Ok(ticket) => ticket.wait(),
                Err(err) => {
                    // Admission kept rejecting: account the drop, keep
                    // the loop alive (the invariant assert catches it).
                    self.dropped += 1;
                    obs::counter_add("monitor.dropped", 1);
                    let _: SubmitError = err;
                    continue;
                }
            };
            let mut attempts = 0;
            while matches!(outcome, Err(ServeError::WorkerCrashed))
                && attempts < self.config.resubmit_attempts
            {
                attempts += 1;
                resubmitted += 1;
                obs::counter_add("monitor.resubmitted", 1);
                let input = match inputs.get(index) {
                    Some(input) => input.clone(),
                    None => break,
                };
                let request = Request::new(self.recharacterize.model_name.clone(), input)
                    .with_deadline(self.config.request_deadline);
                outcome = match self.router.submit_with_retry(request, self.config.retry)
                {
                    Ok(ticket) => ticket.wait(),
                    Err(_) => Err(ServeError::WorkerCrashed),
                };
            }
            match outcome {
                Ok(_prediction) => served += 1,
                Err(_) => {
                    self.dropped += 1;
                    obs::counter_add("monitor.dropped", 1);
                }
            }
        }
        self.served += served;
        self.resubmitted += resubmitted;
        Ok((served, resubmitted))
    }

    /// Mean TV distance of the window's valid samples against the
    /// believed render. Degenerate samples (all-zero dropouts,
    /// non-finite data) are rejected by `spectral_fit` at the boundary;
    /// a window with no valid samples scores `None`.
    fn score_window(&self, spectra: &[ContinuousSpectrum]) -> Option<f64> {
        let modelled = self.believed_render.intensities();
        let mut total = 0.0;
        let mut count = 0usize;
        for spectrum in spectra {
            match spectral_fit(modelled, spectrum.intensities()) {
                Ok(fit) => {
                    total += fit.distance;
                    count += 1;
                }
                Err(_) => obs::counter_add("monitor.samples_rejected", 1),
            }
        }
        if count == 0 {
            None
        } else {
            Some(total / count as f64)
        }
    }

    /// Lifecycle transitions for one tick.
    fn advance(
        &mut self,
        verdict: Option<Verdict>,
        fit: Option<f64>,
    ) -> Result<Option<EpisodeReport>, MonitorError> {
        match self.state {
            LoopState::Stable => {
                if let Some(Verdict::Suspected | Verdict::Confirmed) = verdict {
                    self.open_episode(fit)?;
                    self.state = LoopState::DriftSuspected;
                    if matches!(verdict, Some(Verdict::Confirmed)) {
                        return self.confirm_episode();
                    }
                }
                Ok(None)
            }
            LoopState::DriftSuspected => match verdict {
                Some(Verdict::Confirmed) => self.confirm_episode(),
                Some(Verdict::Stable) => {
                    let report = self.close_episode(EpisodeOutcome::Suppressed, None, None)?;
                    self.state = LoopState::Stable;
                    Ok(Some(report))
                }
                _ => Ok(None),
            },
            LoopState::Recharacterizing | LoopState::Swapping => self.step_recharacterizer(),
            LoopState::CoolingDown => {
                self.cooldown_remaining = self.cooldown_remaining.saturating_sub(1);
                if self.cooldown_remaining == 0 {
                    self.detector.reset();
                    self.state = LoopState::Stable;
                }
                Ok(None)
            }
        }
    }

    /// Opens an episode at the first suspicion.
    fn open_episode(&mut self, fit: Option<f64>) -> Result<(), MonitorError> {
        if self.open_episode.is_some() {
            return Err(MonitorError::Invariant(
                "opening an episode while one is open".into(),
            ));
        }
        let episode = self.episodes.len() + 1;
        obs::counter_add("monitor.episodes_opened", 1);
        self.open_episode = Some(OpenEpisode {
            episode,
            opened_at_tick: self.tick,
            confirmed_at_tick: None,
            opened_at: Instant::now(),
            fit_at_open: fit.or(self.last_fit).unwrap_or(f64::NAN),
        });
        Ok(())
    }

    /// Escalates the open episode to confirmed drift.
    fn confirm_episode(&mut self) -> Result<Option<EpisodeReport>, MonitorError> {
        let Some(open) = self.open_episode.as_mut() else {
            return Err(MonitorError::Invariant(
                "confirming drift without an open episode".into(),
            ));
        };
        open.confirmed_at_tick = Some(self.tick);
        let seed = open.episode as u64;
        self.active = Some(Recharacterizer::begin(self.recharacterize.clone(), seed));
        self.state = LoopState::Recharacterizing;
        obs::counter_add("monitor.episodes_confirmed", 1);
        Ok(None)
    }

    /// Advances the recharacterizer by one sub-phase and applies its
    /// outcome to the lifecycle.
    fn step_recharacterizer(&mut self) -> Result<Option<EpisodeReport>, MonitorError> {
        let Some(mut rech) = self.active.take() else {
            return Err(MonitorError::Invariant(
                "recharacterizing state without an active recharacterizer".into(),
            ));
        };
        let mut chaos = self.chaos_mid_swap_panics;
        let outcome = rech.step(
            &mut self.stream,
            self.router,
            self.store,
            self.faults,
            &mut chaos,
        )?;
        self.chaos_mid_swap_panics = chaos;
        match outcome {
            StepOutcome::InProgress { .. } => {
                self.state = if rech.is_swapping() {
                    LoopState::Swapping
                } else {
                    LoopState::Recharacterizing
                };
                self.active = Some(rech);
                Ok(None)
            }
            StepOutcome::Swapped { version, model, .. } => {
                self.serving_version = version;
                self.believed = model;
                self.believed_render = render_belief(&self.believed, &self.stream)?;
                self.detector.reset();
                let stats = (
                    rech.characterize_attempts,
                    rech.swap_attempts,
                    rech.calibration_dropouts,
                );
                let report =
                    self.close_episode(EpisodeOutcome::Swapped, Some(version), Some(stats))?;
                self.state = LoopState::Stable;
                obs::counter_add("monitor.episodes_swapped", 1);
                Ok(Some(report))
            }
            StepOutcome::Failed { reason } => {
                let stats = (
                    rech.characterize_attempts,
                    rech.swap_attempts,
                    rech.calibration_dropouts,
                );
                let mut report = self.close_episode(EpisodeOutcome::RolledBack, None, Some(stats))?;
                report.failure = Some(reason.clone());
                if let Some(slot) = self.episodes.last_mut() {
                    slot.failure = Some(reason);
                }
                self.detector.reset();
                self.cooldown_remaining = self.config.cooldown_ticks.max(1);
                self.state = LoopState::CoolingDown;
                obs::counter_add("monitor.episodes_rolled_back", 1);
                Ok(Some(report))
            }
        }
    }

    /// Closes the open episode with exactly one terminal.
    fn close_episode(
        &mut self,
        outcome: EpisodeOutcome,
        new_version: Option<u32>,
        stats: Option<(u32, u32, u64)>,
    ) -> Result<EpisodeReport, MonitorError> {
        let Some(open) = self.open_episode.take() else {
            return Err(MonitorError::Invariant(
                "closing an episode that is not open".into(),
            ));
        };
        let (characterize_attempts, swap_attempts, calibration_dropouts) =
            stats.unwrap_or((0, 0, 0));
        let report = EpisodeReport {
            episode: open.episode,
            opened_at_tick: open.opened_at_tick,
            confirmed_at_tick: open.confirmed_at_tick,
            closed_at_tick: self.tick,
            outcome,
            open_to_terminal: open.opened_at.elapsed(),
            fit_at_open: open.fit_at_open,
            fit_at_close: self.last_fit.unwrap_or(f64::NAN),
            new_version,
            characterize_attempts,
            swap_attempts,
            calibration_dropouts,
            failure: None,
        };
        self.episodes.push(report.clone());
        Ok(report)
    }
}

/// Renders the believed instrument's clean spectrum of the stream's
/// process mixture on the *stream* axis — the reference every window is
/// scored against.
fn render_belief(
    believed: &InstrumentModel,
    stream: &MsStream,
) -> Result<ContinuousSpectrum, MonitorError> {
    let simulator = TrainingSimulator::new(
        believed.clone(),
        GasLibrary::standard(),
        mixture_components(stream.mixture()),
        *stream.axis(),
    )?;
    Ok(simulator.simulate_clean(stream.mixture())?)
}

/// The component names of a mixture (the believed-render simulator only
/// needs the gases that actually appear).
fn mixture_components(mixture: &Mixture) -> Vec<String> {
    mixture.into_iter().map(|(name, _)| name.clone()).collect()
}

/// Numeric encoding of the lifecycle state for the `monitor.state`
/// gauge.
fn state_gauge(state: LoopState) -> f64 {
    match state {
        LoopState::Stable => 0.0,
        LoopState::DriftSuspected => 1.0,
        LoopState::Recharacterizing => 2.0,
        LoopState::Swapping => 3.0,
        LoopState::CoolingDown => 4.0,
    }
}

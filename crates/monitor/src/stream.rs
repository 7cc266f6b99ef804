//! Seeded, resumable spectra sources for the monitoring loop.
//!
//! A [`SpectraStream`] yields fixed-size windows of measured spectra.
//! The main implementation, [`MsStream`], wraps the MMS prototype
//! (`ms_sim::prototype`) and drives instrument drift through a
//! [`DriftSchedule`]: at scheduled measurement positions the *true*
//! instrument parameters (or the hidden prototype config) change, while
//! the measurement RNG stream keeps advancing deterministically — the
//! same seed and schedule replay bit-identically. [`NmrStream`] adapts
//! an `nmr_sim` flow-reactor acquisition to the same interface.
//!
//! Sensor dropout is injected at this boundary: when the fault plan's
//! `sensor_dropout` hook fires, the affected measurement comes back as
//! a dead (all-zero) detector read. Downstream, `spectral_fit` rejects
//! such windows with `FitError::ZeroVariance`, which is exactly the
//! "reject non-finite / degenerate data at the boundary" behaviour the
//! detector relies on.
//!
//! Resumability: [`MsStream::checkpoint`] records the seed plus the
//! mixture draw log; [`MsStream::resume`] replays that log (schedule
//! included) against a fresh prototype, landing in a bit-identical
//! state. Fault hooks never consume prototype randomness, so a resumed
//! stream continues exactly where the original would have.

use chem::Mixture;
use faultsim::FaultPlan;
use ms_sim::instrument::InstrumentModel;
use ms_sim::prototype::{MeasuredSample, MmsPrototype, PrototypeConfig};
use nmr_sim::experiment::{ExperimentConfig, FlowReactorExperiment};
use spectrum::{ContinuousSpectrum, UniformAxis};

use crate::MonitorError;

/// What a [`DriftEvent`] does to the instrument when it fires.
#[derive(Debug, Clone)]
pub enum DriftAction {
    /// Replace the *true* instrument parameters (attenuation, mass
    /// offset, peak width…) — shape drift that re-characterization can
    /// repair.
    SetInstrument(InstrumentModel),
    /// Replace the hidden prototype behaviour (humidity, gain
    /// fluctuation…) — environment drift outside the characterizer's
    /// model.
    SetConfig(PrototypeConfig),
}

/// One scheduled drift injection.
#[derive(Debug, Clone)]
pub struct DriftEvent {
    /// Stream position (measurements taken so far) at which the event
    /// fires, *before* that measurement is performed.
    pub at_measurement: u64,
    /// The mutation to apply.
    pub action: DriftAction,
}

/// An ordered schedule of drift injections.
#[derive(Debug, Clone, Default)]
pub struct DriftSchedule {
    events: Vec<DriftEvent>,
}

impl DriftSchedule {
    /// An empty schedule (a stable instrument).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event; events are kept sorted by position.
    #[must_use]
    pub fn at(mut self, at_measurement: u64, action: DriftAction) -> Self {
        self.events.push(DriftEvent {
            at_measurement,
            action,
        });
        self.events
            .sort_by_key(|event| event.at_measurement);
        self
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }
}

/// One window of measured spectra from a stream.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    /// Stream position of the window's first measurement.
    pub start: u64,
    /// The measured spectra, in acquisition order. Dropout-corrupted
    /// measurements are present but all-zero.
    pub spectra: Vec<ContinuousSpectrum>,
    /// How many of this window's measurements were sensor dropouts.
    pub dropouts: u64,
}

/// A resumable position in a [`MsStream`].
///
/// Replaying the draw log against a fresh prototype with the same seed
/// and schedule reproduces the stream state bit-identically (the fault
/// hooks consume no prototype randomness).
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    /// The stream seed.
    pub seed: u64,
    /// Every mixture measured so far, in order.
    pub draws: Vec<Mixture>,
}

impl StreamCheckpoint {
    /// The stream position this checkpoint captures.
    pub fn position(&self) -> u64 {
        self.draws.len() as u64
    }
}

/// A source of measurement windows for the monitoring loop.
pub trait SpectraStream {
    /// The spectral axis all windows share.
    fn axis(&self) -> &UniformAxis;

    /// Measurements taken so far.
    fn position(&self) -> u64;

    /// Acquires the next window, injecting sensor dropouts from
    /// `faults`.
    ///
    /// # Errors
    ///
    /// Propagates acquisition failures from the underlying instrument.
    fn next_window(&mut self, faults: &FaultPlan) -> Result<StreamWindow, MonitorError>;
}

/// The MMS prototype as a drifting measurement stream.
#[derive(Debug, Clone)]
pub struct MsStream {
    prototype: MmsPrototype,
    mixture: Mixture,
    window: usize,
    schedule: DriftSchedule,
    next_event: usize,
    seed: u64,
    draws: Vec<Mixture>,
}

impl MsStream {
    /// A stream measuring `mixture` in windows of `window` samples,
    /// with the default prototype behaviour.
    pub fn new(seed: u64, mixture: Mixture, window: usize, schedule: DriftSchedule) -> Self {
        Self::with_config(seed, PrototypeConfig::default(), mixture, window, schedule)
    }

    /// A stream with explicit hidden prototype behaviour.
    pub fn with_config(
        seed: u64,
        config: PrototypeConfig,
        mixture: Mixture,
        window: usize,
        schedule: DriftSchedule,
    ) -> Self {
        Self {
            prototype: MmsPrototype::with_config(seed, config),
            mixture,
            window: window.max(1),
            schedule,
            next_event: 0,
            seed,
            draws: Vec::new(),
        }
    }

    /// The process mixture this stream monitors.
    pub fn mixture(&self) -> &Mixture {
        &self.mixture
    }

    /// The *true* current instrument (inspection/tests only — the loop
    /// never looks at this).
    pub fn true_instrument(&self) -> &InstrumentModel {
        self.prototype.true_instrument()
    }

    /// Captures a resumable checkpoint of the stream.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            seed: self.seed,
            draws: self.draws.clone(),
        }
    }

    /// Reconstructs a stream from a checkpoint by replaying its draw
    /// log (with the same schedule and config), landing bit-identically
    /// where the original stream was.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors from the replay.
    pub fn resume(
        checkpoint: &StreamCheckpoint,
        config: PrototypeConfig,
        mixture: Mixture,
        window: usize,
        schedule: DriftSchedule,
    ) -> Result<Self, MonitorError> {
        let mut stream = Self::with_config(checkpoint.seed, config, mixture, window, schedule);
        for draw in &checkpoint.draws {
            stream.apply_due_events();
            stream.prototype.measure(draw)?;
            stream.draws.push(draw.clone());
        }
        Ok(stream)
    }

    /// Measures every mixture in `mixtures` `per_mixture` times — a
    /// calibration campaign drawn *through the stream* (drift events
    /// keep firing, the RNG keeps advancing). Dropout-corrupted
    /// measurements are discarded from the returned samples and counted
    /// instead: the characterizer must only ever see real detector
    /// reads.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors from the prototype.
    pub fn calibration_series(
        &mut self,
        mixtures: &[Mixture],
        per_mixture: usize,
        faults: &FaultPlan,
    ) -> Result<(Vec<MeasuredSample>, u64), MonitorError> {
        let mut samples = Vec::with_capacity(mixtures.len() * per_mixture);
        let mut dropouts = 0;
        for mixture in mixtures {
            for _ in 0..per_mixture {
                let (sample, dropped) = self.measure_one(&mixture.clone(), faults)?;
                if dropped {
                    dropouts += 1;
                } else {
                    samples.push(sample);
                }
            }
        }
        Ok((samples, dropouts))
    }

    /// Applies every scheduled event due at the current position.
    fn apply_due_events(&mut self) {
        while let Some(event) = self.schedule.events.get(self.next_event) {
            if event.at_measurement > self.position() {
                break;
            }
            match &event.action {
                DriftAction::SetInstrument(instrument) => {
                    self.prototype.set_instrument(instrument.clone());
                }
                DriftAction::SetConfig(config) => self.prototype.set_config(*config),
            }
            self.next_event += 1;
        }
    }

    /// One measurement with drift + dropout injection. Returns the
    /// sample and whether it was a dropout (all-zero read).
    fn measure_one(
        &mut self,
        mixture: &Mixture,
        faults: &FaultPlan,
    ) -> Result<(MeasuredSample, bool), MonitorError> {
        self.apply_due_events();
        let mut sample = self.prototype.measure(mixture)?;
        self.draws.push(mixture.clone());
        let dropped = faults.sensor_dropout();
        if dropped {
            sample.spectrum.intensities_mut().fill(0.0);
            obs::counter_add("monitor.sensor_dropouts", 1);
        }
        Ok((sample, dropped))
    }
}

impl SpectraStream for MsStream {
    fn axis(&self) -> &UniformAxis {
        self.prototype.axis()
    }

    fn position(&self) -> u64 {
        self.draws.len() as u64
    }

    fn next_window(&mut self, faults: &FaultPlan) -> Result<StreamWindow, MonitorError> {
        let start = self.position();
        let mut spectra = Vec::with_capacity(self.window);
        let mut dropouts = 0;
        let mixture = self.mixture.clone();
        for _ in 0..self.window {
            let (sample, dropped) = self.measure_one(&mixture, faults)?;
            if dropped {
                dropouts += 1;
            }
            spectra.push(sample.spectrum);
        }
        Ok(StreamWindow {
            start,
            spectra,
            dropouts,
        })
    }
}

/// An NMR flow-reactor acquisition replayed as a stream (cyclic over
/// the acquired spectra, so the loop can run longer than one
/// acquisition).
#[derive(Debug, Clone)]
pub struct NmrStream {
    spectra: Vec<ContinuousSpectrum>,
    axis: UniformAxis,
    window: usize,
    position: u64,
}

impl NmrStream {
    /// Acquires a seeded flow-reactor run and wraps it as a stream.
    ///
    /// # Errors
    ///
    /// Propagates acquisition failures, and reports an empty
    /// acquisition as [`MonitorError::Invariant`].
    pub fn new(seed: u64, config: ExperimentConfig, window: usize) -> Result<Self, MonitorError> {
        let run = FlowReactorExperiment::new(seed, config).acquire()?;
        if run.spectra.is_empty() {
            return Err(MonitorError::Invariant(
                "NMR acquisition produced no spectra".into(),
            ));
        }
        Ok(Self {
            spectra: run.spectra,
            axis: run.axis,
            window: window.max(1),
            position: 0,
        })
    }

}

impl SpectraStream for NmrStream {
    fn axis(&self) -> &UniformAxis {
        &self.axis
    }

    fn position(&self) -> u64 {
        self.position
    }

    fn next_window(&mut self, faults: &FaultPlan) -> Result<StreamWindow, MonitorError> {
        let start = self.position;
        let mut spectra = Vec::with_capacity(self.window);
        let mut dropouts = 0;
        for _ in 0..self.window {
            let index = (self.position as usize) % self.spectra.len();
            let mut spectrum = match self.spectra.get(index) {
                Some(spectrum) => spectrum.clone(),
                None => {
                    return Err(MonitorError::Invariant(
                        "NMR stream index out of range".into(),
                    ))
                }
            };
            if faults.sensor_dropout() {
                spectrum.intensities_mut().fill(0.0);
                dropouts += 1;
                obs::counter_add("monitor.sensor_dropouts", 1);
            }
            self.position += 1;
            spectra.push(spectrum);
        }
        Ok(StreamWindow {
            start,
            spectra,
            dropouts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_sim::prototype::ideal_config;

    fn process_mixture() -> Mixture {
        Mixture::from_fractions(vec![
            ("N2".into(), 0.55),
            ("O2".into(), 0.18),
            ("Ar".into(), 0.02),
            ("CO2".into(), 0.25),
        ])
        .unwrap()
    }

    fn drifted(base: &InstrumentModel) -> InstrumentModel {
        let mut instrument = base.clone();
        instrument.attenuation.rate = -1.0 / 60.0;
        instrument.mass_offset += 0.3;
        instrument
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let plan = FaultPlan::new();
        let mut a = MsStream::new(5, process_mixture(), 3, DriftSchedule::new());
        let mut b = MsStream::new(5, process_mixture(), 3, DriftSchedule::new());
        let wa = a.next_window(&plan).unwrap();
        let wb = b.next_window(&plan).unwrap();
        assert_eq!(wa.spectra, wb.spectra);
        assert_eq!(wa.start, 0);
        assert_eq!(a.position(), 3);
    }

    #[test]
    fn drift_schedule_fires_at_position() {
        let plan = FaultPlan::new();
        let base = MsStream::new(1, process_mixture(), 2, DriftSchedule::new())
            .true_instrument()
            .clone();
        let schedule = DriftSchedule::new().at(4, DriftAction::SetInstrument(drifted(&base)));
        let mut stable = MsStream::new(9, process_mixture(), 2, DriftSchedule::new());
        let mut drifting = MsStream::new(9, process_mixture(), 2, schedule);
        // Windows before the event are identical.
        let s1 = stable.next_window(&plan).unwrap();
        let d1 = drifting.next_window(&plan).unwrap();
        let s2 = stable.next_window(&plan).unwrap();
        let d2 = drifting.next_window(&plan).unwrap();
        assert_eq!(s1.spectra, d1.spectra);
        assert_eq!(s2.spectra, d2.spectra);
        assert_eq!(drifting.next_event, 0);
        // The window starting at position 4 sees the mutated instrument.
        let s3 = stable.next_window(&plan).unwrap();
        let d3 = drifting.next_window(&plan).unwrap();
        assert_ne!(s3.spectra, d3.spectra);
        assert_eq!(drifting.next_event, 1);
    }

    #[test]
    fn sensor_dropout_zeroes_the_read() {
        let plan = FaultPlan::new().with_sensor_dropout(1);
        let mut stream = MsStream::new(3, process_mixture(), 3, DriftSchedule::new());
        let window = stream.next_window(&plan).unwrap();
        assert_eq!(window.dropouts, 1);
        assert!(window.spectra[1].intensities().iter().all(|&v| v == 0.0));
        assert!(window.spectra[0].intensities().iter().any(|&v| v > 0.0));
        assert!(window.spectra[2].intensities().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let plan = FaultPlan::new();
        let base = MsStream::new(1, process_mixture(), 2, DriftSchedule::new())
            .true_instrument()
            .clone();
        let schedule = DriftSchedule::new().at(6, DriftAction::SetInstrument(drifted(&base)));
        let mut original = MsStream::with_config(
            17,
            ideal_config(),
            process_mixture(),
            2,
            schedule.clone(),
        );
        original.next_window(&plan).unwrap();
        let mixtures = ms_sim::campaign::calibration_mixtures();
        original
            .calibration_series(&mixtures[..3], 1, &plan)
            .unwrap();
        let checkpoint = original.checkpoint();
        assert_eq!(checkpoint.position(), 5);

        let mut resumed = MsStream::resume(
            &checkpoint,
            ideal_config(),
            process_mixture(),
            2,
            schedule,
        )
        .unwrap();
        assert_eq!(resumed.position(), original.position());
        // Both continue identically — including through the drift event.
        for _ in 0..4 {
            let a = original.next_window(&plan).unwrap();
            let b = resumed.next_window(&plan).unwrap();
            assert_eq!(a.spectra, b.spectra);
        }
        assert_eq!(original.next_event, resumed.next_event);
        assert_eq!(original.next_event, 1);
    }

    #[test]
    fn calibration_series_discards_dropouts() {
        let plan = FaultPlan::new().with_sensor_dropout(2).with_sensor_dropout(5);
        let mut stream = MsStream::new(11, process_mixture(), 2, DriftSchedule::new());
        let mixtures = ms_sim::campaign::calibration_mixtures();
        let (samples, dropouts) = stream.calibration_series(&mixtures[..4], 2, &plan).unwrap();
        assert_eq!(dropouts, 2);
        assert_eq!(samples.len(), 6);
        assert!(samples
            .iter()
            .all(|s| s.spectrum.intensities().iter().any(|&v| v > 0.0)));
    }

    #[test]
    fn nmr_stream_yields_windows_and_cycles() {
        let plan = FaultPlan::new();
        let config = ExperimentConfig {
            spectra_per_plateau: 2,
            ..ExperimentConfig::default()
        };
        let mut stream = NmrStream::new(4, config, 5).unwrap();
        let w1 = stream.next_window(&plan).unwrap();
        assert_eq!(w1.spectra.len(), 5);
        assert_eq!(stream.position(), 5);
        // Exhaust well past one acquisition: cycling keeps it flowing.
        for _ in 0..10 {
            stream.next_window(&plan).unwrap();
        }
        assert_eq!(stream.position(), 55);
    }
}

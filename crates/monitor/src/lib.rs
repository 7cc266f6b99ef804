//! Closed-loop online monitoring: the paper's toolflow, run end-to-end
//! and unattended.
//!
//! The source paper builds four tools — characterize the instrument,
//! simulate training data, train a network, deploy it — and runs them
//! *once*, by hand. A prototype instrument does not stay characterized:
//! attenuation steepens as the detector ages, the mass calibration
//! walks, peaks broaden. This crate closes the loop the paper leaves
//! open (DESIGN.md §13):
//!
//! ```text
//!   SpectraStream ──windows──▶ serve::Router ──predictions──▶ ·
//!        │                                                    │
//!        │  model-fit score (TV distance vs believed render)  │
//!        ▼                                                    ▼
//!   DriftDetector (EWMA + CUSUM, hysteresis) ──confirmed──▶ Recharacterizer
//!        ▲                                                    │
//!        │   characterize → retrain (guarded) → publish (gated)
//!        └───────── zero-drop rolling swap ◀──────────────────┘
//! ```
//!
//! * [`stream`] — seeded, resumable spectra sources: the MMS prototype
//!   under a [`stream::DriftSchedule`], or an NMR flow-reactor run.
//! * [`detector`] — a drift detector over the per-window model-fit
//!   distance: EWMA smoothing plus a one-sided CUSUM with hysteresis,
//!   so single bad windows don't trigger and confirmed drift doesn't
//!   flap.
//! * [`recharacterize`] — the paper's Tools 2–4 as a resumable,
//!   tick-driven state machine: collect calibration windows, estimate
//!   the instrument, retrain under `neural::guard`, publish through the
//!   gated registry path, swap with `Router::rolling_swap`.
//! * [`closed_loop`] — the supervised lifecycle tying it together:
//!   `Stable → DriftSuspected → Recharacterizing → Swapping → Stable`,
//!   with `CoolingDown` after a rollback. Every opened episode reaches
//!   exactly one terminal: swapped, rolled back, or suppressed.
//!
//! The whole loop is deterministic given the stream seed and a
//! `faultsim::FaultPlan`, which is what lets CI drive sensor dropout,
//! characterization failure and mid-swap worker panics through it and
//! still assert exact episode outcomes and a dropped-request count of
//! zero.

#![forbid(unsafe_code)]

pub mod closed_loop;
pub mod detector;
pub mod recharacterize;
pub mod stream;

use std::fmt;

pub use closed_loop::{
    EpisodeOutcome, EpisodeReport, LoopState, MonitorConfig, MonitorLoop, MonitorReport,
    TickReport,
};
pub use detector::{DetectorConfig, DriftDetector, Verdict};
pub use recharacterize::{bootstrap, Bootstrap, RecharacterizeConfig, Recharacterizer, StepOutcome};
pub use stream::{
    DriftAction, DriftEvent, DriftSchedule, MsStream, NmrStream, SpectraStream, StreamCheckpoint,
    StreamWindow,
};

/// Error type for the monitoring loop.
#[derive(Debug)]
#[non_exhaustive]
pub enum MonitorError {
    /// Instrument simulation or characterization failed.
    Ms(ms_sim::MsSimError),
    /// NMR experiment acquisition failed.
    Nmr(nmr_sim::NmrSimError),
    /// Network construction or training failed.
    Neural(neural::NeuralError),
    /// Serving-side failure (registry, swap, request completion).
    Serve(serve::ServeError),
    /// A submission was rejected and could not be retried.
    Submit(serve::SubmitError),
    /// Model-fit scoring rejected its inputs.
    Fit(detector::FitError),
    /// Deploy/pipeline stage failed.
    Pipeline(spectroai::PipelineError),
    /// Axis or spectrum construction failed.
    Spectrum(spectrum::SpectrumError),
    /// A lifecycle invariant was violated (episode conservation,
    /// state-machine misuse) — always a bug in the caller or this crate.
    Invariant(String),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Ms(err) => write!(f, "instrument: {err}"),
            MonitorError::Nmr(err) => write!(f, "nmr: {err}"),
            MonitorError::Neural(err) => write!(f, "neural: {err}"),
            MonitorError::Serve(err) => write!(f, "serve: {err}"),
            MonitorError::Submit(err) => write!(f, "submit: {err}"),
            MonitorError::Fit(err) => write!(f, "fit: {err}"),
            MonitorError::Pipeline(err) => write!(f, "pipeline: {err}"),
            MonitorError::Spectrum(err) => write!(f, "spectrum: {err}"),
            MonitorError::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<ms_sim::MsSimError> for MonitorError {
    fn from(err: ms_sim::MsSimError) -> Self {
        MonitorError::Ms(err)
    }
}

impl From<nmr_sim::NmrSimError> for MonitorError {
    fn from(err: nmr_sim::NmrSimError) -> Self {
        MonitorError::Nmr(err)
    }
}

impl From<neural::NeuralError> for MonitorError {
    fn from(err: neural::NeuralError) -> Self {
        MonitorError::Neural(err)
    }
}

impl From<serve::ServeError> for MonitorError {
    fn from(err: serve::ServeError) -> Self {
        MonitorError::Serve(err)
    }
}

impl From<serve::SubmitError> for MonitorError {
    fn from(err: serve::SubmitError) -> Self {
        MonitorError::Submit(err)
    }
}

impl From<detector::FitError> for MonitorError {
    fn from(err: detector::FitError) -> Self {
        MonitorError::Fit(err)
    }
}

impl From<spectroai::PipelineError> for MonitorError {
    fn from(err: spectroai::PipelineError) -> Self {
        MonitorError::Pipeline(err)
    }
}

impl From<spectrum::SpectrumError> for MonitorError {
    fn from(err: spectrum::SpectrumError) -> Self {
        MonitorError::Spectrum(err)
    }
}

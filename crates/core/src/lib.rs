//! `spectro-ai` — ANN pipelines for mass spectrometry and NMR
//! spectroscopy with simulated-spectra data augmentation.
//!
//! This crate is the public API of the workspace: a Rust reproduction of
//! *Fricke et al., "Artificial Intelligence for Mass Spectrometry and
//! Nuclear Magnetic Resonance Spectroscopy Using a Novel Data
//! Augmentation Method"* (IEEE TETC 2021). It composes the substrate
//! crates into the paper's two end-to-end flows:
//!
//! * [`pipeline::ms`] — the miniaturized-mass-spectrometer flow: measure
//!   a few calibration series on the (simulated) prototype, estimate an
//!   instrument simulator (Tool 2), generate labelled synthetic spectra
//!   (Tools 1+3), train a CNN (Tool 4) and evaluate it on fresh measured
//!   data;
//! * [`pipeline::nmr`] — the NMR flow: acquire 300 flow-reactor spectra,
//!   augment them through the parametric hard models, train the paper's
//!   10 532-parameter CNN and 221 956-parameter LSTM, and benchmark both
//!   against Indirect Hard Modelling;
//! * [`eval`] — quality criteria, best-network selection and embedded
//!   export;
//! * [`provenance`] — recording every pipeline artifact in the
//!   [`datastore`] with full parent lineage;
//! * [`recovery`] — the retry/backoff stage runner every MS run goes
//!   through ([`pipeline::ms::MsPipeline::run`] is
//!   [`pipeline::ms::MsPipeline::run_with_recovery`] with one attempt per
//!   stage), with graceful degradation for unattended runs.
//!
//! # Quickstart
//!
//! Train a small MS network end-to-end on a coarse axis (see
//! `examples/quickstart.rs` for the narrated version):
//!
//! ```
//! use ms_sim::prototype::MmsPrototype;
//! use spectroai::pipeline::ms::{MsPipeline, MsPipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MsPipelineConfig::quick_test();
//! let mut prototype = MmsPrototype::new(7);
//! let report = MsPipeline::new(config)?.run(&mut prototype)?;
//! assert!(report.validation_mae < 0.20); // fractions, not percent
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod pipeline;
pub mod provenance;
pub mod recovery;

mod error;

pub use error::PipelineError;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use chem;
pub use chemometrics;
pub use datastore;
pub use ms_sim;
pub use neural;
pub use nmr_sim;
pub use platform;
pub use spectrum;

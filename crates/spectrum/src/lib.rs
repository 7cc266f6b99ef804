//! Spectral data structures and signal-processing substrate.
//!
//! This crate is the foundation of the `spectro-ai` workspace. It provides
//! everything the mass-spectrometry and NMR simulators build on:
//!
//! * [`UniformAxis`] — a uniformly sampled coordinate axis (m/z or ppm);
//! * [`LineSpectrum`] — an ideal "stick" spectrum of discrete lines;
//! * [`ContinuousSpectrum`] — a sampled spectrum on an axis;
//! * [`PeakShape`] — Gaussian / Lorentzian / Lorentz–Gauss peak profiles
//!   used to render line spectra into continuous ones;
//! * [`noise`] — additive, shot, drift and spike noise models;
//! * [`interp`] — linear interpolation and resampling between axes;
//! * [`linalg`] — small dense linear algebra (solvers, least squares);
//! * [`stats`] — error metrics shared by all evaluations.
//!
//! # Example
//!
//! Render two sticks into a continuous spectrum with Gaussian peaks:
//!
//! ```
//! use spectrum::{LineSpectrum, PeakShape, UniformAxis};
//!
//! # fn main() -> Result<(), spectrum::SpectrumError> {
//! let axis = UniformAxis::from_range(0.0, 10.0, 0.1)?;
//! let line = LineSpectrum::from_sticks(vec![(3.0, 1.0), (7.0, 0.5)])?;
//! let shape = PeakShape::gaussian(0.4)?;
//! let cont = line.render(&axis, &shape);
//! assert_eq!(cont.len(), axis.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axis;
pub mod continuous;
pub mod interp;
pub mod line;
pub mod linalg;
pub mod noise;
pub mod peak;
pub mod stats;

mod error;

pub use axis::UniformAxis;
pub use continuous::ContinuousSpectrum;
pub use error::SpectrumError;
pub use line::LineSpectrum;
pub use peak::PeakShape;

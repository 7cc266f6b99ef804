//! The classical chemometric baseline.
//!
//! The paper contrasts its ANN approach with "multivariate tools and
//! algorithms ... such as ... Principal Component Analysis (PCA), Partial
//! Least Squares (PLS), or Latent Discriminant Analysis" (§II.C), but
//! benchmarks the NMR networks only against *Indirect Hard Modelling*
//! (IHM, §III.B). The reproduction needs only IHM and the solver under
//! it:
//!
//! * [`lm`] — a generic Levenberg–Marquardt solver;
//! * [`ihm`] — Indirect Hard Modelling: fitting Lorentz–Gauss pure
//!   component models (with per-component shift and broadening) to a
//!   mixture spectrum to recover concentrations.
//!
//! # Example
//!
//! ```
//! use chem::nmr::lithiation_components;
//! use chemometrics::ihm::IhmAnalyzer;
//! use spectrum::{ContinuousSpectrum, UniformAxis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let axis = UniformAxis::new(0.0, 12.0 / 1699.0, 1700)?;
//! let components = lithiation_components();
//! // Synthesize a mixture and recover its concentrations.
//! let truth = [0.3, 0.4, 0.2, 0.1];
//! let mut mixture = ContinuousSpectrum::zeros(axis);
//! for (component, &c) in components.iter().zip(&truth) {
//!     mixture.add_assign(&component.render(&axis, c, 0.0, 1.0)?)?;
//! }
//! let analyzer = IhmAnalyzer::new(components, axis)?;
//! let fit = analyzer.fit(&mixture)?;
//! for (found, expect) in fit.concentrations.iter().zip(&truth) {
//!     assert!((found - expect).abs() < 0.01);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ihm;
pub mod lm;

mod error;

pub use error::ChemometricsError;

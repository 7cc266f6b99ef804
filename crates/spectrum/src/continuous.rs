//! Continuous (sampled) spectra on a uniform axis.

use serde::{Deserialize, Serialize};

use crate::{interp, SpectrumError, UniformAxis};

/// A spectrum sampled on a [`UniformAxis`].
///
/// This is what the paper's measuring devices produce (a continuous spectrum
/// with the desired resolution, Tool 3) and what the neural networks consume
/// as input vectors.
///
/// # Example
///
/// ```
/// use spectrum::{ContinuousSpectrum, UniformAxis};
///
/// # fn main() -> Result<(), spectrum::SpectrumError> {
/// let axis = UniformAxis::new(0.0, 1.0, 4)?;
/// let spec = ContinuousSpectrum::from_parts(axis, vec![0.0, 1.0, 2.0, 1.0])?;
/// assert_eq!(spec.max_intensity(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContinuousSpectrum {
    axis: UniformAxis,
    intensities: Vec<f64>,
}

impl ContinuousSpectrum {
    /// A zero spectrum on `axis`.
    pub fn zeros(axis: UniformAxis) -> Self {
        Self {
            intensities: vec![0.0; axis.len()],
            axis,
        }
    }

    /// Builds a spectrum from an axis and matching intensity samples.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::ShapeMismatch`] if the lengths differ, or
    /// [`SpectrumError::InvalidValue`] if any sample is non-finite.
    pub fn from_parts(axis: UniformAxis, intensities: Vec<f64>) -> Result<Self, SpectrumError> {
        if axis.len() != intensities.len() {
            return Err(SpectrumError::ShapeMismatch {
                left: axis.len(),
                right: intensities.len(),
            });
        }
        if let Some(bad) = intensities.iter().find(|v| !v.is_finite()) {
            return Err(SpectrumError::InvalidValue(format!(
                "intensity {bad} is not finite"
            )));
        }
        Ok(Self { axis, intensities })
    }

    /// The axis this spectrum is sampled on.
    pub fn axis(&self) -> &UniformAxis {
        &self.axis
    }

    /// The intensity samples.
    pub fn intensities(&self) -> &[f64] {
        &self.intensities
    }

    /// Mutable access to the samples (noise models write in place).
    pub fn intensities_mut(&mut self) -> &mut [f64] {
        &mut self.intensities
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.intensities.len()
    }

    /// Returns `true` if the spectrum has no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.intensities.is_empty()
    }

    /// Consumes the spectrum, returning its samples.
    pub fn into_intensities(self) -> Vec<f64> {
        self.intensities
    }

    /// Iterator over `(axis value, intensity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.intensities
            .iter()
            .enumerate()
            .map(|(i, &y)| (self.axis.value_at(i), y))
    }

    /// Largest sample value (0.0 for an all-negative spectrum is *not*
    /// substituted; the true maximum is returned).
    ///
    /// # Panics
    ///
    /// Never panics: construction guarantees at least one finite sample.
    pub fn max_intensity(&self) -> f64 {
        self.intensities
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of all samples.
    pub fn total_intensity(&self) -> f64 {
        self.intensities.iter().sum()
    }

    /// Trapezoidal integral over the axis.
    pub fn area(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        let inner: f64 = self.intensities[1..self.len() - 1].iter().sum();
        (inner + 0.5 * (self.intensities[0] + self.intensities[self.len() - 1]))
            * self.axis.step()
    }

    /// Index and axis value of the maximum sample.
    pub fn argmax(&self) -> (usize, f64) {
        let (idx, _) = self
            .intensities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite intensities"))
            .expect("non-empty spectrum");
        (idx, self.axis.value_at(idx))
    }

    /// Adds `other` in place.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::ShapeMismatch`] if the axes differ.
    pub fn add_assign(&mut self, other: &ContinuousSpectrum) -> Result<(), SpectrumError> {
        if self.axis != other.axis {
            return Err(SpectrumError::ShapeMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        for (a, b) in self.intensities.iter_mut().zip(&other.intensities) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every sample by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.intensities {
            *v *= factor;
        }
    }

    /// A copy normalized to unit total intensity; unchanged if the total is
    /// not strictly positive.
    pub fn normalized_to_total(&self) -> Self {
        let total = self.total_intensity();
        let mut out = self.clone();
        if total > 0.0 {
            out.scale(1.0 / total);
        }
        out
    }

    /// Clamps negative samples to zero (detectors report non-negative
    /// counts; noise can push samples below zero).
    pub fn clamp_non_negative(&mut self) {
        for v in &mut self.intensities {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Linearly interpolated intensity at coordinate `x`; samples outside
    /// the axis return `0.0`.
    pub fn sample_at(&self, x: f64) -> f64 {
        interp::linear_at(&self.axis, &self.intensities, x)
    }

    /// Re-samples the spectrum onto a new axis by linear interpolation —
    /// the paper's requirement that "missing values would be interpolated
    /// when the resolution was changed" (§III.A).
    pub fn resampled(&self, axis: &UniformAxis) -> ContinuousSpectrum {
        let intensities = interp::resample(&self.axis, &self.intensities, axis);
        ContinuousSpectrum {
            axis: *axis,
            intensities,
        }
    }

    /// The spectrum's samples as `f32` (neural-network input precision).
    pub fn to_f32(&self) -> Vec<f32> {
        self.intensities.iter().map(|&v| v as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis4() -> UniformAxis {
        UniformAxis::new(0.0, 1.0, 4).unwrap()
    }

    fn spec(vals: Vec<f64>) -> ContinuousSpectrum {
        let axis = UniformAxis::new(0.0, 1.0, vals.len()).unwrap();
        ContinuousSpectrum::from_parts(axis, vals).unwrap()
    }

    #[test]
    fn construction_validates_shape_and_values() {
        assert!(ContinuousSpectrum::from_parts(axis4(), vec![0.0; 3]).is_err());
        assert!(ContinuousSpectrum::from_parts(axis4(), vec![0.0, 1.0, f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn zeros_is_all_zero() {
        let z = ContinuousSpectrum::zeros(axis4());
        assert_eq!(z.total_intensity(), 0.0);
        assert_eq!(z.len(), 4);
    }

    #[test]
    fn add_mismatched_axes_fails() {
        let mut a = spec(vec![1.0, 2.0, 3.0]);
        let b = spec(vec![1.0, 2.0]);
        assert!(a.add_assign(&b).is_err());
    }

    #[test]
    fn argmax_returns_axis_value() {
        let s = spec(vec![0.0, 5.0, 1.0]);
        assert_eq!(s.argmax(), (1, 1.0));
    }

    #[test]
    fn normalization_of_zero_spectrum_is_identity() {
        let t = spec(vec![0.0, 0.0]).normalized_to_total();
        assert_eq!(t.intensities(), &[0.0, 0.0]);
    }

    #[test]
    fn clamp_non_negative_zeroes_negatives() {
        let mut s = spec(vec![-1.0, 2.0, -0.5]);
        s.clamp_non_negative();
        assert_eq!(s.intensities(), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn area_matches_trapezoid() {
        // f(x) = x on [0, 3]: area = 4.5.
        let s = spec(vec![0.0, 1.0, 2.0, 3.0]);
        assert!((s.area() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn resample_identity_axis_is_lossless() {
        let s = spec(vec![1.0, 4.0, 9.0, 16.0]);
        let r = s.resampled(s.axis());
        assert_eq!(r.intensities(), s.intensities());
    }

    #[test]
    fn resample_halved_resolution_interpolates() {
        let s = spec(vec![0.0, 1.0, 2.0, 3.0]); // axis 0..3 step 1
        let fine = UniformAxis::new(0.0, 0.5, 7).unwrap();
        let r = s.resampled(&fine);
        assert!((r.sample_at(0.5) - 0.5).abs() < 1e-12);
        assert!((r.sample_at(2.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sample_outside_axis_is_zero() {
        let s = spec(vec![1.0, 1.0]);
        assert_eq!(s.sample_at(-1.0), 0.0);
        assert_eq!(s.sample_at(99.0), 0.0);
    }

    #[test]
    fn to_f32_converts_all_samples() {
        let s = spec(vec![1.5, 2.5]);
        assert_eq!(s.to_f32(), vec![1.5f32, 2.5f32]);
    }
}

//! Uniformly sampled coordinate axes (m/z for MS, ppm for NMR).

use serde::{Deserialize, Serialize};

use crate::SpectrumError;

/// A uniformly sampled axis described by a start value, a step and a length.
///
/// Both the mass spectrometer (m/z axis with configurable step size and
/// range, per the paper's MMS prototype) and the NMR spectrometer (chemical
/// shift in ppm) sample their spectra on such a grid.
///
/// # Example
///
/// ```
/// use spectrum::UniformAxis;
///
/// # fn main() -> Result<(), spectrum::SpectrumError> {
/// // The paper's MS axis: m/z 1..=100 with step 0.25 -> 397 points.
/// let axis = UniformAxis::from_range(1.0, 100.0, 0.25)?;
/// assert_eq!(axis.len(), 397);
/// assert_eq!(axis.value_at(0), 1.0);
/// assert_eq!(axis.value_at(axis.len() - 1), 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformAxis {
    start: f64,
    step: f64,
    len: usize,
}

impl UniformAxis {
    /// Creates an axis with an explicit start, step and number of samples.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidAxis`] if `step` is not strictly
    /// positive and finite, `start` is not finite, or `len` is zero.
    pub fn new(start: f64, step: f64, len: usize) -> Result<Self, SpectrumError> {
        if !start.is_finite() {
            return Err(SpectrumError::InvalidAxis("start must be finite".into()));
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(SpectrumError::InvalidAxis(
                "step must be positive and finite".into(),
            ));
        }
        if len == 0 {
            return Err(SpectrumError::InvalidAxis("len must be non-zero".into()));
        }
        Ok(Self { start, step, len })
    }

    /// Creates an axis covering `[start, stop]` inclusively with the given
    /// step. The last sample is the largest grid point `<= stop + step/2`
    /// (so that e.g. `1..=100` step `0.25` yields exactly 397 points).
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidAxis`] if `stop <= start` or `step`
    /// is not strictly positive and finite.
    pub fn from_range(start: f64, stop: f64, step: f64) -> Result<Self, SpectrumError> {
        // NaN bounds must be rejected too, hence no plain `<=`.
        if stop.partial_cmp(&start) != Some(std::cmp::Ordering::Greater) {
            return Err(SpectrumError::InvalidAxis(format!(
                "stop ({stop}) must exceed start ({start})"
            )));
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(SpectrumError::InvalidAxis(
                "step must be positive and finite".into(),
            ));
        }
        let len = ((stop - start) / step + 0.5).floor() as usize + 1;
        Self::new(start, step, len)
    }

    /// First axis value.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Distance between adjacent samples.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of samples on the axis.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the axis has no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Last axis value.
    pub fn stop(&self) -> f64 {
        self.value_at(self.len - 1)
    }

    /// The axis value at sample `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn value_at(&self, index: usize) -> f64 {
        assert!(index < self.len, "axis index {index} out of range {}", self.len);
        self.start + self.step * index as f64
    }

    /// All axis values as a freshly allocated vector.
    pub fn values(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.value_at(i)).collect()
    }

    /// Fractional sample position of coordinate `x` (may be out of range).
    pub fn position_of(&self, x: f64) -> f64 {
        (x - self.start) / self.step
    }

    /// Index of the sample nearest to `x`, or `None` if `x` lies outside
    /// the axis by more than half a step.
    pub fn nearest_index(&self, x: f64) -> Option<usize> {
        let pos = self.position_of(x);
        if pos < -0.5 || pos > self.len as f64 - 0.5 {
            return None;
        }
        Some(pos.round().clamp(0.0, (self.len - 1) as f64) as usize)
    }

    /// Returns `true` if `x` falls inside the closed interval
    /// `[start, stop]` spanned by the axis.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.start && x <= self.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_range_inclusive_endpoint() {
        let axis = UniformAxis::from_range(0.0, 1.0, 0.25).unwrap();
        assert_eq!(axis.len(), 5);
        assert_eq!(axis.stop(), 1.0);
    }

    #[test]
    fn paper_ms_axis_has_397_points() {
        let axis = UniformAxis::from_range(1.0, 100.0, 0.25).unwrap();
        assert_eq!(axis.len(), 397);
    }

    #[test]
    fn nmr_axis_has_1700_points() {
        // 0..=12 ppm at step such that len == 1700 (see DESIGN.md §5).
        let axis = UniformAxis::new(0.0, 12.0 / 1699.0, 1700).unwrap();
        assert_eq!(axis.len(), 1700);
        assert!((axis.stop() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(UniformAxis::new(0.0, 0.0, 10).is_err());
        assert!(UniformAxis::new(0.0, -1.0, 10).is_err());
        assert!(UniformAxis::new(f64::NAN, 1.0, 10).is_err());
        assert!(UniformAxis::new(0.0, 1.0, 0).is_err());
        assert!(UniformAxis::from_range(5.0, 5.0, 1.0).is_err());
        assert!(UniformAxis::from_range(5.0, 4.0, 1.0).is_err());
    }

    #[test]
    fn nearest_index_handles_edges() {
        let axis = UniformAxis::new(10.0, 1.0, 5).unwrap(); // 10..14
        assert_eq!(axis.nearest_index(10.0), Some(0));
        assert_eq!(axis.nearest_index(14.4), Some(4));
        assert_eq!(axis.nearest_index(9.6), Some(0));
        assert_eq!(axis.nearest_index(9.4), None);
        assert_eq!(axis.nearest_index(14.6), None);
        assert_eq!(axis.nearest_index(12.49), Some(2));
    }

    #[test]
    fn values_match_value_at() {
        let axis = UniformAxis::new(-1.0, 0.5, 7).unwrap();
        let vals = axis.values();
        assert_eq!(vals.len(), 7);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, axis.value_at(i));
        }
    }

    #[test]
    fn contains_respects_bounds() {
        let axis = UniformAxis::new(2.0, 0.5, 3).unwrap(); // 2.0, 2.5, 3.0
        assert!(axis.contains(2.0));
        assert!(axis.contains(3.0));
        assert!(axis.contains(2.7));
        assert!(!axis.contains(1.99));
        assert!(!axis.contains(3.01));
    }

    #[test]
    fn copy_equality() {
        let axis = UniformAxis::new(1.0, 0.25, 397).unwrap();
        let copy = axis;
        assert_eq!(axis, copy);
    }
}

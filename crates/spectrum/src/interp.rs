//! Linear interpolation and resampling of sampled signals.
//!
//! The paper's MS prototype has a configurable step size and range on the
//! m/z axis; "missing values would be interpolated when the resolution was
//! changed" so that one trained network serves several instrument
//! configurations. These helpers implement that interpolation.

use crate::UniformAxis;

/// Linearly interpolated value of `samples` (on `axis`) at coordinate `x`.
/// Coordinates outside the axis return `0.0`.
///
/// # Example
///
/// ```
/// use spectrum::{interp, UniformAxis};
///
/// # fn main() -> Result<(), spectrum::SpectrumError> {
/// let axis = UniformAxis::new(0.0, 1.0, 3)?;
/// let y = interp::linear_at(&axis, &[0.0, 2.0, 4.0], 1.5);
/// assert_eq!(y, 3.0);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `samples.len() != axis.len()`.
pub fn linear_at(axis: &UniformAxis, samples: &[f64], x: f64) -> f64 {
    assert_eq!(
        samples.len(),
        axis.len(),
        "samples must match axis length"
    );
    let pos = axis.position_of(x);
    if pos < 0.0 || pos > (axis.len() - 1) as f64 {
        return 0.0;
    }
    let lo = pos.floor() as usize;
    if lo + 1 >= axis.len() {
        return samples[axis.len() - 1];
    }
    let frac = pos - lo as f64;
    samples[lo] * (1.0 - frac) + samples[lo + 1] * frac
}

/// Re-samples `samples` from `src` onto `dst` by linear interpolation.
/// Destination points outside the source range become `0.0`.
///
/// # Panics
///
/// Panics if `samples.len() != src.len()`.
pub fn resample(src: &UniformAxis, samples: &[f64], dst: &UniformAxis) -> Vec<f64> {
    (0..dst.len())
        .map(|i| linear_at(src, samples, dst.value_at(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_at_hits_sample_points() {
        let axis = UniformAxis::new(10.0, 2.0, 3).unwrap();
        let samples = [1.0, 5.0, 9.0];
        assert_eq!(linear_at(&axis, &samples, 10.0), 1.0);
        assert_eq!(linear_at(&axis, &samples, 12.0), 5.0);
        assert_eq!(linear_at(&axis, &samples, 14.0), 9.0);
    }

    #[test]
    fn linear_at_midpoints() {
        let axis = UniformAxis::new(0.0, 1.0, 2).unwrap();
        assert_eq!(linear_at(&axis, &[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn out_of_range_is_zero() {
        let axis = UniformAxis::new(0.0, 1.0, 2).unwrap();
        assert_eq!(linear_at(&axis, &[5.0, 5.0], -0.01), 0.0);
        assert_eq!(linear_at(&axis, &[5.0, 5.0], 1.01), 0.0);
    }

    #[test]
    fn resample_roundtrip_on_same_axis() {
        let axis = UniformAxis::new(0.0, 0.5, 5).unwrap();
        let samples = vec![1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(resample(&axis, &samples, &axis), samples);
    }

    #[test]
    fn resample_upsamples_linearly() {
        let src = UniformAxis::new(0.0, 2.0, 3).unwrap(); // 0,2,4
        let dst = UniformAxis::new(0.0, 1.0, 5).unwrap(); // 0..4
        let out = resample(&src, &[0.0, 4.0, 8.0], &dst);
        assert_eq!(out, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }
}

//! Ideal "stick" spectra: discrete lines at exact positions.

use serde::{Deserialize, Serialize};

use crate::{ContinuousSpectrum, PeakShape, SpectrumError, UniformAxis};

/// An ideal line (stick) spectrum: a sorted list of `(position, intensity)`
/// pairs with no instrumental broadening.
///
/// This is the output of the paper's *Tool 1* for MS (ideal line spectra of
/// substance mixtures obtained by linear superposition) and the internal
/// representation of NMR pure-component hard models before peak rendering.
///
/// Invariants: sticks are sorted by position, positions are finite and
/// unique (merging sums intensities of coincident lines), intensities are
/// finite and non-negative.
///
/// # Example
///
/// ```
/// use spectrum::LineSpectrum;
///
/// # fn main() -> Result<(), spectrum::SpectrumError> {
/// let nitrogen = LineSpectrum::from_sticks(vec![(28.0, 100.0), (14.0, 7.2)])?;
/// let argon = LineSpectrum::from_sticks(vec![(40.0, 100.0), (20.0, 14.6)])?;
/// // Linear superposition at 80 % N2 / 20 % Ar:
/// let mix = LineSpectrum::superpose(&[(&nitrogen, 0.8), (&argon, 0.2)])?;
/// assert_eq!(mix.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LineSpectrum {
    sticks: Vec<(f64, f64)>,
}

impl LineSpectrum {
    /// An empty line spectrum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a line spectrum from `(position, intensity)` pairs.
    ///
    /// The sticks are sorted by position; coincident positions (within
    /// `1e-9`) are merged by summing their intensities.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidValue`] if any position or intensity
    /// is non-finite, or an intensity is negative.
    pub fn from_sticks(sticks: Vec<(f64, f64)>) -> Result<Self, SpectrumError> {
        for &(pos, int) in &sticks {
            if !pos.is_finite() {
                return Err(SpectrumError::InvalidValue(format!(
                    "stick position {pos} is not finite"
                )));
            }
            if !int.is_finite() || int < 0.0 {
                return Err(SpectrumError::InvalidValue(format!(
                    "stick intensity {int} must be finite and non-negative"
                )));
            }
        }
        let mut sticks = sticks;
        sticks.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite positions"));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(sticks.len());
        for (pos, int) in sticks {
            match merged.last_mut() {
                Some(last) if (last.0 - pos).abs() < 1e-9 => last.1 += int,
                _ => merged.push((pos, int)),
            }
        }
        Ok(Self { sticks: merged })
    }

    /// Number of sticks.
    pub fn len(&self) -> usize {
        self.sticks.len()
    }

    /// Returns `true` if the spectrum contains no sticks.
    pub fn is_empty(&self) -> bool {
        self.sticks.is_empty()
    }

    /// The sorted sticks as `(position, intensity)` pairs.
    pub fn sticks(&self) -> &[(f64, f64)] {
        &self.sticks
    }

    /// Iterator over `(position, intensity)` pairs in position order.
    pub fn iter(&self) -> std::slice::Iter<'_, (f64, f64)> {
        self.sticks.iter()
    }

    /// Sum of all stick intensities (the "total ion current" for MS).
    pub fn total_intensity(&self) -> f64 {
        self.sticks.iter().map(|&(_, i)| i).sum()
    }

    /// The stick with the highest intensity, if any.
    pub fn base_peak(&self) -> Option<(f64, f64)> {
        self.sticks
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Intensity at exactly `position` (within `1e-9`), or zero.
    pub fn intensity_at(&self, position: f64) -> f64 {
        match self
            .sticks
            .binary_search_by(|probe| probe.0.partial_cmp(&position).expect("finite"))
        {
            Ok(idx) => self.sticks[idx].1,
            Err(idx) => {
                // Check both neighbours for near-coincidence.
                for cand in [idx.wrapping_sub(1), idx] {
                    if let Some(&(pos, int)) = self.sticks.get(cand) {
                        if (pos - position).abs() < 1e-9 {
                            return int;
                        }
                    }
                }
                0.0
            }
        }
    }

    /// A copy with every intensity multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite (programming error:
    /// intensities must stay valid).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Self {
            sticks: self.sticks.iter().map(|&(p, i)| (p, i * factor)).collect(),
        }
    }

    /// A copy normalized so intensities sum to `1.0`.
    /// Returns an unchanged copy if the total intensity is zero.
    pub fn normalized_to_total(&self) -> Self {
        let total = self.total_intensity();
        if total > 0.0 {
            self.scaled(1.0 / total)
        } else {
            self.clone()
        }
    }

    /// Linear superposition of weighted component spectra — the heart of
    /// the paper's Tool 1: "ideal spectra of the different substance
    /// mixtures with arbitrary concentrations are generated by linear
    /// superposition".
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidValue`] if any weight is negative or
    /// non-finite, or [`SpectrumError::Empty`] if `parts` is empty.
    pub fn superpose(parts: &[(&LineSpectrum, f64)]) -> Result<Self, SpectrumError> {
        if parts.is_empty() {
            return Err(SpectrumError::Empty);
        }
        let mut sticks = Vec::new();
        for &(spec, weight) in parts {
            if !weight.is_finite() || weight < 0.0 {
                return Err(SpectrumError::InvalidValue(format!(
                    "superposition weight {weight} must be finite and non-negative"
                )));
            }
            sticks.extend(spec.sticks.iter().map(|&(p, i)| (p, i * weight)));
        }
        Self::from_sticks(sticks)
    }

    /// Renders the line spectrum onto `axis` by convolving every stick
    /// with `shape` (peak deformation "to a curve", per the paper's Tool 3).
    pub fn render(&self, axis: &UniformAxis, shape: &PeakShape) -> ContinuousSpectrum {
        let mut out = vec![0.0; axis.len()];
        for &(pos, int) in &self.sticks {
            if int == 0.0 {
                continue;
            }
            shape.accumulate(axis, pos, int, &mut out);
        }
        ContinuousSpectrum::from_parts(*axis, out).expect("finite render output")
    }
}

impl FromIterator<(f64, f64)> for LineSpectrum {
    /// Collects sticks, panicking on invalid values.
    ///
    /// # Panics
    ///
    /// Panics if any stick is non-finite or negative; use
    /// [`LineSpectrum::from_sticks`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        Self::from_sticks(iter.into_iter().collect()).expect("valid sticks")
    }
}

impl<'a> IntoIterator for &'a LineSpectrum {
    type Item = &'a (f64, f64);
    type IntoIter = std::slice::Iter<'a, (f64, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.sticks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n2() -> LineSpectrum {
        LineSpectrum::from_sticks(vec![(28.0, 100.0), (14.0, 7.2)]).unwrap()
    }

    #[test]
    fn sticks_are_sorted() {
        let spec = LineSpectrum::from_sticks(vec![(5.0, 1.0), (1.0, 2.0), (3.0, 0.5)]).unwrap();
        let positions: Vec<f64> = spec.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn coincident_sticks_merge() {
        let spec =
            LineSpectrum::from_sticks(vec![(2.0, 1.0), (2.0, 3.0), (4.0, 1.0)]).unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.intensity_at(2.0), 4.0);
    }

    #[test]
    fn rejects_invalid_sticks() {
        assert!(LineSpectrum::from_sticks(vec![(f64::NAN, 1.0)]).is_err());
        assert!(LineSpectrum::from_sticks(vec![(1.0, f64::INFINITY)]).is_err());
        assert!(LineSpectrum::from_sticks(vec![(1.0, -0.1)]).is_err());
    }

    #[test]
    fn base_peak_and_total() {
        let spec = n2();
        assert_eq!(spec.base_peak(), Some((28.0, 100.0)));
        assert!((spec.total_intensity() - 107.2).abs() < 1e-12);
    }

    #[test]
    fn normalization_to_total_sums_to_one() {
        let spec = n2().normalized_to_total();
        assert!((spec.total_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn superposition_is_linear() {
        let a = LineSpectrum::from_sticks(vec![(10.0, 2.0)]).unwrap();
        let b = LineSpectrum::from_sticks(vec![(10.0, 4.0), (20.0, 1.0)]).unwrap();
        let mix = LineSpectrum::superpose(&[(&a, 0.5), (&b, 0.25)]).unwrap();
        assert!((mix.intensity_at(10.0) - 2.0).abs() < 1e-12);
        assert!((mix.intensity_at(20.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn superposition_rejects_bad_weights() {
        let a = n2();
        assert!(LineSpectrum::superpose(&[(&a, -1.0)]).is_err());
        assert!(LineSpectrum::superpose(&[(&a, f64::NAN)]).is_err());
        assert!(LineSpectrum::superpose(&[]).is_err());
    }

    #[test]
    fn render_conserves_area_approximately() {
        let axis = UniformAxis::from_range(0.0, 60.0, 0.05).unwrap();
        let spec = n2();
        let shape = PeakShape::gaussian(0.5).unwrap();
        let cont = spec.render(&axis, &shape);
        // Unit-area peak shape: integral ~ total stick intensity.
        let area: f64 = cont.intensities().iter().sum::<f64>() * axis.step();
        assert!((area - spec.total_intensity()).abs() / spec.total_intensity() < 0.01);
    }

    #[test]
    fn render_peak_is_centered() {
        let axis = UniformAxis::from_range(0.0, 20.0, 0.1).unwrap();
        let spec = LineSpectrum::from_sticks(vec![(10.0, 1.0)]).unwrap();
        let cont = spec.render(&axis, &PeakShape::gaussian(1.0).unwrap());
        let (argmax, _) = cont
            .intensities()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((axis.value_at(argmax) - 10.0).abs() < 0.1 + 1e-12);
    }

    #[test]
    fn from_iterator_collects() {
        let spec: LineSpectrum = vec![(2.0, 1.0), (1.0, 1.0)].into_iter().collect();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.sticks()[0].0, 1.0);
    }

    #[test]
    fn intensity_at_missing_position_is_zero() {
        assert_eq!(n2().intensity_at(29.0), 0.0);
    }
}

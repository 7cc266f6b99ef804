//! Time-series datasets for the LSTM model.
//!
//! "As our time dependent experimental data consists of a time series of
//! several steady state plateaus with different concentrations, we
//! repeated random training spectra one to twenty times to emulate
//! plateaus with jumps between them. The LSTM model was then trained with
//! this augmented training dataset" (paper §III.B.2). At prediction time
//! the LSTM sees sliding windows of five consecutive spectra.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::augment::NmrDataset;
use crate::NmrSimError;

/// A sequence dataset: time-ordered spectra, each held once, read as
/// sliding windows. Window `i` is spectra `i .. i + window` flattened
/// time-major, a view of the row buffer; its target is the concentration
/// at its *last* timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceDataset {
    /// The time-ordered spectra, `spectrum_len` values each, end to end.
    pub rows: Vec<f64>,
    /// Concentration targets, one per window (its last timestep's).
    pub targets: Vec<Vec<f64>>,
    /// Window length in timesteps.
    pub window: usize,
    /// Length of one spectrum.
    pub spectrum_len: usize,
}

impl SequenceDataset {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if there are no windows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Window `i`, flattened `window × spectrum_len`, or `None` past the
    /// end.
    pub fn input(&self, i: usize) -> Option<&[f64]> {
        let start = i.checked_mul(self.spectrum_len)?;
        let width = self.window.checked_mul(self.spectrum_len)?;
        self.rows.get(start..start.checked_add(width)?)
    }

    /// Every window, in order.
    pub fn inputs(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.len()).filter_map(|i| self.input(i))
    }

    /// The spectra as `f32`, each once, end to end: the row buffer of
    /// `neural::train::Dataset::windows`.
    pub fn rows_f32(&self) -> Vec<f32> {
        self.rows.iter().map(|&v| v as f32).collect()
    }

    /// Every window copied out as an `f32` row.
    pub fn inputs_f32(&self) -> Vec<Vec<f32>> {
        self.inputs()
            .map(|w| w.iter().map(|&v| v as f32).collect())
            .collect()
    }

    /// Targets as `f32` rows.
    pub fn targets_f32(&self) -> Vec<Vec<f32>> {
        self.targets
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect()
    }
}

/// Builds sliding windows over a time-ordered spectra sequence.
///
/// `spectra[i]` must correspond to `targets[i]`; windows are
/// `[i - window + 1 ..= i]` for every `i >= window - 1`.
///
/// # Errors
///
/// Returns [`NmrSimError::InvalidConfig`] if `window` is zero, the inputs
/// are shorter than `window`, or lengths mismatch.
pub fn sliding_windows(
    spectra: &[Vec<f64>],
    targets: &[Vec<f64>],
    window: usize,
) -> Result<SequenceDataset, NmrSimError> {
    windows_over(spectra, targets, window)
}

/// [`sliding_windows`] over any slices: lays the spectra end to end once.
fn windows_over<S: AsRef<[f64]>, T: AsRef<[f64]>>(
    spectra: &[S],
    targets: &[T],
    window: usize,
) -> Result<SequenceDataset, NmrSimError> {
    if window == 0 {
        return Err(NmrSimError::InvalidConfig("window must be non-zero".into()));
    }
    if spectra.len() != targets.len() {
        return Err(NmrSimError::InvalidConfig(format!(
            "{} spectra vs {} targets",
            spectra.len(),
            targets.len()
        )));
    }
    if spectra.len() < window {
        return Err(NmrSimError::InvalidConfig(format!(
            "{} spectra cannot form windows of {window}",
            spectra.len()
        )));
    }
    let spectrum_len = spectra.first().map_or(0, |s| s.as_ref().len());
    let mut rows = Vec::with_capacity(spectra.len() * spectrum_len);
    for spec in spectra {
        let spec = spec.as_ref();
        if spec.len() != spectrum_len {
            return Err(NmrSimError::InvalidConfig(
                "inconsistent spectrum lengths".into(),
            ));
        }
        rows.extend_from_slice(spec);
    }
    Ok(SequenceDataset {
        rows,
        targets: targets
            .iter()
            .skip(window - 1)
            .map(|t| t.as_ref().to_vec())
            .collect(),
        window,
        spectrum_len,
    })
}

/// The paper's plateau-repeat training augmentation: random spectra from
/// `dataset` are repeated 1–20 times to emulate steady-state plateaus
/// with jumps between them, then cut into sliding windows. Produces about
/// `target_windows` windows.
///
/// # Errors
///
/// Returns [`NmrSimError::InvalidConfig`] on an empty dataset or zero
/// window/target.
pub fn plateau_training_sequences(
    dataset: &NmrDataset,
    window: usize,
    target_windows: usize,
    seed: u64,
) -> Result<SequenceDataset, NmrSimError> {
    if dataset.is_empty() {
        return Err(NmrSimError::InvalidConfig("empty dataset".into()));
    }
    if window == 0 || target_windows == 0 {
        return Err(NmrSimError::InvalidConfig(
            "window and target count must be non-zero".into(),
        ));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let needed = target_windows + window - 1;
    let mut spectra: Vec<&[f64]> = Vec::with_capacity(needed);
    let mut targets: Vec<&[f64]> = Vec::with_capacity(needed);
    while spectra.len() < needed {
        let idx = rng.gen_range(0..dataset.len());
        let repeats = rng.gen_range(1..=20usize).min(needed - spectra.len());
        spectra.extend(std::iter::repeat_n(dataset.inputs[idx].as_slice(), repeats));
        targets.extend(std::iter::repeat_n(
            dataset.concentrations[idx].as_slice(),
            repeats,
        ));
    }
    windows_over(&spectra, &targets, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectrum::UniformAxis;

    fn toy_dataset(n: usize, dim: usize) -> NmrDataset {
        NmrDataset {
            inputs: (0..n).map(|i| vec![i as f64; dim]).collect(),
            concentrations: (0..n).map(|i| vec![i as f64]).collect(),
            names: vec!["a".into()],
            axis: UniformAxis::new(0.0, 1.0, dim).unwrap(),
        }
    }

    #[test]
    fn windows_have_correct_shape_and_targets() {
        let spectra: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
        let targets: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 10.0]).collect();
        let set = sliding_windows(&spectra, &targets, 3).unwrap();
        assert_eq!(set.len(), 8);
        assert_eq!(set.input(0), Some(&[0.0, 0.0, 1.0, 0.0, 2.0, 0.0][..]));
        assert_eq!(set.targets[0], vec![20.0]); // last step of window
        assert_eq!(set.targets[7], vec![90.0]);
    }

    #[test]
    fn window_validation() {
        let spectra = vec![vec![1.0]; 3];
        let targets = vec![vec![1.0]; 3];
        assert!(sliding_windows(&spectra, &targets, 0).is_err());
        assert!(sliding_windows(&spectra, &targets, 4).is_err());
        assert!(sliding_windows(&spectra, &targets[..2], 2).is_err());
    }

    #[test]
    fn inconsistent_spectrum_lengths_rejected() {
        let spectra = vec![vec![1.0, 2.0], vec![1.0]];
        let targets = vec![vec![0.0]; 2];
        assert!(sliding_windows(&spectra, &targets, 2).is_err());
    }

    #[test]
    fn plateau_sequences_hit_target_count() {
        let data = toy_dataset(30, 4);
        let set = plateau_training_sequences(&data, 5, 100, 1).unwrap();
        assert_eq!(set.len(), 100);
        assert_eq!(set.window, 5);
        assert_eq!(set.input(0).map(<[f64]>::len), Some(20));
    }

    #[test]
    fn plateau_sequences_contain_repeats() {
        let data = toy_dataset(50, 2);
        let set = plateau_training_sequences(&data, 5, 200, 2).unwrap();
        // Within many windows, at least one window should span a constant
        // plateau (all 5 timesteps identical).
        let spectrum_len = set.spectrum_len;
        let constant = set.inputs().any(|row| {
            let first = &row[..spectrum_len];
            (1..5).all(|t| &row[t * spectrum_len..(t + 1) * spectrum_len] == first)
        });
        assert!(constant, "no plateau windows found");
    }

    #[test]
    fn plateau_sequences_validate() {
        let data = toy_dataset(5, 2);
        assert!(plateau_training_sequences(&data, 0, 10, 1).is_err());
        assert!(plateau_training_sequences(&data, 3, 0, 1).is_err());
        let empty = NmrDataset {
            inputs: vec![],
            concentrations: vec![],
            names: vec![],
            axis: UniformAxis::new(0.0, 1.0, 2).unwrap(),
        };
        assert!(plateau_training_sequences(&empty, 3, 10, 1).is_err());
    }

    #[test]
    fn f32_conversions_preserve_shapes() {
        let data = toy_dataset(12, 3);
        let set = plateau_training_sequences(&data, 2, 8, 3).unwrap();
        assert_eq!(set.inputs_f32().len(), set.len());
        assert_eq!(set.targets_f32()[0].len(), 1);
    }
}

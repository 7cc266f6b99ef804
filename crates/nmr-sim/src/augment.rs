//! The paper's novel data-augmentation method for NMR.
//!
//! "We again used an NMR line spectra simulator to generate a large
//! number of synthetic training data covering the full concentration
//! range of interest. ... Linear combinations of the parametric models of
//! pure component spectra can then be calculated to generate NMR spectra
//! for arbitrary values of the four compound concentrations. ... it is
//! included in our spectra simulator through shifting and broadening of
//! peaks in our parametric model. Overall, the approach allows the
//! initial training dataset to be arbitrarily sized and distributed along
//! different prediction variables" (paper §III.B.1).
//!
//! The default configuration augments the 300 experimental spectra to an
//! arbitrarily sized synthetic set (the paper used 300 000; the harnesses
//! default to a CI-friendly size and scale up under `SPECTROAI_FULL=1`).

use chem::nmr::{lithiation_components, NmrComponent, LITHIATION_NAMES};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use spectrum::noise::standard_normal;
use spectrum::{ContinuousSpectrum, UniformAxis};

use crate::{nmr_axis, NmrSimError};

/// A labelled synthetic NMR spectra set.
#[derive(Debug, Clone, PartialEq)]
pub struct NmrDataset {
    /// Spectral samples.
    pub inputs: Vec<Vec<f64>>,
    /// Concentration labels in canonical component order.
    pub concentrations: Vec<Vec<f64>>,
    /// Component names (label order).
    pub names: Vec<String>,
    /// The spectral axis.
    pub axis: UniformAxis,
}

impl NmrDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Inputs as `f32` rows.
    pub fn inputs_f32(&self) -> Vec<Vec<f32>> {
        self.inputs
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect()
    }

    /// Labels as `f32` rows.
    pub fn labels_f32(&self) -> Vec<Vec<f32>> {
        self.concentrations
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect()
    }
}

/// Configuration of the augmentation simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentationConfig {
    /// Upper concentration bound per component (mol/L); samples are drawn
    /// uniformly in `[0, max]` — "distributed along different prediction
    /// variables".
    pub concentration_max: Vec<f64>,
    /// Per-component random shift (ppm, 1σ) applied to the hard models.
    pub shift_sigma: f64,
    /// Line-broadening factor range (uniform).
    pub broaden_range: (f64, f64),
    /// Additive white noise (1σ).
    pub noise_sigma: f64,
    /// Amplitude of the random smooth baseline added to synthetic spectra
    /// (teaches the networks baseline robustness IHM lacks).
    pub baseline_amplitude: f64,
}

impl Default for AugmentationConfig {
    fn default() -> Self {
        Self {
            // DoE ranges with headroom: feed 0.5 mol/L, ratios up to 1.6.
            concentration_max: vec![0.55, 0.85, 0.85, 0.55],
            shift_sigma: 0.015,
            broaden_range: (0.85, 1.25),
            noise_sigma: 0.03,
            baseline_amplitude: 1.6,
        }
    }
}

/// The augmentation simulator: parametric pure-component models in,
/// arbitrarily many labelled synthetic spectra out.
#[derive(Debug, Clone)]
pub struct SpectraAugmenter {
    components: Vec<NmrComponent>,
    config: AugmentationConfig,
    axis: UniformAxis,
}

impl SpectraAugmenter {
    /// Creates an augmenter over the lithiation components with the given
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NmrSimError::InvalidConfig`] if the configuration is
    /// inconsistent with the component count or contains invalid ranges.
    pub fn new(config: AugmentationConfig) -> Result<Self, NmrSimError> {
        Self::with_components(lithiation_components(), config)
    }

    /// Creates an augmenter over custom component models.
    ///
    /// # Errors
    ///
    /// Returns [`NmrSimError::InvalidConfig`] on inconsistent
    /// configuration.
    pub fn with_components(
        components: Vec<NmrComponent>,
        config: AugmentationConfig,
    ) -> Result<Self, NmrSimError> {
        if components.is_empty() {
            return Err(NmrSimError::InvalidConfig("no components".into()));
        }
        if config.concentration_max.len() != components.len() {
            return Err(NmrSimError::InvalidConfig(format!(
                "{} concentration bounds for {} components",
                config.concentration_max.len(),
                components.len()
            )));
        }
        // `m <= 0.0` alone would let NaN bounds through.
        if config
            .concentration_max
            .iter()
            .any(|&m| m.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
        {
            return Err(NmrSimError::InvalidConfig(
                "concentration bounds must be positive".into(),
            ));
        }
        if !(config.broaden_range.0 > 0.0 && config.broaden_range.0 <= config.broaden_range.1) {
            return Err(NmrSimError::InvalidConfig(
                "invalid broadening range".into(),
            ));
        }
        Ok(Self {
            components,
            config,
            axis: nmr_axis(),
        })
    }

    /// The component models.
    pub fn components(&self) -> &[NmrComponent] {
        &self.components
    }

    /// Synthesizes one spectrum at explicit concentrations, with random
    /// shift/broadening/noise/baseline perturbations.
    ///
    /// # Errors
    ///
    /// Returns [`NmrSimError::InvalidConfig`] on a concentration-count
    /// mismatch.
    pub fn synthesize(
        &self,
        concentrations: &[f64],
        rng: &mut ChaCha8Rng,
    ) -> Result<ContinuousSpectrum, NmrSimError> {
        if concentrations.len() != self.components.len() {
            return Err(NmrSimError::InvalidConfig(format!(
                "expected {} concentrations, got {}",
                self.components.len(),
                concentrations.len()
            )));
        }
        let mut out = ContinuousSpectrum::zeros(self.axis);
        // Each component renders whole into `scratch` before it is added,
        // keeping the sum's order `out + (peak₁ + peak₂ + …)`.
        let mut scratch = ContinuousSpectrum::zeros(self.axis);
        for (component, &c) in self.components.iter().zip(concentrations) {
            if c <= 0.0 {
                continue;
            }
            let shift = self.config.shift_sigma * standard_normal(rng);
            let broaden = rng.gen_range(self.config.broaden_range.0..=self.config.broaden_range.1);
            component.render_into(&self.axis, c, shift, broaden, scratch.intensities_mut())?;
            out.add_assign(&scratch)?;
        }
        if self.config.baseline_amplitude > 0.0 {
            let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let cycles: f64 = rng.gen_range(0.5..2.5);
            let amp = self.config.baseline_amplitude * rng.gen::<f64>();
            let slope = 0.3 * amp * (rng.gen::<f64>() - 0.5);
            let n = out.len();
            for (k, v) in out.intensities_mut().iter_mut().enumerate() {
                let t = k as f64 / n as f64;
                *v += amp * (std::f64::consts::TAU * cycles * t + phase).sin() + slope * t;
            }
        }
        if self.config.noise_sigma > 0.0 {
            for v in out.intensities_mut() {
                *v += self.config.noise_sigma * standard_normal(rng);
            }
        }
        Ok(out)
    }

    /// Generates `count` labelled synthetic spectra at concentrations
    /// uniform in the configured ranges — the paper's "enhanced to
    /// 300.000 spectra" step (size is the caller's choice).
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn generate(&self, count: usize, seed: u64) -> Result<NmrDataset, NmrSimError> {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut inputs = Vec::with_capacity(count);
        let mut concentrations = Vec::with_capacity(count);
        for _ in 0..count {
            let conc: Vec<f64> = self
                .config
                .concentration_max
                .iter()
                .map(|&max| rng.gen_range(0.0..=max))
                .collect();
            let spectrum = self.synthesize(&conc, &mut rng)?;
            inputs.push(spectrum.into_intensities());
            concentrations.push(conc);
        }
        Ok(NmrDataset {
            inputs,
            concentrations,
            names: LITHIATION_NAMES.iter().map(|&s| s.to_string()).collect(),
            axis: self.axis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_count_with_valid_labels() {
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).unwrap();
        let data = augmenter.generate(25, 1).unwrap();
        assert_eq!(data.len(), 25);
        for (input, conc) in data.inputs.iter().zip(&data.concentrations) {
            assert_eq!(input.len(), 1700);
            assert_eq!(conc.len(), 4);
            for (c, max) in conc.iter().zip(&AugmentationConfig::default().concentration_max) {
                assert!(*c >= 0.0 && c <= max);
            }
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).unwrap();
        let a = augmenter.generate(5, 42).unwrap();
        let b = augmenter.generate(5, 42).unwrap();
        assert_eq!(a, b);
        let c = augmenter.generate(5, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn spectrum_scales_with_concentration() {
        let config = AugmentationConfig {
            shift_sigma: 0.0,
            broaden_range: (1.0, 1.0),
            noise_sigma: 0.0,
            baseline_amplitude: 0.0,
            ..AugmentationConfig::default()
        };
        let augmenter = SpectraAugmenter::new(config).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let low = augmenter.synthesize(&[0.1, 0.0, 0.0, 0.0], &mut rng).unwrap();
        let high = augmenter.synthesize(&[0.3, 0.0, 0.0, 0.0], &mut rng).unwrap();
        assert!((high.area() / low.area() - 3.0).abs() < 0.01);
    }

    #[test]
    fn config_validation() {
        let bad_counts = AugmentationConfig {
            concentration_max: vec![1.0],
            ..AugmentationConfig::default()
        };
        assert!(SpectraAugmenter::new(bad_counts).is_err());
        let bad_range = AugmentationConfig {
            broaden_range: (1.5, 1.0),
            ..AugmentationConfig::default()
        };
        assert!(SpectraAugmenter::new(bad_range).is_err());
        let bad_conc = AugmentationConfig {
            concentration_max: vec![1.0, -1.0, 1.0, 1.0],
            ..AugmentationConfig::default()
        };
        assert!(SpectraAugmenter::new(bad_conc).is_err());
    }

    #[test]
    fn wrong_concentration_count_rejected() {
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(augmenter.synthesize(&[0.1], &mut rng).is_err());
    }

    /// `synthesize` before the shared scratch buffer: every component
    /// rendered into its own spectrum and added with `add_assign`.
    fn textbook_synthesize(
        augmenter: &SpectraAugmenter,
        concentrations: &[f64],
        rng: &mut ChaCha8Rng,
    ) -> Vec<f64> {
        let config = &augmenter.config;
        let mut out = ContinuousSpectrum::zeros(augmenter.axis);
        for (component, &c) in augmenter.components.iter().zip(concentrations) {
            if c <= 0.0 {
                continue;
            }
            let shift = config.shift_sigma * standard_normal(rng);
            let broaden = rng.gen_range(config.broaden_range.0..=config.broaden_range.1);
            out.add_assign(
                &component
                    .render(&augmenter.axis, c, shift, broaden)
                    .unwrap(),
            )
            .unwrap();
        }
        if config.baseline_amplitude > 0.0 {
            let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let cycles: f64 = rng.gen_range(0.5..2.5);
            let amp = config.baseline_amplitude * rng.gen::<f64>();
            let slope = 0.3 * amp * (rng.gen::<f64>() - 0.5);
            let n = out.len();
            for (k, v) in out.intensities_mut().iter_mut().enumerate() {
                let t = k as f64 / n as f64;
                *v += amp * (std::f64::consts::TAU * cycles * t + phase).sin() + slope * t;
            }
        }
        if config.noise_sigma > 0.0 {
            for v in out.intensities_mut() {
                *v += config.noise_sigma * standard_normal(rng);
            }
        }
        out.into_intensities()
    }

    #[test]
    fn generate_is_bit_identical_to_textbook_synthesis() {
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).unwrap();
        let seed = 7;
        let data = augmenter.generate(50, seed).unwrap();
        // `generate`'s draw order: the labels, then the spectrum.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (n, (input, conc)) in data.inputs.iter().zip(&data.concentrations).enumerate() {
            let labels: Vec<f64> = augmenter
                .config
                .concentration_max
                .iter()
                .map(|&max| rng.gen_range(0.0..=max))
                .collect();
            assert_eq!(&labels, conc);
            let want = textbook_synthesize(&augmenter, &labels, &mut rng);
            for (i, (g, w)) in input.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "spectrum {n} [{i}]");
            }
        }
    }

    #[test]
    fn names_follow_canonical_order() {
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).unwrap();
        let data = augmenter.generate(1, 1).unwrap();
        assert_eq!(
            data.names,
            vec!["p-toluidine", "o-FNB", "Li-HMDS", "MNDPA"]
        );
    }
}

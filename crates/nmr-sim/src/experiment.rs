//! The flow-reactor experiment: 300 online medium-resolution spectra with
//! a high-field reference channel.
//!
//! "Different reaction conditions for an organic lithiation reaction were
//! generated with the help of laboratory equipment and measured
//! simultaneously online using two methods: medium-resolution and
//! high-resolution NMR spectroscopy resulting in a set of 300 spectra as
//! raw data basis with four compound concentrations as the four labels of
//! interest" (paper §III.B).
//!
//! The generator is the *hidden ground truth* of the NMR study (hardware
//! substitute, DESIGN.md §2). Its spectra carry effects beyond the plain
//! pure-component superposition: composition-correlated peak shifts
//! ("the mixing of compounds in solution may shift single NMR peaks"),
//! per-spectrum line broadening, a smooth baseline distortion that the
//! IHM model does not include, and detector noise.

use chem::nmr::{lithiation_components, NmrComponent};
use chem::reaction::{default_doe, LithiationReaction, ReactionConditions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spectrum::noise::standard_normal;
use spectrum::{ContinuousSpectrum, UniformAxis};

use crate::{nmr_axis, NmrSimError};

/// Configuration of the hidden experimental effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Spectra acquired per steady-state plateau (paper: 20 × 15 = 300).
    pub spectra_per_plateau: usize,
    /// Coupling between Li-HMDS concentration and peak shift (ppm per
    /// mol/L) — the composition-correlated shift effect.
    pub shift_coupling: f64,
    /// Random per-spectrum shift jitter (ppm, 1σ).
    pub shift_jitter: f64,
    /// Per-spectrum line-broadening variation (1σ around 1.0).
    pub broadening_jitter: f64,
    /// Amplitude of the smooth baseline distortion.
    pub baseline_amplitude: f64,
    /// White detector noise (1σ).
    pub noise_sigma: f64,
    /// Relative error of the high-field reference channel (1σ).
    pub reference_error: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            spectra_per_plateau: 20,
            shift_coupling: 0.03,
            shift_jitter: 0.008,
            broadening_jitter: 0.05,
            baseline_amplitude: 0.8,
            noise_sigma: 0.03,
            reference_error: 0.004,
        }
    }
}

/// An experimental effects configuration with everything hidden disabled
/// (pure superposition plus nothing) — for ablations.
pub fn clean_config() -> ExperimentConfig {
    ExperimentConfig {
        shift_coupling: 0.0,
        shift_jitter: 0.0,
        broadening_jitter: 0.0,
        baseline_amplitude: 0.0,
        noise_sigma: 0.0,
        reference_error: 0.0,
        ..ExperimentConfig::default()
    }
}

/// One acquired experimental run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRun {
    /// The medium-resolution online spectra, in acquisition (time) order.
    pub spectra: Vec<ContinuousSpectrum>,
    /// High-field reference concentrations per spectrum, in canonical
    /// component order `[p-toluidine, o-FNB, Li-HMDS, MNDPA]`.
    pub reference: Vec<Vec<f64>>,
    /// The *true* concentrations per spectrum (hidden; for scoring only).
    pub truth: Vec<Vec<f64>>,
    /// Plateau index of every spectrum (0-based).
    pub plateau: Vec<usize>,
    /// The spectral axis.
    pub axis: UniformAxis,
}

impl ExperimentRun {
    /// Number of acquired spectra.
    pub fn len(&self) -> usize {
        self.spectra.len()
    }

    /// Returns `true` if no spectra were acquired.
    pub fn is_empty(&self) -> bool {
        self.spectra.is_empty()
    }

    /// Splits the run into plateau-wise slices of spectrum indices.
    pub fn plateau_indices(&self) -> Vec<Vec<usize>> {
        let n_plateaus = self.plateau.iter().copied().max().map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); n_plateaus];
        for (i, &p) in self.plateau.iter().enumerate() {
            out[p].push(i);
        }
        out
    }
}

/// The flow-reactor + medium-resolution NMR experiment generator.
#[derive(Debug, Clone)]
pub struct FlowReactorExperiment {
    components: Vec<NmrComponent>,
    reaction: LithiationReaction,
    doe: Vec<ReactionConditions>,
    config: ExperimentConfig,
    axis: UniformAxis,
    seed: u64,
}

impl FlowReactorExperiment {
    /// Creates an experiment over the default DoE (15 plateaus) and the
    /// four lithiation components.
    pub fn new(seed: u64, config: ExperimentConfig) -> Self {
        Self {
            components: lithiation_components(),
            reaction: LithiationReaction::new(),
            doe: default_doe(),
            config,
            axis: nmr_axis(),
            seed,
        }
    }

    /// The component models (canonical order).
    pub fn components(&self) -> &[NmrComponent] {
        &self.components
    }

    /// The spectral axis.
    pub fn axis(&self) -> &UniformAxis {
        &self.axis
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Acquires the full run: every DoE plateau in sequence, with
    /// `spectra_per_plateau` spectra each (default: 15 × 20 = 300).
    ///
    /// # Errors
    ///
    /// Propagates reaction and rendering errors.
    pub fn acquire(&self) -> Result<ExperimentRun, NmrSimError> {
        let _span = obs::span!("nmr.acquire");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut spectra = Vec::new();
        let mut reference = Vec::new();
        let mut truth = Vec::new();
        let mut plateau = Vec::new();
        for (p, conditions) in self.doe.iter().enumerate() {
            let concentrations = self.reaction.steady_state(conditions)?;
            let conc = concentrations.to_vec();
            for _ in 0..self.config.spectra_per_plateau {
                let spectrum = self.synthesize(&conc, &mut rng)?;
                let reference_row: Vec<f64> = conc
                    .iter()
                    .map(|&c| {
                        (c * (1.0 + self.config.reference_error * standard_normal(&mut rng)))
                            .max(0.0)
                    })
                    .collect();
                spectra.push(spectrum);
                reference.push(reference_row);
                truth.push(conc.clone());
                plateau.push(p);
                obs::counter_add("nmr.spectra_generated", 1);
            }
        }
        Ok(ExperimentRun {
            spectra,
            reference,
            truth,
            plateau,
            axis: self.axis,
        })
    }

    /// Synthesizes one experimental spectrum for the given concentrations
    /// (canonical component order), applying every hidden effect.
    ///
    /// # Errors
    ///
    /// Propagates rendering errors.
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
        let hmds = concentrations.get(2).copied().unwrap_or(0.0);
        let mut out = ContinuousSpectrum::zeros(self.axis);
        // Each component renders whole into `scratch` before it is added,
        // keeping the sum's order `out + (peak₁ + peak₂ + …)`.
        let mut scratch = ContinuousSpectrum::zeros(self.axis);
        for (i, component) in self.components.iter().enumerate() {
            if concentrations[i] <= 0.0 {
                continue;
            }
            // Composition-correlated shift: electrolyte (Li-HMDS) content
            // moves everything slightly downfield, plus random jitter.
            let shift = self.config.shift_coupling * hmds * alternating_sign(i)
                + self.config.shift_jitter * standard_normal(rng);
            let broaden =
                (1.0 + self.config.broadening_jitter * standard_normal(rng)).clamp(0.75, 1.35);
            component.render_into(
                &self.axis,
                concentrations[i],
                shift,
                broaden,
                scratch.intensities_mut(),
            )?;
            out.add_assign(&scratch)?;
        }
        // Smooth baseline distortion the hard model does not know about.
        if self.config.baseline_amplitude > 0.0 {
            let phase: f64 = standard_normal(rng) * std::f64::consts::PI;
            let cycles = 1.0 + (standard_normal(rng).abs() % 1.5);
            let amp = self.config.baseline_amplitude * (0.5 + 0.5 * rand::Rng::gen::<f64>(rng));
            let n = out.len();
            for (k, v) in out.intensities_mut().iter_mut().enumerate() {
                let t = k as f64 / n as f64;
                *v += amp * (2.0 * std::f64::consts::PI * cycles * t + phase).sin()
                    + 0.3 * amp * t;
            }
        }
        // Detector noise.
        if self.config.noise_sigma > 0.0 {
            for v in out.intensities_mut() {
                *v += self.config.noise_sigma * standard_normal(rng);
            }
        }
        Ok(out)
    }
}

/// Deterministic per-component shift direction (mixing moves some signals
/// upfield and others downfield).
fn alternating_sign(index: usize) -> f64 {
    if index.is_multiple_of(2) {
        1.0
    } else {
        -0.7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquires_300_spectra_over_15_plateaus() {
        let run = FlowReactorExperiment::new(1, ExperimentConfig::default())
            .acquire()
            .unwrap();
        assert_eq!(run.len(), 300);
        let plateaus = run.plateau_indices();
        assert_eq!(plateaus.len(), 15);
        assert!(plateaus.iter().all(|p| p.len() == 20));
    }

    #[test]
    fn acquisition_is_reproducible_per_seed() {
        let a = FlowReactorExperiment::new(5, ExperimentConfig::default())
            .acquire()
            .unwrap();
        let b = FlowReactorExperiment::new(5, ExperimentConfig::default())
            .acquire()
            .unwrap();
        assert_eq!(a.spectra[17], b.spectra[17]);
        assert_eq!(a.reference, b.reference);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FlowReactorExperiment::new(1, ExperimentConfig::default())
            .acquire()
            .unwrap();
        let b = FlowReactorExperiment::new(2, ExperimentConfig::default())
            .acquire()
            .unwrap();
        assert_ne!(a.spectra[0], b.spectra[0]);
    }

    #[test]
    fn reference_tracks_truth_closely() {
        let run = FlowReactorExperiment::new(3, ExperimentConfig::default())
            .acquire()
            .unwrap();
        for (r, t) in run.reference.iter().zip(&run.truth) {
            for (a, b) in r.iter().zip(t) {
                assert!((a - b).abs() <= 0.05 * b.max(0.01), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clean_config_reproduces_pure_superposition() {
        let experiment = FlowReactorExperiment::new(4, clean_config());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conc = [0.3, 0.4, 0.2, 0.1];
        let spec = experiment.synthesize(&conc, &mut rng).unwrap();
        // Compare against manual superposition.
        let mut expect = ContinuousSpectrum::zeros(*experiment.axis());
        for (component, &c) in experiment.components().iter().zip(&conc) {
            expect
                .add_assign(&component.render(experiment.axis(), c, 0.0, 1.0).unwrap())
                .unwrap();
        }
        let diff: f64 = spec
            .intensities()
            .iter()
            .zip(expect.intensities())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff < 1e-9, "diff {diff}");
    }

    #[test]
    fn hidden_effects_perturb_spectra() {
        let dirty = FlowReactorExperiment::new(4, ExperimentConfig::default());
        let clean = FlowReactorExperiment::new(4, clean_config());
        let mut rng1 = ChaCha8Rng::seed_from_u64(9);
        let mut rng2 = ChaCha8Rng::seed_from_u64(9);
        let conc = [0.3, 0.4, 0.2, 0.1];
        let a = dirty.synthesize(&conc, &mut rng1).unwrap();
        let b = clean.synthesize(&conc, &mut rng2).unwrap();
        let diff: f64 = a
            .intensities()
            .iter()
            .zip(b.intensities())
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
            / a.len() as f64;
        assert!(diff > 1e-3, "hidden effects too weak: {diff}");
    }

    #[test]
    fn wrong_concentration_count_rejected() {
        let experiment = FlowReactorExperiment::new(1, ExperimentConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(experiment.synthesize(&[1.0, 2.0], &mut rng).is_err());
    }

    /// `synthesize` before the shared scratch buffer: every component
    /// rendered into its own spectrum and added with `add_assign`.
    fn textbook_synthesize(
        experiment: &FlowReactorExperiment,
        concentrations: &[f64],
        rng: &mut ChaCha8Rng,
    ) -> ContinuousSpectrum {
        let config = experiment.config;
        let hmds = concentrations[2];
        let mut out = ContinuousSpectrum::zeros(experiment.axis);
        for (i, component) in experiment.components.iter().enumerate() {
            if concentrations[i] <= 0.0 {
                continue;
            }
            let shift = config.shift_coupling * hmds * alternating_sign(i)
                + config.shift_jitter * standard_normal(rng);
            let broaden = (1.0 + config.broadening_jitter * standard_normal(rng)).clamp(0.75, 1.35);
            let rendered = component
                .render(&experiment.axis, concentrations[i], shift, broaden)
                .unwrap();
            out.add_assign(&rendered).unwrap();
        }
        if config.baseline_amplitude > 0.0 {
            let phase: f64 = standard_normal(rng) * std::f64::consts::PI;
            let cycles = 1.0 + (standard_normal(rng).abs() % 1.5);
            let amp = config.baseline_amplitude * (0.5 + 0.5 * rand::Rng::gen::<f64>(rng));
            let n = out.len();
            for (k, v) in out.intensities_mut().iter_mut().enumerate() {
                let t = k as f64 / n as f64;
                *v += amp * (2.0 * std::f64::consts::PI * cycles * t + phase).sin() + 0.3 * amp * t;
            }
        }
        if config.noise_sigma > 0.0 {
            for v in out.intensities_mut() {
                *v += config.noise_sigma * standard_normal(rng);
            }
        }
        out
    }

    #[test]
    fn acquire_is_bit_identical_to_textbook_synthesis() {
        for seed in [1, 42] {
            let experiment = FlowReactorExperiment::new(seed, ExperimentConfig::default());
            let run = experiment.acquire().unwrap();
            // `acquire`'s draw order: the spectrum, then its reference row.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut index = 0;
            for conditions in &experiment.doe {
                let conc = experiment
                    .reaction
                    .steady_state(conditions)
                    .unwrap()
                    .to_vec();
                for _ in 0..experiment.config.spectra_per_plateau {
                    let want = textbook_synthesize(&experiment, &conc, &mut rng);
                    for c in &conc {
                        let _ = c
                            * (1.0 + experiment.config.reference_error * standard_normal(&mut rng));
                    }
                    let got = run.spectra[index].intensities();
                    for (i, (g, w)) in got.iter().zip(want.intensities()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "seed {seed} spectrum {index} [{i}]"
                        );
                    }
                    index += 1;
                }
            }
            assert_eq!(index, run.len());
        }
    }

    #[test]
    fn concentrations_vary_across_plateaus() {
        let run = FlowReactorExperiment::new(6, ExperimentConfig::default())
            .acquire()
            .unwrap();
        let plateaus = run.plateau_indices();
        let first = &run.truth[plateaus[0][0]];
        let last = &run.truth[plateaus[14][0]];
        assert_ne!(first, last);
    }
}

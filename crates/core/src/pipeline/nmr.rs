//! The NMR pipeline (paper §III.B, Figure 8).
//!
//! One [`NmrPipeline::run`]:
//!
//! 1. acquires the 300-spectrum flow-reactor run with its high-field
//!    reference channel;
//! 2. augments the parametric hard models into an arbitrarily sized
//!    synthetic training set (the paper's novel method);
//! 3. trains the paper's 10 532-parameter locally connected CNN on the
//!    synthetic data, selecting the best epoch on the experimental
//!    validation set;
//! 4. trains the paper's 221 956-parameter LSTM on plateau-repeat
//!    sequence windows;
//! 5. benchmarks both against Indirect Hard Modelling on accuracy (MSE
//!    vs the reference), steady-state stability (plateau standard
//!    deviation) and per-spectrum analysis time.

use std::time::Instant;

use chem::nmr::lithiation_components;
use chemometrics::ihm::IhmAnalyzer;
use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, History, TrainConfig, Trainer};
use neural::{Activation, Loss, Network};
use nmr_sim::augment::{AugmentationConfig, SpectraAugmenter};
use nmr_sim::experiment::{ExperimentConfig, ExperimentRun, FlowReactorExperiment};
use nmr_sim::sequence::plateau_order;

use crate::PipelineError;

/// Spectral points per spectrum (fixed by the axis; see
/// [`nmr_sim::nmr_axis`]).
pub const SPECTRUM_LEN: usize = 1700;
/// Number of predicted concentrations.
pub const N_COMPONENTS: usize = 4;

/// Configuration of one NMR pipeline run.
#[derive(Debug, Clone)]
pub struct NmrPipelineConfig {
    /// Synthetic training spectra to generate (paper: 300 000).
    pub augmented_spectra: usize,
    /// CNN training epochs (the paper found epoch ~50 best on the
    /// experimental validation set).
    pub cnn_epochs: usize,
    /// LSTM training epochs (paper: 100).
    pub lstm_epochs: usize,
    /// LSTM training windows generated by plateau-repeat augmentation.
    pub lstm_windows: usize,
    /// LSTM window length (paper: five timesteps).
    pub lstm_timesteps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Master seed.
    pub seed: u64,
    /// Fixed multiplicative input scaling applied to every spectrum
    /// before it reaches a network (training *and* inference). NMR peak
    /// heights reach O(100) in physical units (the 18-proton Li-HMDS
    /// singlet); bringing them to O(1) conditions the optimization.
    /// IHM operates on the raw spectra and is unaffected.
    pub input_scale: f64,
    /// Hidden experimental effects.
    pub experiment: ExperimentConfig,
    /// Augmentation simulator settings.
    pub augmentation: AugmentationConfig,
    /// Whether to run the (slow) IHM baseline.
    pub run_ihm: bool,
    /// Cap on the number of experimental spectra IHM analyzes
    /// (`None` = all 300).
    pub ihm_max_spectra: Option<usize>,
}

impl Default for NmrPipelineConfig {
    fn default() -> Self {
        Self {
            augmented_spectra: 3_000,
            cnn_epochs: 30,
            lstm_epochs: 8,
            lstm_windows: 1_200,
            lstm_timesteps: 5,
            batch_size: 32,
            learning_rate: 1e-3,
            seed: 42,
            input_scale: 0.02,
            experiment: ExperimentConfig::default(),
            augmentation: AugmentationConfig::default(),
            run_ihm: true,
            ihm_max_spectra: Some(60),
        }
    }
}

impl NmrPipelineConfig {
    /// A CI-scale configuration that finishes in a couple of minutes.
    pub fn quick_test() -> Self {
        Self {
            augmented_spectra: 400,
            cnn_epochs: 10,
            lstm_epochs: 3,
            lstm_windows: 150,
            run_ihm: false,
            ..Self::default()
        }
    }

    /// Paper-scale settings (300 000 synthetic spectra, full epochs,
    /// IHM over the whole run).
    pub fn paper_scale() -> Self {
        Self {
            augmented_spectra: 300_000,
            cnn_epochs: 50,
            lstm_epochs: 100,
            lstm_windows: 20_000,
            ihm_max_spectra: None,
            ..Self::default()
        }
    }
}

/// Accuracy/stability/latency scores of one analysis method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelScore {
    /// Mean squared error vs the high-field reference (mol²/L²).
    pub mse: f64,
    /// Mean per-component standard deviation within steady-state
    /// plateaus (mol/L) — the paper's LSTM stability metric.
    pub plateau_std: f64,
    /// Analysis time per spectrum, in seconds (for the networks, amortised
    /// over one batch of the whole evaluation set).
    pub seconds_per_spectrum: f64,
    /// Trainable parameters (0 for IHM).
    pub parameters: usize,
}

/// The outcome of one NMR pipeline run.
#[derive(Debug)]
pub struct NmrRunReport {
    /// The acquired experimental run.
    pub experiment: ExperimentRun,
    /// Scores of the convolutional model.
    pub cnn: ModelScore,
    /// Scores of the LSTM model.
    pub lstm: ModelScore,
    /// Scores of the IHM baseline, if it was run.
    pub ihm: Option<ModelScore>,
    /// The trained CNN.
    pub cnn_network: Network,
    /// The trained LSTM.
    pub lstm_network: Network,
    /// The CNN topology.
    pub cnn_spec: NetworkSpec,
    /// The LSTM topology.
    pub lstm_spec: NetworkSpec,
    /// CNN training history.
    pub cnn_history: History,
    /// LSTM training history.
    pub lstm_history: History,
}

/// The end-to-end NMR pipeline.
#[derive(Debug, Clone)]
pub struct NmrPipeline {
    config: NmrPipelineConfig,
}

impl NmrPipeline {
    /// Creates a pipeline after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] on zero-sized stages.
    pub fn new(config: NmrPipelineConfig) -> Result<Self, PipelineError> {
        for (label, v) in [
            ("augmented spectra", config.augmented_spectra),
            ("cnn epochs", config.cnn_epochs),
            ("lstm epochs", config.lstm_epochs),
            ("lstm windows", config.lstm_windows),
            ("lstm timesteps", config.lstm_timesteps),
            ("batch size", config.batch_size),
        ] {
            if v == 0 {
                return Err(PipelineError::InvalidConfig(format!("{label} is zero")));
            }
        }
        // An IHM baseline over zero spectra would report a perfect score:
        // an empty MSE is 0 and its per-spectrum time divides by zero.
        if config.run_ihm && config.ihm_max_spectra == Some(0) {
            return Err(PipelineError::InvalidConfig("ihm max spectra is zero".into()));
        }
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &NmrPipelineConfig {
        &self.config
    }

    /// The paper's CNN: LocallyConnected1D(4 filters, kernel 9, stride 9)
    /// → Flatten → Dense(4) on a 1700-point spectrum — exactly 10 532
    /// trainable parameters.
    pub fn cnn_spec() -> NetworkSpec {
        NetworkSpec::new(SPECTRUM_LEN)
            .layer(LayerSpec::LocallyConnected1d {
                filters: 4,
                kernel: 9,
                stride: 9,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense {
                units: N_COMPONENTS,
                activation: Activation::Linear,
            })
    }

    /// The paper's LSTM: 32 units over `timesteps` spectra → Dense(4) —
    /// exactly 221 956 trainable parameters at five 1700-point timesteps.
    pub fn lstm_spec(timesteps: usize) -> NetworkSpec {
        NetworkSpec::new(timesteps * SPECTRUM_LEN)
            .layer(LayerSpec::Lstm {
                units: 32,
                timesteps,
            })
            .layer(LayerSpec::Dense {
                units: N_COMPONENTS,
                activation: Activation::Linear,
            })
    }

    /// Runs the full comparison.
    ///
    /// # Errors
    ///
    /// Propagates acquisition, training and fitting errors.
    pub fn run(&self) -> Result<NmrRunReport, PipelineError> {
        let config = &self.config;
        // 1. Experimental acquisition.
        if !(config.input_scale.is_finite() && config.input_scale > 0.0) {
            return Err(PipelineError::InvalidConfig(format!(
                "input scale {} must be positive",
                config.input_scale
            )));
        }
        let scale = config.input_scale as f32;
        let experiment = FlowReactorExperiment::new(config.seed, config.experiment);
        let run = experiment.acquire()?;
        let reference_f32: Vec<Vec<f32>> = run
            .reference
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect();
        // Each dataset below is built flat, in the f32 form its network
        // reads, and dropped after its last reader.
        let mut validation_rows = Vec::with_capacity(run.len() * SPECTRUM_LEN);
        for s in &run.spectra {
            validation_rows.extend(s.intensities().iter().map(|&v| (v as f32) * scale));
        }
        let validation = Dataset::windows(validation_rows, SPECTRUM_LEN, 1, reference_f32)?;

        // 2. Augmentation, streamed into the CNN's rows.
        let augmenter = SpectraAugmenter::new(config.augmentation.clone())?;
        let synthetic = augmenter.generate_rows(
            config.augmented_spectra,
            config.seed ^ 0xA5A5,
            config.input_scale,
        )?;

        // 3. CNN.
        let cnn_spec = Self::cnn_spec();
        let mut cnn = cnn_spec.build(config.seed)?;
        let cnn_train =
            Dataset::windows(synthetic.rows, synthetic.spectrum_len, 1, synthetic.labels)?;
        let cnn_config = TrainConfig {
            epochs: config.cnn_epochs,
            batch_size: config.batch_size,
            optimizer: OptimizerSpec::Adam {
                lr: config.learning_rate,
            },
            loss: Loss::Mse,
            shuffle: true,
            seed: config.seed,
            restore_best: true,
            stop_at_val_loss: None,
        };
        let cnn_history = Trainer::new(cnn_config).fit(&mut cnn, &cnn_train, Some(&validation))?;

        // CNN evaluation.
        let start = Instant::now();
        let spectra: Vec<&[f32]> = validation.inputs().collect();
        let cnn_predictions = to_f64(cnn.predict_batch(&spectra)?);
        let cnn_time = start.elapsed().as_secs_f64() / run.len() as f64;
        let cnn_score = ModelScore {
            mse: mse_against(&cnn_predictions, &run.reference),
            plateau_std: plateau_std(&cnn_predictions, &run.plateau),
            seconds_per_spectrum: cnn_time,
            parameters: cnn.param_count(),
        };
        drop(validation);

        // 4. LSTM. The plateau-repeat sequence gathers its rows from the
        // CNN's augmented rows, which are dropped once it has them; a
        // window is a view of `lstm_timesteps` consecutive rows.
        let lstm_spec = Self::lstm_spec(config.lstm_timesteps);
        let mut lstm = lstm_spec.build(config.seed ^ 0x5A5A)?;
        let order = plateau_order(
            cnn_train.len(),
            config.lstm_timesteps,
            config.lstm_windows,
            config.seed ^ 0x1234,
        )?;
        // `plateau_order` draws every index below `cnn_train.len()`, so no
        // lookup below misses.
        let mut sequence_rows = Vec::with_capacity(order.len() * SPECTRUM_LEN);
        for &i in &order {
            sequence_rows.extend_from_slice(cnn_train.input(i).unwrap_or_default());
        }
        // Window w ends on timestep w + lstm_timesteps - 1 and takes its label.
        let sequence_targets: Vec<Vec<f32>> = order
            .iter()
            .skip(config.lstm_timesteps - 1)
            .filter_map(|&i| cnn_train.targets().get(i).cloned())
            .collect();
        drop(cnn_train);
        let lstm_train = Dataset::windows(
            sequence_rows,
            SPECTRUM_LEN,
            config.lstm_timesteps,
            sequence_targets,
        )?;
        // Experimental sliding windows for validation/evaluation. Each value
        // is scaled in f64 and then cast, as the training rows are.
        let mut experimental_rows = Vec::with_capacity(run.len() * SPECTRUM_LEN);
        for s in &run.spectra {
            let scaled = s.intensities().iter().map(|&v| (v * config.input_scale) as f32);
            experimental_rows.extend(scaled);
        }
        let window_targets: Vec<Vec<f32>> = run
            .reference
            .iter()
            .skip(config.lstm_timesteps - 1)
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect();
        let lstm_validation = Dataset::windows(
            experimental_rows,
            SPECTRUM_LEN,
            config.lstm_timesteps,
            window_targets,
        )?;
        let lstm_config = TrainConfig {
            epochs: config.lstm_epochs,
            ..cnn_config
        };
        let lstm_history =
            Trainer::new(lstm_config).fit(&mut lstm, &lstm_train, Some(&lstm_validation))?;

        // LSTM evaluation, one batch over the validation windows: the
        // analysis time per spectrum is amortised over it. Window i
        // predicts spectrum i + timesteps - 1.
        let start = Instant::now();
        let windows: Vec<&[f32]> = lstm_validation.inputs().collect();
        let lstm_predictions = to_f64(lstm.predict_batch(&windows)?);
        let lstm_time = start.elapsed().as_secs_f64() / lstm_predictions.len() as f64;
        let offset = config.lstm_timesteps - 1;
        let lstm_reference: Vec<Vec<f64>> = run.reference[offset..].to_vec();
        // Only score windows fully inside one plateau for the stability
        // metric; MSE uses all windows (as the paper's time series does).
        let lstm_score = ModelScore {
            mse: mse_against(&lstm_predictions, &lstm_reference),
            plateau_std: plateau_std_windowed(
                &lstm_predictions,
                &run.plateau,
                config.lstm_timesteps,
            ),
            seconds_per_spectrum: lstm_time,
            parameters: lstm.param_count(),
        };

        // 5. IHM baseline.
        let ihm = if config.run_ihm {
            let analyzer = IhmAnalyzer::new(lithiation_components(), *run.spectra[0].axis())?;
            let limit = config.ihm_max_spectra.unwrap_or(run.len()).min(run.len());
            // Spread the IHM subsample uniformly over the run so every
            // plateau is represented.
            let step = (run.len() as f64 / limit as f64).max(1.0);
            let indices: Vec<usize> = (0..limit)
                .map(|i| ((i as f64 * step) as usize).min(run.len() - 1))
                .collect();
            let start = Instant::now();
            let mut predictions = Vec::with_capacity(indices.len());
            for &i in &indices {
                let fit = analyzer.fit(&run.spectra[i])?;
                predictions.push(fit.concentrations);
            }
            let ihm_time = start.elapsed().as_secs_f64() / indices.len() as f64;
            let reference: Vec<Vec<f64>> =
                indices.iter().map(|&i| run.reference[i].clone()).collect();
            let plateaus: Vec<usize> = indices.iter().map(|&i| run.plateau[i]).collect();
            Some(ModelScore {
                mse: mse_against(&predictions, &reference),
                plateau_std: plateau_std(&predictions, &plateaus),
                seconds_per_spectrum: ihm_time,
                parameters: 0,
            })
        } else {
            None
        };

        Ok(NmrRunReport {
            experiment: run,
            cnn: cnn_score,
            lstm: lstm_score,
            ihm,
            cnn_network: cnn,
            lstm_network: lstm,
            cnn_spec,
            lstm_spec,
            cnn_history,
            lstm_history,
        })
    }
}

/// Network outputs widened to `f64` for scoring.
fn to_f64(rows: Vec<Vec<f32>>) -> Vec<Vec<f64>> {
    rows.into_iter()
        .map(|y| y.into_iter().map(f64::from).collect())
        .collect()
}

/// Mean squared error between prediction rows and reference rows.
fn mse_against(predictions: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (p, r) in predictions.iter().zip(reference) {
        for (a, b) in p.iter().zip(r) {
            acc += (a - b) * (a - b);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// Mean per-component standard deviation of predictions within plateaus.
fn plateau_std(predictions: &[Vec<f64>], plateaus: &[usize]) -> f64 {
    let n_plateaus = plateaus.iter().copied().max().map_or(0, |m| m + 1);
    let mut stds = Vec::new();
    for p in 0..n_plateaus {
        let rows: Vec<&Vec<f64>> = predictions
            .iter()
            .zip(plateaus)
            .filter(|&(_, &pl)| pl == p)
            .map(|(r, _)| r)
            .collect();
        if rows.len() < 2 {
            continue;
        }
        let width = rows[0].len();
        for c in 0..width {
            let values: Vec<f64> = rows.iter().map(|r| r[c]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / values.len() as f64;
            stds.push(var.sqrt());
        }
    }
    if stds.is_empty() {
        0.0
    } else {
        stds.iter().sum::<f64>() / stds.len() as f64
    }
}

/// Plateau std for windowed predictions: window `i` covers spectra
/// `[i, i + timesteps)`; only windows entirely inside one plateau count.
fn plateau_std_windowed(
    predictions: &[Vec<f64>],
    spectrum_plateaus: &[usize],
    timesteps: usize,
) -> f64 {
    let mut window_plateaus = Vec::with_capacity(predictions.len());
    let mut kept = Vec::with_capacity(predictions.len());
    for (i, row) in predictions.iter().enumerate() {
        let range = &spectrum_plateaus[i..i + timesteps];
        if range.iter().all(|&p| p == range[0]) {
            window_plateaus.push(range[0]);
            kept.push(row.clone());
        }
    }
    plateau_std(&kept, &window_plateaus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn_spec_has_paper_parameter_count() {
        let net = NmrPipeline::cnn_spec().build(1).unwrap();
        assert_eq!(net.param_count(), 10_532);
    }

    #[test]
    fn lstm_spec_has_paper_parameter_count() {
        let net = NmrPipeline::lstm_spec(5).build(1).unwrap();
        assert_eq!(net.param_count(), 221_956);
    }

    #[test]
    fn config_validation() {
        let mut config = NmrPipelineConfig::quick_test();
        config.cnn_epochs = 0;
        assert!(NmrPipeline::new(config).is_err());
    }

    #[test]
    fn ihm_over_zero_spectra_is_rejected() {
        let config = NmrPipelineConfig {
            run_ihm: true,
            ihm_max_spectra: Some(0),
            ..NmrPipelineConfig::quick_test()
        };
        assert!(matches!(
            NmrPipeline::new(config.clone()),
            Err(PipelineError::InvalidConfig(message)) if message.contains("ihm")
        ));
        // The cap only matters when the baseline runs.
        assert!(NmrPipeline::new(NmrPipelineConfig { run_ihm: false, ..config }).is_ok());
    }

    #[test]
    fn mse_and_plateau_helpers() {
        let preds = vec![vec![1.0, 2.0], vec![1.0, 4.0], vec![5.0, 5.0]];
        let refs = vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![5.0, 5.0]];
        assert!((mse_against(&preds, &refs) - 4.0 / 6.0).abs() < 1e-12);
        // Two plateaus: [0, 0] and [1].
        let plateaus = vec![0, 0, 1];
        let std = plateau_std(&preds, &plateaus);
        // Plateau 0: component 0 std 0, component 1 std 1.0 -> mean 0.5.
        assert!((std - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_plateau_std_skips_boundary_windows() {
        // 4 spectra over 2 plateaus; windows of 2: (0,1) in plateau 0,
        // (1,2) crosses, (2,3) in plateau 1.
        let predictions = vec![vec![1.0], vec![2.0], vec![3.0]];
        let plateaus = vec![0, 0, 1, 1];
        let std = plateau_std_windowed(&predictions, &plateaus, 2);
        // Windows kept: idx 0 (plateau 0) and idx 2 (plateau 1): each a
        // single row, so no std contribution.
        assert_eq!(std, 0.0);
    }
}

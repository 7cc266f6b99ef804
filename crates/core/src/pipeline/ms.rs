//! The mass-spectrometry pipeline (paper §III.A, Figure 3).
//!
//! One [`MsPipeline::run`] performs the complete toolflow:
//!
//! 1. a calibration campaign on the prototype (14 known mixtures ×
//!    `calibration_samples_per_mixture` measurements);
//! 2. Tool 2 — instrument characterization from those measurements;
//! 3. Tools 1+3 — generation of `training_spectra` labelled simulated
//!    spectra at random compositions;
//! 4. Tool 4 — training the CNN with MAE loss on an 80/20 split;
//! 5. evaluation on the held-out *simulated* validation data;
//! 6. evaluation on a fresh *measured* campaign (the sim-to-real gap).

use std::sync::Arc;

use chem::fragmentation::GasLibrary;
use ms_sim::campaign::{run_calibration_campaign, run_evaluation_campaign, MS_TASK_SUBSTANCES};
use ms_sim::characterize::{CharacterizationReport, Characterizer};
use ms_sim::prototype::MmsPrototype;
use ms_sim::simulate::{LabeledSpectra, TrainingSimulator};
use neural::guard::{GuardConfig, GuardedTrainer, RecoveryEvent};
use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig};
use neural::{Activation, Loss, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spectrum::UniformAxis;

use crate::recovery::{RetryPolicy, StageRunner};
use crate::PipelineError;

/// The three activation choices the paper sweeps in Figure 5: hidden
/// convolutional layers, the final convolutional layer (Table 1 layer 6),
/// and the dense output layer (layer 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActivationChoice {
    /// Hidden convolutional layers (paper: ReLU vs SELU).
    pub hidden: Activation,
    /// Final convolutional layer (paper: softmax vs linear).
    pub final_conv: Activation,
    /// Output dense layer (paper: softmax vs linear).
    pub output: Activation,
}

impl ActivationChoice {
    /// The paper's best configuration (Table 1): SELU hidden, softmax on
    /// both output stages.
    pub fn paper_best() -> Self {
        Self {
            hidden: Activation::Selu,
            final_conv: Activation::Softmax,
            output: Activation::Softmax,
        }
    }

    /// The paper's initial configuration: linear activations on layers
    /// 6 and 8 (§III.A.2, 0.14 % sim / 3.15 % measured).
    pub fn paper_initial() -> Self {
        Self {
            hidden: Activation::Selu,
            final_conv: Activation::Linear,
            output: Activation::Linear,
        }
    }

    /// All eight Figure 5 variants:
    /// {ReLU, SELU} × {softmax, linear} × {softmax, linear}.
    pub fn figure5_grid() -> Vec<ActivationChoice> {
        let mut out = Vec::with_capacity(8);
        for hidden in [Activation::Relu, Activation::Selu] {
            for final_conv in [Activation::Softmax, Activation::Linear] {
                for output in [Activation::Softmax, Activation::Linear] {
                    out.push(ActivationChoice {
                        hidden,
                        final_conv,
                        output,
                    });
                }
            }
        }
        out
    }

    /// The Figure 5 x-axis label, e.g. `"selu sftm/sftm"`.
    pub fn label(&self) -> String {
        format!(
            "{} {}/{}",
            self.hidden.short_name(),
            self.final_conv.short_name(),
            self.output.short_name()
        )
    }
}

/// Configuration of one MS pipeline run.
#[derive(Debug, Clone)]
pub struct MsPipelineConfig {
    /// Measurement-task substances (network output order).
    pub substances: Vec<String>,
    /// Spectral axis (defaults to m/z 1–100 step 0.25 → 397 inputs).
    pub axis: UniformAxis,
    /// Calibration measurements per mixture for Tool 2 (the paper sweeps
    /// 10–150 in Figure 6 and used ~200 for the final model).
    pub calibration_samples_per_mixture: usize,
    /// Simulated training spectra to generate (paper: 100 000).
    pub training_spectra: usize,
    /// Measured evaluation samples per mixture.
    pub evaluation_samples_per_mixture: usize,
    /// Activation functions of the Table 1 stack.
    pub activations: ActivationChoice,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Stop training once the simulated-validation loss reaches this
    /// target (the paper's quality gate: "a mean error of no more than
    /// 0.005 on the validation data").
    pub target_validation_mae: Option<f32>,
    /// Master seed for data generation, initialization and shuffling.
    pub seed: u64,
}

impl Default for MsPipelineConfig {
    fn default() -> Self {
        Self {
            substances: MS_TASK_SUBSTANCES.iter().map(|&s| s.to_string()).collect(),
            axis: ms_sim::instrument::default_axis(),
            calibration_samples_per_mixture: 25,
            training_spectra: 2_000,
            evaluation_samples_per_mixture: 10,
            activations: ActivationChoice::paper_best(),
            epochs: 4,
            batch_size: 32,
            learning_rate: 1e-3,
            target_validation_mae: None,
            seed: 42,
        }
    }
}

impl MsPipelineConfig {
    /// A CI-scale configuration: coarse axis (m/z step 0.5 → 199 inputs),
    /// few spectra, few epochs. Finishes in seconds; accuracy targets are
    /// loose.
    pub fn quick_test() -> Self {
        Self {
            axis: UniformAxis::from_range(1.0, 100.0, 0.5).expect("valid axis"),
            calibration_samples_per_mixture: 5,
            training_spectra: 300,
            evaluation_samples_per_mixture: 3,
            epochs: 3,
            ..Self::default()
        }
    }

    /// Paper-scale settings (100 000 training spectra, more epochs).
    /// Used by the harness binaries under `SPECTROAI_FULL=1`.
    pub fn paper_scale() -> Self {
        Self {
            calibration_samples_per_mixture: 200,
            training_spectra: 100_000,
            evaluation_samples_per_mixture: 20,
            epochs: 10,
            ..Self::default()
        }
    }
}

/// The outcome of one MS pipeline run.
#[derive(Debug)]
pub struct MsRunReport {
    /// Tool 2 diagnostics and the estimated instrument.
    pub characterization: CharacterizationReport,
    /// The built topology.
    pub spec: NetworkSpec,
    /// The trained network (best-validation weights restored).
    pub network: Network,
    /// Training history.
    pub history: neural::train::History,
    /// Mean absolute error on the held-out *simulated* validation set
    /// (fractions: 0.005 = 0.5 %).
    pub validation_mae: f64,
    /// Per-substance MAE on the simulated validation set.
    pub per_substance_validation: Vec<f64>,
    /// Mean absolute error on freshly *measured* prototype data.
    pub measured_mae: f64,
    /// Per-substance MAE on measured data (Figures 5–7 bars).
    pub per_substance_measured: Vec<f64>,
    /// Substance order of the per-substance vectors.
    pub substances: Vec<String>,
    /// Calibration samples per mixture actually used. Equals the
    /// configured count unless the pipeline degraded the campaign after
    /// repeated characterization failures.
    pub calibration_samples_used: usize,
    /// Training-guard rollbacks performed during Tool 4 (empty for a
    /// clean run).
    pub training_recovery: Vec<RecoveryEvent>,
}

/// The end-to-end MS pipeline.
#[derive(Debug, Clone)]
pub struct MsPipeline {
    config: MsPipelineConfig,
}

impl MsPipeline {
    /// Smallest calibration campaign (samples per mixture) the pipeline
    /// degrades to before giving up.
    pub const MIN_CALIBRATION_SAMPLES: usize = 2;

    /// Creates a pipeline after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for empty substance lists
    /// or zero-sized stages.
    pub fn new(config: MsPipelineConfig) -> Result<Self, PipelineError> {
        if config.substances.is_empty() {
            return Err(PipelineError::InvalidConfig("no substances".into()));
        }
        for (label, v) in [
            ("calibration samples", config.calibration_samples_per_mixture),
            ("training spectra", config.training_spectra),
            ("evaluation samples", config.evaluation_samples_per_mixture),
            ("epochs", config.epochs),
            ("batch size", config.batch_size),
        ] {
            if v == 0 {
                return Err(PipelineError::InvalidConfig(format!("{label} is zero")));
            }
        }
        Ok(Self { config })
    }

    /// The paper's Table 1 topology for `input_len` spectral points and
    /// `outputs` substances, with the given activation choice.
    pub fn table1_spec(
        input_len: usize,
        outputs: usize,
        activations: ActivationChoice,
    ) -> NetworkSpec {
        NetworkSpec::new(input_len)
            .layer(LayerSpec::Reshape { channels: 1 })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 20,
                stride: 1,
                activation: activations.hidden,
            })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 20,
                stride: 3,
                activation: activations.hidden,
            })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 15,
                stride: 2,
                activation: activations.hidden,
            })
            .layer(LayerSpec::Conv1d {
                filters: 15,
                kernel: 15,
                stride: 4,
                activation: activations.final_conv,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense {
                units: outputs,
                activation: activations.output,
            })
    }

    /// Runs Tools 1–4 end to end against `prototype` and evaluates the
    /// result on fresh measured data.
    ///
    /// This is [`MsPipeline::run_with_recovery`] with a one-attempt
    /// [`StageRunner`] and no fault plan: no stage is retried, and a clean
    /// run trains bit-identically to a plain [`neural::train::Trainer`].
    /// The recovery that needs no retry budget still applies: a failing
    /// calibration + characterization stage is rerun with half the
    /// samples per mixture (down to
    /// [`MsPipeline::MIN_CALIBRATION_SAMPLES`]), and a diverging training
    /// batch is rolled back to the last checkpoint with the learning rate
    /// backed off.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stage`] naming the stage that failed and
    /// wrapping its error.
    pub fn run(&self, prototype: &mut MmsPrototype) -> Result<MsRunReport, PipelineError> {
        let mut runner = StageRunner::new(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        self.run_with_recovery(prototype, &mut runner)
    }

    /// Runs the MS toolflow with every stage under `runner`'s
    /// retry/backoff policy and training under a divergence guard with
    /// checkpoint rollback. A calibration + characterization stage that
    /// keeps failing across its whole retry budget degrades gracefully —
    /// the campaign is retried with half the samples per mixture
    /// (Figure 6's axis, floor of [`MsPipeline::MIN_CALIBRATION_SAMPLES`])
    /// before giving up.
    ///
    /// If the runner carries a [`faultsim::FaultPlan`], it is shared with
    /// the training guard so NaN-batch injection exercises rollback.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stage`] once a stage exhausts retries
    /// (and, for calibration, all degradation levels); a training run
    /// that diverges beyond recovery fails the `train` stage.
    pub fn run_with_recovery(
        &self,
        prototype: &mut MmsPrototype,
        runner: &mut StageRunner,
    ) -> Result<MsRunReport, PipelineError> {
        let _run_span = obs::span!("pipeline.ms.run");
        // 1.+2. Calibration + characterization, with graceful degradation.
        let mut samples = self.config.calibration_samples_per_mixture;
        let (characterization, calibration_samples_used) = loop {
            let result = runner.run("calibration", || {
                let calibration = run_calibration_campaign(prototype, samples)?;
                // Re-measure on the pipeline's axis if it differs from the
                // prototype's native one ("missing values would be
                // interpolated when the resolution was changed").
                let calibration: Vec<_> = calibration
                    .into_iter()
                    .map(|mut s| {
                        if s.spectrum.axis() != &self.config.axis {
                            s.spectrum = s.spectrum.resampled(&self.config.axis);
                        }
                        s
                    })
                    .collect();
                let characterizer =
                    Characterizer::new(GasLibrary::standard(), Some("He".into()));
                Ok(characterizer.characterize(&calibration)?)
            });
            match result {
                Ok(characterization) => break (characterization, samples),
                Err(err) => {
                    let halved = samples / 2;
                    if halved < Self::MIN_CALIBRATION_SAMPLES {
                        return Err(err);
                    }
                    samples = halved;
                }
            }
        };

        // 3. Simulated training data.
        let simulated = runner.run("simulate", || {
            let simulator = TrainingSimulator::new(
                characterization.model.clone(),
                GasLibrary::standard(),
                self.config.substances.clone(),
                self.config.axis,
            )?;
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
            Ok(simulator.generate_dataset(self.config.training_spectra, &mut rng)?)
        })?;

        // 4. Dataset split and guarded training. A fresh network per
        // attempt so a retried stage starts from a clean slate.
        let (train, validation) = runner.run("build-dataset", || {
            let dataset = Dataset::new(simulated.inputs_f32(), simulated.labels_f32())?;
            Ok(dataset.split(0.8)?)
        })?;
        let spec = Self::table1_spec(
            self.config.axis.len(),
            self.config.substances.len(),
            self.config.activations,
        );
        let train_config = TrainConfig {
            epochs: self.config.epochs,
            batch_size: self.config.batch_size,
            optimizer: OptimizerSpec::Adam {
                lr: self.config.learning_rate,
            },
            loss: Loss::Mae,
            shuffle: true,
            seed: self.config.seed,
            restore_best: true,
            stop_at_val_loss: self.config.target_validation_mae,
        };
        let plan = runner.fault_plan().map(Arc::clone);
        let (mut network, outcome) = runner.run("train", || {
            let mut network = spec.build(self.config.seed)?;
            let mut trainer = GuardedTrainer::new(train_config, GuardConfig::default())?;
            if let Some(plan) = &plan {
                trainer = trainer.with_fault_plan(Arc::clone(plan));
            }
            let outcome = trainer.fit(&mut network, &train, Some(&validation))?;
            Ok((network, outcome))
        })?;

        // 5. Simulated-validation quality.
        let per_substance_validation = validation.per_output_mae(&mut network);
        let validation_mae = per_substance_validation.iter().sum::<f64>()
            / per_substance_validation.len() as f64;

        // 6. Measured evaluation campaign.
        let (measured_mae, per_substance_measured) = runner.run("evaluate", || {
            let measured = run_evaluation_campaign(
                prototype,
                self.config.evaluation_samples_per_mixture,
            )?;
            let measured = self.resample_labeled(measured);
            evaluate_on(&mut network, &measured)
        })?;

        Ok(MsRunReport {
            characterization,
            spec,
            network,
            history: outcome.history,
            validation_mae,
            per_substance_validation,
            measured_mae,
            per_substance_measured,
            substances: self.config.substances.clone(),
            calibration_samples_used,
            training_recovery: outcome.recovery,
        })
    }

    /// Re-samples a labelled set onto the pipeline axis if needed.
    fn resample_labeled(&self, mut data: LabeledSpectra) -> LabeledSpectra {
        if data.axis == self.config.axis {
            return data;
        }
        let src = data.axis;
        data.inputs = data
            .inputs
            .iter()
            .map(|row| spectrum::interp::resample(&src, row, &self.config.axis))
            .collect();
        data.axis = self.config.axis;
        data
    }
}

/// Evaluates a trained network on a labelled spectra set, returning the
/// overall and per-substance MAE.
///
/// # Errors
///
/// Returns [`PipelineError::Neural`] if the set is inconsistent with the
/// network shapes.
pub fn evaluate_on(
    network: &mut Network,
    data: &LabeledSpectra,
) -> Result<(f64, Vec<f64>), PipelineError> {
    let dataset = Dataset::new(data.inputs_f32(), data.labels_f32())?;
    let per_substance = dataset.per_output_mae(network);
    let overall = per_substance.iter().sum::<f64>() / per_substance.len() as f64;
    Ok((overall, per_substance))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_grid_has_eight_distinct_variants() {
        let grid = ActivationChoice::figure5_grid();
        assert_eq!(grid.len(), 8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(grid[i], grid[j]);
            }
        }
        assert!(grid.contains(&ActivationChoice::paper_best()));
    }

    #[test]
    fn labels_match_paper_abbreviations() {
        assert_eq!(ActivationChoice::paper_best().label(), "selu sftm/sftm");
        assert_eq!(ActivationChoice::paper_initial().label(), "selu lin/lin");
    }

    #[test]
    fn config_validation() {
        let mut config = MsPipelineConfig::quick_test();
        config.substances.clear();
        assert!(MsPipeline::new(config).is_err());
        let mut config = MsPipelineConfig::quick_test();
        config.epochs = 0;
        assert!(MsPipeline::new(config).is_err());
    }

    #[test]
    fn table1_spec_builds_on_both_axes() {
        // Paper axis.
        let spec = MsPipeline::table1_spec(397, 8, ActivationChoice::paper_best());
        assert!(spec.build(1).is_ok());
        // Quick-test axis.
        let spec = MsPipeline::table1_spec(199, 8, ActivationChoice::paper_best());
        let net = spec.build(1).unwrap();
        assert_eq!(net.output_len(), 8);
    }

    #[test]
    fn quick_pipeline_runs_end_to_end() {
        let config = MsPipelineConfig::quick_test();
        let mut prototype = MmsPrototype::new(5);
        let report = MsPipeline::new(config).unwrap().run(&mut prototype).unwrap();
        assert_eq!(report.substances.len(), 8);
        assert_eq!(report.per_substance_measured.len(), 8);
        assert!(report.validation_mae.is_finite());
        assert!(report.measured_mae.is_finite());
        // Even a quick run should learn something.
        assert!(report.validation_mae < 0.125, "validation {}", report.validation_mae);
        // And the sim-to-real gap should appear.
        assert!(report.measured_mae >= report.validation_mae * 0.8);
    }
}

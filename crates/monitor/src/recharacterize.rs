//! Auto-recharacterization: the paper's Tools 2–4 as a resumable,
//! tick-driven state machine.
//!
//! When drift is confirmed the loop hands control here. Each call to
//! [`Recharacterizer::step`] advances *one* sub-phase, so the main
//! stream keeps flowing (and keeps being served) between phases:
//!
//! ```text
//! Collecting ──▶ Characterizing ──▶ Training ──▶ Publishing ──▶ Swapping
//!     ▲                │ (tool failure: retry                      │
//!     └── fresh windows ┘  with fresh windows)        rolling_swap ┘
//! ```
//!
//! * **Collecting** draws the calibration campaign *through the
//!   stream* (a few mixtures per tick) — sensor dropouts are discarded
//!   at the boundary and never reach the estimator.
//! * **Characterizing** runs `ms_sim::characterize`. An injected tool
//!   failure (`FaultPlan::fail_characterize`) or an estimation error
//!   consumes one retry and sends the machine back to collect fresh
//!   windows; exhausting retries fails the episode.
//! * **Training** regenerates labelled spectra from the *estimated*
//!   instrument and retrains under `neural::guard` (NaN/divergence
//!   rollback included).
//! * **Publishing** deploys the artifact to the datastore and publishes
//!   through [`serve::ModelRegistry::publish_gated`]: the validation
//!   gate (finite outputs, MAE under [`RecharacterizeConfig::gate_max_mae`])
//!   runs *before* the version becomes visible to any reader.
//! * **Swapping** waits for every shard to be healthy, then calls
//!   [`serve::Router::rolling_swap`]. A failed canary (e.g. an armed
//!   mid-swap worker panic) consumes one retry and waits for the
//!   supervisor to restart the shard; exhausting retries fails the
//!   episode (the routers' pins have already rolled back).

use chem::fragmentation::GasLibrary;
use chem::Mixture;
use datastore::Store;
use faultsim::FaultPlan;
use ms_sim::campaign::{calibration_mixtures, MS_TASK_SUBSTANCES};
use ms_sim::characterize::{CharacterizationReport, Characterizer};
use ms_sim::instrument::InstrumentModel;
use ms_sim::prototype::MeasuredSample;
use ms_sim::simulate::TrainingSimulator;
use neural::guard::{GuardConfig, GuardedTrainer};
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig};
use neural::{Activation, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serve::{HealthState, Router, ServeError, SwapReport};
use spectroai::pipeline::deploy::deploy_network;
use spectrum::UniformAxis;

use crate::stream::MsStream;
use crate::MonitorError;

/// The ignition/carrier gas the characterizer estimates.
const IGNITION_GAS: &str = "He";

/// Tuning for the recharacterization pipeline.
#[derive(Debug, Clone)]
pub struct RecharacterizeConfig {
    /// The served model name (registry key).
    pub model_name: String,
    /// Datastore collection deployments land in.
    pub collection: String,
    /// The serving-side input axis (training data and inference inputs
    /// are resampled onto it).
    pub serving_axis: UniformAxis,
    /// Network output order.
    pub substances: Vec<String>,
    /// Calibration measurements per mixture.
    pub samples_per_mixture: usize,
    /// Calibration mixtures drawn per tick while collecting.
    pub mixtures_per_tick: usize,
    /// Characterization attempts before the episode fails.
    pub characterize_retries: u32,
    /// Training spectra generated from the estimated instrument.
    pub train_spectra: usize,
    /// Held-out validation spectra (drives the publish gate).
    pub val_spectra: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Training batch size (zero fails the retrain with
    /// `NeuralError::InvalidSpec`).
    pub batch_size: usize,
    /// Publish gate: reject candidates whose validation MAE exceeds
    /// this (or whose outputs are non-finite).
    pub gate_max_mae: f32,
    /// Rolling-swap attempts before the episode fails.
    pub swap_retries: u32,
    /// Base seed for dataset generation and training.
    pub seed: u64,
}

impl RecharacterizeConfig {
    /// A CI-scale configuration: coarse 199-point serving axis, small
    /// dense network, short training.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Spectrum`] if the axis construction fails
    /// (it cannot, for these constants).
    pub fn quick(model_name: impl Into<String>) -> Result<Self, MonitorError> {
        Ok(Self {
            model_name: model_name.into(),
            collection: "deployed_models".into(),
            serving_axis: UniformAxis::from_range(1.0, 100.0, 0.5)?,
            substances: MS_TASK_SUBSTANCES.iter().map(|s| s.to_string()).collect(),
            samples_per_mixture: 2,
            mixtures_per_tick: 5,
            characterize_retries: 2,
            train_spectra: 240,
            val_spectra: 60,
            epochs: 4,
            batch_size: 16,
            gate_max_mae: 0.2,
            swap_retries: 4,
            seed: 0,
        })
    }

    /// The network architecture trained on recharacterization: a small
    /// dense head sized for the serving axis.
    pub fn network_spec(&self) -> NetworkSpec {
        NetworkSpec::new(self.serving_axis.len())
            .layer(LayerSpec::Dense {
                units: 32,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::Dense {
                units: self.substances.len(),
                activation: Activation::Softmax,
            })
    }
}

/// A freshly characterized-and-trained candidate, pre-publication.
#[derive(Debug)]
struct Candidate {
    model: InstrumentModel,
    spec: NetworkSpec,
    network: Network,
    validation: Dataset,
}

/// Result of bootstrapping the first served model from a stream.
#[derive(Debug)]
pub struct Bootstrap {
    /// The published model version (always 1 on a fresh store).
    pub version: u32,
    /// The estimated instrument the loop believes in.
    pub believed: InstrumentModel,
    /// Characterization diagnostics.
    pub report: CharacterizationReport,
}

/// Characterizes, trains and publishes the initial model — the setup
/// the paper performs by hand before any monitoring can start. Consumes
/// calibration windows from the stream; does not consult the
/// characterize-failure fault hook (bootstrap is supervised setup, not
/// part of the monitored loop).
///
/// # Errors
///
/// Any failure of the underlying tools is fatal here — there is no
/// previous model to fall back to.
pub fn bootstrap(
    stream: &mut MsStream,
    store: &Store,
    registry: &serve::ModelRegistry,
    config: &RecharacterizeConfig,
    faults: &FaultPlan,
) -> Result<Bootstrap, MonitorError> {
    let _span = obs::span!("monitor.bootstrap");
    let mixtures = calibration_mixtures();
    let (samples, _dropouts) =
        stream.calibration_series(&mixtures, config.samples_per_mixture, faults)?;
    let report = Characterizer::new(GasLibrary::standard(), Some(IGNITION_GAS.into()))
        .characterize(&samples)?;
    let candidate = train_candidate(report.model.clone(), config, config.seed)?;
    let version = publish_candidate(&candidate, store, registry, config)?;
    Ok(Bootstrap {
        version,
        believed: report.model.clone(),
        report,
    })
}

/// Generates data from `model`, builds and guard-trains the network.
fn train_candidate(
    model: InstrumentModel,
    config: &RecharacterizeConfig,
    seed: u64,
) -> Result<Candidate, MonitorError> {
    let _span = obs::span!("monitor.train");
    let simulator = TrainingSimulator::new(
        model.clone(),
        GasLibrary::standard(),
        config.substances.clone(),
        config.serving_axis,
    )?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let train = simulator.generate_dataset(config.train_spectra, &mut rng)?;
    let val = simulator.generate_dataset(config.val_spectra, &mut rng)?;
    let train = Dataset::new(train.inputs_f32(), train.labels_f32())?;
    let validation = Dataset::new(val.inputs_f32(), val.labels_f32())?;
    let spec = config.network_spec();
    let mut network = spec.build(seed)?;
    let trainer = GuardedTrainer::new(
        TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            seed,
            ..TrainConfig::default()
        },
        GuardConfig::default(),
    )?;
    trainer.fit(&mut network, &train, Some(&validation))?;
    Ok(Candidate {
        model,
        spec,
        network,
        validation,
    })
}

/// Deploys the candidate to the datastore and publishes it through the
/// gated registry path. The gate replays the validation set against the
/// *compiled* plan: all outputs must be finite and the MAE under
/// [`RecharacterizeConfig::gate_max_mae`], otherwise the version never
/// becomes visible.
fn publish_candidate(
    candidate: &Candidate,
    store: &Store,
    registry: &serve::ModelRegistry,
    config: &RecharacterizeConfig,
) -> Result<u32, MonitorError> {
    let _span = obs::span!("monitor.publish");
    let receipt = deploy_network(
        store,
        &config.collection,
        &config.model_name,
        candidate.spec.clone(),
        &candidate.network,
        [],
    )?;
    let exported = neural::export::ExportedNetwork::from_network(
        candidate.spec.clone(),
        &candidate.network,
        config.model_name.clone(),
    );
    let validation = &candidate.validation;
    let gate_max = config.gate_max_mae;
    registry.publish_gated(&config.model_name, receipt.version, &exported, |plan| {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (input, target) in validation.inputs().zip(validation.targets()) {
            let output = plan
                .predict(input)
                .map_err(|err| format!("candidate inference failed: {err}"))?;
            for (o, t) in output.iter().zip(target) {
                if !o.is_finite() {
                    return Err("candidate produced non-finite output".into());
                }
                total += f64::from((o - t).abs());
                count += 1;
            }
        }
        if count == 0 {
            return Err("validation set is empty".into());
        }
        let mae = total / count as f64;
        if mae > f64::from(gate_max) {
            return Err(format!("validation MAE {mae:.4} exceeds gate {gate_max}"));
        }
        Ok(())
    })?;
    obs::counter_add("monitor.models_published", 1);
    Ok(receipt.version)
}

/// Where the state machine currently is.
enum Phase {
    Collecting { next_mixture: usize },
    Characterizing,
    Training { model: InstrumentModel },
    Publishing { candidate: Candidate },
    Swapping { version: u32, model: InstrumentModel },
}

/// What one [`Recharacterizer::step`] produced.
#[derive(Debug)]
pub enum StepOutcome {
    /// The machine advanced one sub-phase; call again next tick.
    InProgress {
        /// The phase the machine is now in (for reporting).
        phase: &'static str,
    },
    /// The swap completed: the fleet serves `version`, whose training
    /// data came from `model`.
    Swapped {
        /// The now-serving model version.
        version: u32,
        /// The estimated instrument behind it (the loop's new belief).
        model: InstrumentModel,
        /// The router's swap receipt.
        report: SwapReport,
    },
    /// The episode failed; the fleet still serves the previous version.
    Failed {
        /// What exhausted the retries.
        reason: String,
    },
}

/// The tick-driven recharacterization state machine. See module docs.
pub struct Recharacterizer {
    config: RecharacterizeConfig,
    episode_seed: u64,
    phase: Phase,
    samples: Vec<MeasuredSample>,
    mixtures: Vec<Mixture>,
    /// Calibration measurements lost to sensor dropout.
    pub calibration_dropouts: u64,
    /// Characterization attempts consumed (injected failures included).
    pub characterize_attempts: u32,
    /// Rolling-swap attempts consumed.
    pub swap_attempts: u32,
}

impl Recharacterizer {
    /// Starts a fresh recharacterization for one episode. The episode
    /// seed decorrelates training across episodes while staying
    /// deterministic.
    pub fn begin(config: RecharacterizeConfig, episode_seed: u64) -> Self {
        Self {
            config,
            episode_seed,
            phase: Phase::Collecting { next_mixture: 0 },
            samples: Vec::new(),
            mixtures: calibration_mixtures(),
            calibration_dropouts: 0,
            characterize_attempts: 0,
            swap_attempts: 0,
        }
    }

    /// The phase name, for reporting.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Collecting { .. } => "collecting",
            Phase::Characterizing => "characterizing",
            Phase::Training { .. } => "training",
            Phase::Publishing { .. } => "publishing",
            Phase::Swapping { .. } => "swapping",
        }
    }

    /// Whether the machine is in its swap phase (the loop reports this
    /// as the `Swapping` lifecycle state).
    pub fn is_swapping(&self) -> bool {
        matches!(self.phase, Phase::Swapping { .. })
    }

    /// Advances one sub-phase. `chaos_mid_swap_panics` is a budget of
    /// worker panics to arm right before a swap attempt (deterministic
    /// chaos: the panic lands exactly on the canary batch, because the
    /// loop quiesces window traffic before stepping).
    ///
    /// # Errors
    ///
    /// Only unrecoverable faults (unknown gas, invariant breaches)
    /// surface as errors; tool failures with retries left, gate
    /// rejections and canary failures are handled internally and
    /// reported through [`StepOutcome`].
    pub fn step(
        &mut self,
        stream: &mut MsStream,
        router: &Router,
        store: &Store,
        faults: &FaultPlan,
        chaos_mid_swap_panics: &mut u32,
    ) -> Result<StepOutcome, MonitorError> {
        let _span = obs::span!("monitor.recharacterize_step");
        match std::mem::replace(&mut self.phase, Phase::Characterizing) {
            Phase::Collecting { next_mixture } => {
                let end = (next_mixture + self.config.mixtures_per_tick).min(self.mixtures.len());
                let batch: Vec<Mixture> = self.mixtures[next_mixture..end].to_vec();
                let (mut samples, dropouts) = stream.calibration_series(
                    &batch,
                    self.config.samples_per_mixture,
                    faults,
                )?;
                self.samples.append(&mut samples);
                self.calibration_dropouts += dropouts;
                if end < self.mixtures.len() {
                    self.phase = Phase::Collecting { next_mixture: end };
                } else {
                    self.phase = Phase::Characterizing;
                }
                Ok(StepOutcome::InProgress {
                    phase: self.phase_name(),
                })
            }
            Phase::Characterizing => {
                self.characterize_attempts += 1;
                let injected = faults.fail_characterize();
                let estimated = if injected {
                    Err(MonitorError::Invariant(
                        "injected characterization failure".into(),
                    ))
                } else {
                    Characterizer::new(GasLibrary::standard(), Some(IGNITION_GAS.into()))
                        .characterize(&self.samples)
                        .map_err(MonitorError::from)
                };
                match estimated {
                    Ok(report) => {
                        self.phase = Phase::Training {
                            model: report.model,
                        };
                        Ok(StepOutcome::InProgress {
                            phase: self.phase_name(),
                        })
                    }
                    Err(err) => {
                        if self.characterize_attempts > self.config.characterize_retries {
                            Ok(StepOutcome::Failed {
                                reason: format!(
                                    "characterization failed after {} attempts: {err}",
                                    self.characterize_attempts
                                ),
                            })
                        } else {
                            // Retry with fresh calibration windows.
                            self.samples.clear();
                            self.phase = Phase::Collecting { next_mixture: 0 };
                            Ok(StepOutcome::InProgress {
                                phase: self.phase_name(),
                            })
                        }
                    }
                }
            }
            Phase::Training { model } => {
                let seed = self.config.seed ^ self.episode_seed.rotate_left(17);
                match train_candidate(model, &self.config, seed) {
                    Ok(candidate) => {
                        self.phase = Phase::Publishing { candidate };
                        Ok(StepOutcome::InProgress {
                            phase: self.phase_name(),
                        })
                    }
                    Err(err) => Ok(StepOutcome::Failed {
                        reason: format!("guarded training failed: {err}"),
                    }),
                }
            }
            Phase::Publishing { candidate } => {
                match publish_candidate(&candidate, store, router.registry(), &self.config) {
                    Ok(version) => {
                        self.phase = Phase::Swapping {
                            version,
                            model: candidate.model,
                        };
                        Ok(StepOutcome::InProgress {
                            phase: self.phase_name(),
                        })
                    }
                    Err(MonitorError::Serve(ServeError::GateRejected {
                        model,
                        version,
                        reason,
                    })) => Ok(StepOutcome::Failed {
                        reason: format!("gate rejected {model} v{version}: {reason}"),
                    }),
                    Err(err) => Err(err),
                }
            }
            Phase::Swapping { version, model } => {
                // Wait out supervisor restarts: retry only against a
                // fully healthy fleet, otherwise the canary is doomed.
                let all_healthy = (0..router.shard_count())
                    .all(|s| router.shard_health(s) == Some(HealthState::Healthy));
                if !all_healthy {
                    self.phase = Phase::Swapping { version, model };
                    return Ok(StepOutcome::InProgress {
                        phase: self.phase_name(),
                    });
                }
                self.swap_attempts += 1;
                if *chaos_mid_swap_panics > 0 {
                    *chaos_mid_swap_panics -= 1;
                    faults.arm_worker_panic(0, 0);
                }
                match router.rolling_swap(&self.config.model_name, version) {
                    Ok(report) => Ok(StepOutcome::Swapped {
                        version,
                        model,
                        report,
                    }),
                    Err(err @ (ServeError::CanaryFailed { .. } | ServeError::Store(_))) => {
                        if self.swap_attempts > self.config.swap_retries {
                            Ok(StepOutcome::Failed {
                                reason: format!(
                                    "rolling swap failed after {} attempts: {err}",
                                    self.swap_attempts
                                ),
                            })
                        } else {
                            obs::counter_add("monitor.swap_retries", 1);
                            self.phase = Phase::Swapping { version, model };
                            Ok(StepOutcome::InProgress {
                                phase: self.phase_name(),
                            })
                        }
                    }
                    Err(err) => Err(err.into()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{DriftSchedule, MsStream};
    use ms_sim::prototype::ideal_config;

    fn process_mixture() -> Mixture {
        Mixture::from_fractions(vec![
            ("N2".into(), 0.55),
            ("O2".into(), 0.18),
            ("Ar".into(), 0.02),
            ("CO2".into(), 0.25),
        ])
        .unwrap()
    }

    #[test]
    fn bootstrap_publishes_a_gated_v1() {
        let mut stream = MsStream::with_config(
            42,
            ideal_config(),
            process_mixture(),
            4,
            DriftSchedule::new(),
        );
        let store = Store::in_memory();
        let registry = serve::ModelRegistry::new();
        let config = RecharacterizeConfig::quick("mms").unwrap();
        let plan = FaultPlan::new();
        let boot = bootstrap(&mut stream, &store, &registry, &config, &plan).unwrap();
        assert_eq!(boot.version, 1);
        assert_eq!(registry.latest("mms"), Some(1));
        // The estimate recovered the true attenuation direction.
        assert!(boot.believed.attenuation.rate < 0.0);
        // The deployed artifact is in the store.
        assert_eq!(store.collection(&config.collection).len(), 1);
    }

    #[test]
    fn gate_rejects_when_mae_bar_is_impossible() {
        let mut stream = MsStream::with_config(
            42,
            ideal_config(),
            process_mixture(),
            4,
            DriftSchedule::new(),
        );
        let store = Store::in_memory();
        let registry = serve::ModelRegistry::new();
        let mut config = RecharacterizeConfig::quick("mms").unwrap();
        config.gate_max_mae = 0.0; // no candidate can pass
        let plan = FaultPlan::new();
        let err = bootstrap(&mut stream, &store, &registry, &config, &plan).unwrap_err();
        assert!(matches!(
            err,
            MonitorError::Serve(ServeError::GateRejected { .. })
        ));
        // The rejected version is unobservable; the artifact stays in
        // the store (it is versioned, not served).
        assert_eq!(registry.latest("mms"), None);
    }
}

//! Fault-tolerant training: divergence guards, checkpoint/rollback with
//! learning-rate backoff, and deterministic save/resume.
//!
//! [`GuardedTrainer`] runs the same epoch loop and epoch driver as
//! [`crate::train::Trainer::fit`] (so a clean run is bit-identical to it
//! and records the same `train.*` spans and gauges) and adds a recovery
//! layer around them:
//!
//! * **Divergence detection** — besides the non-finite check every run
//!   makes, batch losses can be bounded by an explosion threshold, and
//!   the accumulated gradient norm before each optimizer step.
//! * **Checkpoint / rollback** — weights, optimizer state and history are
//!   snapshotted on a configurable epoch cadence; on divergence the run
//!   rolls back to the last good checkpoint and retries with the learning
//!   rate scaled down by [`GuardConfig::lr_backoff`]. Retries are bounded;
//!   exhausting them yields [`NeuralError::TrainingDiverged`] carrying the
//!   full [`RecoveryEvent`] history.
//! * **Deterministic resume** — [`Checkpoint`]s serialize to JSON with
//!   exact float round-tripping, so a run interrupted at an epoch boundary
//!   and resumed from disk produces bit-identical weights to an
//!   uninterrupted run of the same seed (for dropout-free networks; see
//!   *Determinism* below).
//! * **Fault injection** — a [`faultsim::FaultPlan`] can poison chosen
//!   batches with NaN inputs to exercise the recovery path end to end.
//!
//! # Determinism
//!
//! Epoch shuffles are derived statelessly from `seed + epoch`, weights
//! and optimizer moments are captured exactly, so resume is bit-exact —
//! except for [`crate::layers::Dropout`], whose internal RNG stream is
//! not part of the checkpoint. The paper's Table 1 MS network contains no
//! dropout and resumes exactly.

use std::path::Path;
use std::sync::Arc;

use faultsim::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::optim::OptimizerState;
use crate::train::{Checks, Dataset, Divergence, History, Progress, TrainConfig, Trainer};
use crate::{Network, NeuralError};

/// Divergence-guard and checkpoint policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Epochs between weight/optimizer snapshots (≥ 1).
    pub checkpoint_every: usize,
    /// Rollback attempts before giving up with
    /// [`NeuralError::TrainingDiverged`].
    pub max_retries: usize,
    /// Learning-rate multiplier applied on every rollback, in `(0, 1]`.
    pub lr_backoff: f32,
    /// Treat any batch loss above this value as divergence.
    pub max_loss: Option<f32>,
    /// Treat any accumulated gradient norm above this value as divergence
    /// (checked per batch, before the optimizer step).
    pub max_grad_norm: Option<f32>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 5,
            max_retries: 3,
            lr_backoff: 0.5,
            max_loss: None,
            max_grad_norm: None,
        }
    }
}

/// What triggered a divergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceCause {
    /// A batch produced a NaN/infinite loss.
    NonFiniteLoss,
    /// A batch loss exceeded [`GuardConfig::max_loss`].
    LossExplosion {
        /// The configured threshold that was exceeded.
        limit: f32,
    },
    /// The accumulated gradient norm exceeded
    /// [`GuardConfig::max_grad_norm`] (or was non-finite).
    GradientExplosion {
        /// The configured threshold that was exceeded.
        limit: f32,
    },
    /// The validation loss came back non-finite.
    NonFiniteValidation,
}

/// One recovery action taken by the guard.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch in which the divergence was detected.
    pub epoch: usize,
    /// Batch index within the epoch (`None` for validation-time
    /// divergence).
    pub batch: Option<usize>,
    /// What triggered the divergence.
    pub cause: DivergenceCause,
    /// Epoch of the checkpoint the run rolled back to.
    pub rolled_back_to: usize,
    /// Learning rate in effect after the backoff.
    pub learning_rate: f32,
}

/// A serializable training snapshot: everything needed to continue a run
/// exactly where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Number of completed epochs.
    pub epochs_done: usize,
    /// Network weights at the snapshot.
    pub weights: Vec<Vec<Vec<f32>>>,
    /// Optimizer state at the snapshot.
    pub optimizer: OptimizerState,
    /// Learning rate in effect (reflects any backoff so far).
    pub learning_rate: f32,
    /// Training-loss history up to the snapshot.
    pub train_loss: Vec<f32>,
    /// Validation-loss history up to the snapshot.
    pub val_loss: Vec<f32>,
    /// Best validation epoch so far, if tracked.
    pub best_epoch: Option<usize>,
    /// Best validation loss so far, if tracked.
    pub best_val: Option<f32>,
    /// Weights of the best validation epoch, if tracked.
    pub best_weights: Option<Vec<Vec<Vec<f32>>>>,
}

impl Checkpoint {
    /// Snapshots `network` and the run's `progress`.
    fn of(network: &Network, progress: &Progress) -> Self {
        Self {
            epochs_done: progress.epochs_done,
            weights: network.export_weights(),
            optimizer: progress.optimizer.export_state(),
            learning_rate: progress.optimizer.learning_rate(),
            train_loss: progress.history.train_loss.clone(),
            val_loss: progress.history.val_loss.clone(),
            best_epoch: progress.history.best_epoch,
            best_val: progress.best_val,
            best_weights: progress.best_weights.clone(),
        }
    }

    /// Atomically writes the checkpoint as JSON (`path.tmp` + rename), so
    /// an interrupted save never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NeuralError> {
        let path = path.as_ref();
        let text =
            serde_json::to_string(self).map_err(|e| NeuralError::Serde(e.to_string()))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, text).map_err(|e| NeuralError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| NeuralError::Io(e.to_string()))
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::Io`] if the file cannot be read, or
    /// [`NeuralError::Serde`] if it does not parse as a checkpoint.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, NeuralError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| NeuralError::Io(e.to_string()))?;
        serde_json::from_str(&text).map_err(|e| NeuralError::Serde(e.to_string()))
    }
}

/// Result of a guarded training run.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedOutcome {
    /// Per-epoch loss history (post-rollback epochs overwrite the rolled
    /// back ones, like the uninterrupted history they replay).
    pub history: History,
    /// Every rollback the guard performed, in order.
    pub recovery: Vec<RecoveryEvent>,
    /// Snapshot of the finished run — resume from here to train further,
    /// or persist it with [`Checkpoint::save`].
    pub checkpoint: Checkpoint,
}

/// A [`crate::train::Trainer`] with divergence guards and
/// checkpoint/rollback recovery.
#[derive(Debug, Clone)]
pub struct GuardedTrainer {
    trainer: Trainer,
    guard: GuardConfig,
    plan: Option<Arc<FaultPlan>>,
}

impl GuardedTrainer {
    /// Creates a guarded trainer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `guard.checkpoint_every`
    /// is zero or `guard.lr_backoff` is outside `(0, 1]`.
    pub fn new(config: TrainConfig, guard: GuardConfig) -> Result<Self, NeuralError> {
        if guard.checkpoint_every == 0 {
            return Err(NeuralError::InvalidSpec(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if !(guard.lr_backoff > 0.0 && guard.lr_backoff <= 1.0) {
            return Err(NeuralError::InvalidSpec(format!(
                "lr_backoff must be in (0, 1], got {}",
                guard.lr_backoff
            )));
        }
        Ok(Self {
            trainer: Trainer::new(config),
            guard,
            plan: None,
        })
    }

    /// Attaches a fault-injection plan (testing aid: poisons scheduled
    /// batches with NaN inputs).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Trains `network` for the configured number of epochs, recovering
    /// from divergence by checkpoint rollback + learning-rate backoff.
    ///
    /// # Errors
    ///
    /// [`NeuralError::InvalidSpec`] if `batch_size` is zero;
    /// [`NeuralError::ShapeMismatch`] on dataset/network mismatch;
    /// [`NeuralError::TrainingDiverged`] once
    /// [`GuardConfig::max_retries`] rollbacks have been exhausted.
    pub fn fit(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
    ) -> Result<GuardedOutcome, NeuralError> {
        let until = self.trainer.config.epochs;
        self.run(network, train, validation, None, until, true)
    }

    /// Trains for `stop_after` epochs only, simulating an interrupted
    /// run: best-epoch weight restoration is skipped so the returned
    /// [`GuardedOutcome::checkpoint`] continues the run exactly.
    ///
    /// # Errors
    ///
    /// As for [`GuardedTrainer::fit`].
    pub fn fit_interrupted(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        stop_after: usize,
    ) -> Result<GuardedOutcome, NeuralError> {
        let until = stop_after.min(self.trainer.config.epochs);
        self.run(network, train, validation, None, until, false)
    }

    /// Continues a run from `checkpoint` to the configured epoch count,
    /// restoring weights, optimizer state, learning rate and history.
    ///
    /// # Errors
    ///
    /// As for [`GuardedTrainer::fit`], plus
    /// [`NeuralError::InvalidWeights`] if the checkpoint does not match
    /// the network or optimizer kind.
    pub fn resume(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        checkpoint: &Checkpoint,
    ) -> Result<GuardedOutcome, NeuralError> {
        let until = self.trainer.config.epochs;
        self.run(network, train, validation, Some(checkpoint), until, true)
    }

    /// Runs the shared epoch driver from a fresh start or from `resumed`,
    /// one checkpoint interval at a time: snapshots at each interval
    /// start and rolls back on divergence.
    fn run(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        resumed: Option<&Checkpoint>,
        until: usize,
        restore_best: bool,
    ) -> Result<GuardedOutcome, NeuralError> {
        let mut progress = self.trainer.start(network, train, validation)?;
        let mut checkpoint = match resumed {
            Some(checkpoint) => {
                progress = self.restore(network, checkpoint)?;
                checkpoint.clone()
            }
            None => Checkpoint::of(network, &progress),
        };
        let checks = Checks {
            max_loss: self.guard.max_loss,
            max_grad_norm: self.guard.max_grad_norm,
            plan: self.plan.as_deref(),
        };
        let every = self.guard.checkpoint_every;
        let mut recovery = Vec::new();
        while progress.epochs_done < until {
            let done = progress.epochs_done;
            if done.is_multiple_of(every) {
                checkpoint = Checkpoint::of(network, &progress);
            }
            let end = until.min((done / every + 1) * every);
            match self
                .trainer
                .drive(network, train, validation, &mut progress, end, checks)
            {
                Ok(true) => break,
                Ok(false) => {}
                Err(divergence) => {
                    progress = self.rollback(network, &checkpoint, &mut recovery, divergence)?;
                }
            }
        }

        // Final snapshot of the running state (pre best-restore), so the
        // outcome's checkpoint resumes exactly where this run stopped.
        let checkpoint = Checkpoint::of(network, &progress);
        if restore_best {
            self.trainer.restore_best(network, &progress)?;
        }
        Ok(GuardedOutcome {
            history: progress.history,
            recovery,
            checkpoint,
        })
    }

    /// Restores `network` and the run's progress from `checkpoint`.
    fn restore(
        &self,
        network: &mut Network,
        checkpoint: &Checkpoint,
    ) -> Result<Progress, NeuralError> {
        network.import_weights(&checkpoint.weights)?;
        let mut optimizer = self.trainer.config.optimizer.build();
        optimizer.import_state(&checkpoint.optimizer)?;
        optimizer.set_learning_rate(checkpoint.learning_rate);
        Ok(Progress {
            epochs_done: checkpoint.epochs_done,
            optimizer,
            history: History {
                train_loss: checkpoint.train_loss.clone(),
                val_loss: checkpoint.val_loss.clone(),
                best_epoch: checkpoint.best_epoch,
            },
            best_val: checkpoint.best_val,
            best_weights: checkpoint.best_weights.clone(),
        })
    }

    /// Rolls back to `checkpoint` with the learning rate backed off, or
    /// fails once the retry budget is spent.
    fn rollback(
        &self,
        network: &mut Network,
        checkpoint: &Checkpoint,
        recovery: &mut Vec<RecoveryEvent>,
        divergence: Divergence,
    ) -> Result<Progress, NeuralError> {
        if recovery.len() >= self.guard.max_retries {
            return Err(NeuralError::TrainingDiverged {
                epoch: divergence.epoch,
                retries: recovery.len(),
                recovery: std::mem::take(recovery),
            });
        }
        let mut progress = self.restore(network, checkpoint)?;
        let lr = checkpoint.learning_rate * self.guard.lr_backoff;
        progress.optimizer.set_learning_rate(lr);
        recovery.push(RecoveryEvent {
            epoch: divergence.epoch,
            batch: divergence.batch,
            cause: divergence.cause,
            rolled_back_to: checkpoint.epochs_done,
            learning_rate: lr,
        });
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::tests::{linear_dataset, small_net};
    use crate::Loss;

    fn config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 16,
            loss: Loss::Mse,
            optimizer: crate::optim::OptimizerSpec::Adam { lr: 0.01 },
            ..TrainConfig::default()
        }
    }

    fn guard() -> GuardConfig {
        GuardConfig {
            checkpoint_every: 1,
            max_retries: 3,
            lr_backoff: 0.5,
            ..GuardConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let bad = GuardConfig {
            checkpoint_every: 0,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
        let bad = GuardConfig {
            lr_backoff: 0.0,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
        let bad = GuardConfig {
            lr_backoff: 1.5,
            ..GuardConfig::default()
        };
        assert!(GuardedTrainer::new(config(1), bad).is_err());
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let data = linear_dataset(10);
        let mut net = small_net();
        let config = TrainConfig {
            batch_size: 0,
            ..config(3)
        };
        let result = GuardedTrainer::new(config, guard())
            .unwrap()
            .fit(&mut net, &data, None);
        assert!(
            matches!(result, Err(NeuralError::InvalidSpec(_))),
            "{result:?}"
        );
    }

    #[test]
    fn clean_run_matches_plain_trainer() {
        let data = linear_dataset(100);
        let mut guarded_net = small_net();
        let outcome = GuardedTrainer::new(config(30), guard())
            .unwrap()
            .fit(&mut guarded_net, &data, None)
            .unwrap();
        let mut plain_net = small_net();
        let history = crate::train::Trainer::new(config(30))
            .fit(&mut plain_net, &data, None)
            .unwrap();
        assert!(outcome.recovery.is_empty());
        assert_eq!(outcome.history.train_loss, history.train_loss);
        assert_eq!(guarded_net.export_weights(), plain_net.export_weights());
    }

    #[test]
    fn injected_nan_batch_triggers_rollback_and_backoff() {
        let data = linear_dataset(100);
        let mut net = small_net();
        let plan = Arc::new(FaultPlan::new().with_nan_batch(3, 1));
        let trainer = GuardedTrainer::new(config(60), guard())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let outcome = trainer.fit(&mut net, &data, None).unwrap();
        assert_eq!(outcome.recovery.len(), 1);
        let event = &outcome.recovery[0];
        assert_eq!(event.epoch, 3);
        assert_eq!(event.batch, Some(1));
        assert_eq!(event.cause, DivergenceCause::NonFiniteLoss);
        assert_eq!(event.rolled_back_to, 3);
        assert_eq!(plan.events().len(), 1);
        // Training still converges after recovery.
        assert!(outcome.history.final_train_loss() < 1e-2);
    }

    #[test]
    fn exhausted_retries_yield_structured_error() {
        let data = linear_dataset(50);
        let mut net = small_net();
        // A max_loss of zero makes every epoch "diverge" immediately.
        let hopeless = GuardConfig {
            max_loss: Some(0.0),
            max_retries: 2,
            ..guard()
        };
        let err = GuardedTrainer::new(config(10), hopeless)
            .unwrap()
            .fit(&mut net, &data, None)
            .unwrap_err();
        match err {
            NeuralError::TrainingDiverged {
                epoch,
                retries,
                recovery,
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(retries, 2);
                assert_eq!(recovery.len(), 2);
                // Backoff compounds across retries.
                assert!(recovery[1].learning_rate < recovery[0].learning_rate);
            }
            other => panic!("expected TrainingDiverged, got {other:?}"),
        }
    }

    #[test]
    fn gradient_norm_guard_fires() {
        let data = linear_dataset(50);
        let mut net = small_net();
        let strict = GuardConfig {
            max_grad_norm: Some(1e-12),
            max_retries: 1,
            ..guard()
        };
        let err = GuardedTrainer::new(config(5), strict)
            .unwrap()
            .fit(&mut net, &data, None)
            .unwrap_err();
        match err {
            NeuralError::TrainingDiverged { recovery, .. } => {
                assert!(matches!(
                    recovery[0].cause,
                    DivergenceCause::GradientExplosion { .. }
                ));
            }
            other => panic!("expected TrainingDiverged, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let data = linear_dataset(60);
        let mut net = small_net();
        let outcome = GuardedTrainer::new(config(4), guard())
            .unwrap()
            .fit_interrupted(&mut net, &data, None, 4)
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "neural-guard-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        outcome.checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, outcome.checkpoint);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_best_restore_matches_plain_trainer() {
        let all = linear_dataset(100);
        let (train, val) = all.split(0.8).unwrap();
        let mut guarded_net = small_net();
        let outcome = GuardedTrainer::new(config(20), guard())
            .unwrap()
            .fit(&mut guarded_net, &train, Some(&val))
            .unwrap();
        let mut plain_net = small_net();
        let history = crate::train::Trainer::new(config(20))
            .fit(&mut plain_net, &train, Some(&val))
            .unwrap();
        assert_eq!(outcome.history.best_epoch, history.best_epoch);
        assert_eq!(outcome.history.val_loss, history.val_loss);
        assert_eq!(guarded_net.export_weights(), plain_net.export_weights());
    }
}

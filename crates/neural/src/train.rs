//! Datasets and the training loop.
//!
//! Mirrors the paper's Tool 4 workflow: datasets split 80/20 into training
//! and test portions (§III.A.2), whole-run training "without user
//! interaction", validation tracking, and best-network selection by a
//! quality criterion.
//!
//! There is one epoch loop (shuffle → batches → `train_step` → divergence
//! checks → optimizer step) and one epoch driver around it (validation,
//! best-epoch tracking, early stop, best-weight restore). [`Trainer::fit`]
//! runs them with no guards; [`crate::guard::GuardedTrainer`] runs them
//! between checkpoints and rolls back on divergence.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use faultsim::FaultPlan;

use crate::guard::DivergenceCause;
use crate::optim::{Optimizer, OptimizerSpec};
use crate::{Loss, Network, NeuralError};

/// A supervised dataset of flat `f32` samples.
///
/// The inputs live in one buffer of rows laid end to end. Sample `i` is
/// the `window` consecutive rows that start at row `i`, so consecutive
/// samples overlap by `window - 1` rows and a sliding window over a time
/// series holds each spectrum once. A plain dataset is the `window = 1`
/// case: each row is one sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The rows, laid end to end.
    rows: Vec<f32>,
    /// Values per row; sample `i` starts at `i * row_len`.
    row_len: usize,
    /// Values per sample, `window * row_len`.
    width: usize,
    targets: Vec<Vec<f32>>,
}

impl Dataset {
    /// Creates a dataset with one sample per input.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidDataset`] if the collections are
    /// empty, differ in length, or samples have inconsistent widths.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Result<Self, NeuralError> {
        let Some(width) = inputs.first().map(Vec::len) else {
            return Err(NeuralError::InvalidDataset("no samples".into()));
        };
        if inputs.len() != targets.len() {
            return Err(NeuralError::InvalidDataset(format!(
                "{} inputs vs {} targets",
                inputs.len(),
                targets.len()
            )));
        }
        if let Some(i) = inputs.iter().position(|x| x.len() != width) {
            return Err(NeuralError::InvalidDataset(format!(
                "sample {i} has inconsistent width"
            )));
        }
        let mut rows = Vec::with_capacity(inputs.len() * width);
        for x in inputs {
            rows.extend(x);
        }
        Self::windows(rows, width, 1, targets)
    }

    /// Creates a dataset of sliding windows over a time series: `rows`
    /// holds `rows.len() / row_len` time-ordered rows end to end, sample
    /// `i` is rows `i .. i + window` and `targets[i]` is its target. No
    /// row is copied into a window.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidDataset`] if `row_len` or `window` is
    /// zero, `rows` is not a whole number of rows or holds fewer than
    /// `window` of them, the target count is not the window count, the
    /// targets are empty or ragged, or any value is non-finite.
    pub fn windows(
        rows: Vec<f32>,
        row_len: usize,
        window: usize,
        targets: Vec<Vec<f32>>,
    ) -> Result<Self, NeuralError> {
        let invalid = |message: String| Err(NeuralError::InvalidDataset(message));
        if row_len == 0 || window == 0 {
            return invalid("zero-width samples".into());
        }
        if !rows.len().is_multiple_of(row_len) {
            return invalid(format!(
                "{} values are not a whole number of {row_len}-value rows",
                rows.len()
            ));
        }
        let n_rows = rows.len() / row_len;
        if n_rows < window {
            return invalid(format!("{n_rows} rows cannot form a window of {window}"));
        }
        let windows = n_rows - window + 1;
        if targets.len() != windows {
            return invalid(format!("{windows} windows vs {} targets", targets.len()));
        }
        let out_width = targets.first().map_or(0, Vec::len);
        if out_width == 0 {
            return invalid("zero-width targets".into());
        }
        for (i, t) in targets.iter().enumerate() {
            if t.len() != out_width {
                return invalid(format!("target {i} has inconsistent width"));
            }
            if t.iter().any(|v| !v.is_finite()) {
                return invalid(format!("target {i} contains non-finite values"));
            }
        }
        // Each row once, however many windows share it.
        if let Some(r) = rows
            .chunks_exact(row_len)
            .position(|row| row.iter().any(|v| !v.is_finite()))
        {
            return invalid(format!("row {r} contains non-finite values"));
        }
        Ok(Self {
            rows,
            row_len,
            width: window * row_len,
            targets,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the dataset has no samples (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Input width.
    pub fn input_width(&self) -> usize {
        self.width
    }

    /// Target width.
    pub fn target_width(&self) -> usize {
        self.targets.first().map_or(0, Vec::len)
    }

    /// The input samples, in order; windows are views of the row buffer.
    pub fn inputs(&self) -> impl ExactSizeIterator<Item = &[f32]> + Clone {
        self.rows.windows(self.width).step_by(self.row_len)
    }

    /// Input sample `i`, or `None` past the end.
    pub fn input(&self, i: usize) -> Option<&[f32]> {
        let start = i.checked_mul(self.row_len)?;
        self.rows.get(start..start.checked_add(self.width)?)
    }

    /// The target samples.
    pub fn targets(&self) -> &[Vec<f32>] {
        &self.targets
    }

    /// Splits into `(front, back)` with `front` holding `fraction` of the
    /// samples (the paper's 80/20 train/test split uses `0.8`). Both sides
    /// are plain datasets holding copies of their samples.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidDataset`] if either side would be
    /// empty.
    pub fn split(&self, fraction: f64) -> Result<(Dataset, Dataset), NeuralError> {
        let cut = (self.len() as f64 * fraction).round() as usize;
        if cut == 0 || cut >= self.len() {
            return Err(NeuralError::InvalidDataset(format!(
                "split fraction {fraction} leaves an empty side"
            )));
        }
        Ok((self.gather(0..cut), self.gather(cut..self.len())))
    }

    /// A plain copy with samples shuffled by `seed`.
    pub fn shuffled(&self, seed: u64) -> Dataset {
        self.gather(self.order(Some(seed)))
    }

    /// The samples at `indices`, copied out into a plain dataset.
    fn gather(&self, indices: impl IntoIterator<Item = usize>) -> Dataset {
        let indices = indices.into_iter();
        let mut rows = Vec::with_capacity(indices.size_hint().0 * self.width);
        let mut targets = Vec::with_capacity(indices.size_hint().0);
        for i in indices {
            if let (Some(x), Some(t)) = (self.input(i), self.targets.get(i)) {
                rows.extend_from_slice(x);
                targets.push(t.clone());
            }
        }
        Dataset {
            rows,
            row_len: self.width,
            width: self.width,
            targets,
        }
    }

    /// Sample indices, permuted by `seed` if one is given.
    fn order(&self, seed: Option<u64>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        if let Some(seed) = seed {
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        }
        order
    }

    /// Mean loss of `network` over the dataset (evaluation mode), from one
    /// [`Network::predict_batch`] and summed sample by sample in dataset
    /// order. A network whose input width differs from the dataset's
    /// scores NaN.
    pub fn evaluate(&self, network: &mut Network, loss: Loss) -> f32 {
        let inputs: Vec<&[f32]> = self.inputs().collect();
        let Ok(predictions) = network.predict_batch(&inputs) else {
            return f32::NAN;
        };
        let total: f32 = predictions
            .iter()
            .zip(&self.targets)
            .map(|(y, t)| loss.value(y, t))
            .sum();
        total / self.len() as f32
    }

    /// Per-output-column mean absolute error over the dataset — the
    /// per-substance error bars of the paper's Figures 5–7. A network
    /// whose input width differs from the dataset's scores NaN.
    pub fn per_output_mae(&self, network: &mut Network) -> Vec<f64> {
        let width = self.target_width();
        let inputs: Vec<&[f32]> = self.inputs().collect();
        let Ok(predictions) = network.predict_batch(&inputs) else {
            return vec![f64::NAN; width];
        };
        let mut acc = vec![0.0f64; width];
        for (y, t) in predictions.iter().zip(&self.targets) {
            for c in 0..width {
                acc[c] += (y[c] - t[c]).abs() as f64;
            }
        }
        for v in &mut acc {
            *v /= self.len() as f64;
        }
        acc
    }
}

impl PartialEq for Dataset {
    /// Datasets are equal if they hold the same samples, whether or not
    /// their windows share rows.
    fn eq(&self, other: &Self) -> bool {
        self.targets == other.targets && self.inputs().eq(other.inputs())
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Gradient-accumulation batch size.
    pub batch_size: usize,
    /// Optimizer choice.
    pub optimizer: OptimizerSpec,
    /// Loss function.
    pub loss: Loss,
    /// Shuffle the training data each epoch.
    pub shuffle: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Restore the best-validation weights after training (needs a
    /// validation set).
    pub restore_best: bool,
    /// Stop as soon as the validation loss reaches this target (needs a
    /// validation set) — the paper's "mean error of no more than 0.005 on
    /// the validation data ... as target for the network" workflow.
    pub stop_at_val_loss: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            optimizer: OptimizerSpec::default(),
            loss: Loss::Mae,
            shuffle: true,
            seed: 0,
            restore_best: true,
            stop_at_val_loss: None,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Mean validation loss per epoch (empty without a validation set).
    pub val_loss: Vec<f32>,
    /// Epoch index of the best validation loss, if tracked.
    pub best_epoch: Option<usize>,
}

impl History {
    /// Training loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were run.
    pub fn final_train_loss(&self) -> f32 {
        *self.train_loss.last().expect("at least one epoch")
    }

    /// Best validation loss, if a validation set was provided.
    pub fn best_val_loss(&self) -> Option<f32> {
        self.best_epoch.map(|e| self.val_loss[e])
    }
}

/// Runs the training loop.
#[derive(Debug, Clone)]
pub struct Trainer {
    pub(crate) config: TrainConfig,
}

/// Where a run stands between epochs: what the epoch driver reads and
/// writes, and what a [`crate::guard::Checkpoint`] captures.
pub(crate) struct Progress {
    pub(crate) epochs_done: usize,
    pub(crate) optimizer: Box<dyn Optimizer>,
    pub(crate) history: History,
    pub(crate) best_val: Option<f32>,
    pub(crate) best_weights: Option<Vec<Vec<Vec<f32>>>>,
}

/// Divergence checks beyond the always-on non-finite loss check, plus
/// the fault-injection hook. The plain trainer leaves them all unset.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Checks<'a> {
    pub(crate) max_loss: Option<f32>,
    pub(crate) max_grad_norm: Option<f32>,
    pub(crate) plan: Option<&'a FaultPlan>,
}

/// A divergence the epoch driver stopped at. The network and the
/// [`Progress`] are left mid-epoch: the caller fails or rolls back.
pub(crate) struct Divergence {
    pub(crate) epoch: usize,
    /// Batch index within the epoch (`None` for validation).
    pub(crate) batch: Option<usize>,
    pub(crate) cause: DivergenceCause,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Trains `network` on `train`, optionally tracking `validation`.
    ///
    /// With `restore_best` set and a validation set given, the network is
    /// left with the weights of its best validation epoch (the paper:
    /// "the network with the best performance on the experimental
    /// validation dataset was selected").
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `batch_size` is zero,
    /// [`NeuralError::ShapeMismatch`] if the training or validation widths
    /// do not match the network, or [`NeuralError::Diverged`] if a non-finite loss
    /// appears.
    pub fn fit(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
    ) -> Result<History, NeuralError> {
        let mut progress = self.start(network, train, validation)?;
        self.drive(
            network,
            train,
            validation,
            &mut progress,
            self.config.epochs,
            Checks::default(),
        )
        .map_err(|d| NeuralError::Diverged { epoch: d.epoch })?;
        self.restore_best(network, &progress)?;
        Ok(progress.history)
    }

    /// Validates a run of `network` on `train` (and `validation`) and
    /// returns the progress of a fresh one: the entry of every training
    /// run, plain or guarded.
    pub(crate) fn start(
        &self,
        network: &Network,
        train: &Dataset,
        validation: Option<&Dataset>,
    ) -> Result<Progress, NeuralError> {
        if self.config.batch_size == 0 {
            return Err(NeuralError::InvalidSpec(
                "batch_size must be at least 1".into(),
            ));
        }
        for data in std::iter::once(train).chain(validation) {
            if data.input_width() != network.input_len() {
                return Err(NeuralError::ShapeMismatch {
                    expected: network.input_len(),
                    actual: data.input_width(),
                });
            }
            if data.target_width() != network.output_len() {
                return Err(NeuralError::ShapeMismatch {
                    expected: network.output_len(),
                    actual: data.target_width(),
                });
            }
        }
        Ok(Progress {
            epochs_done: 0,
            optimizer: self.config.optimizer.build(),
            history: History {
                train_loss: Vec::with_capacity(self.config.epochs),
                val_loss: Vec::new(),
                best_epoch: None,
            },
            best_val: None,
            best_weights: None,
        })
    }

    /// The epoch driver: trains until `progress.epochs_done` reaches
    /// `until`, validating, tracking the best epoch and keeping its
    /// weights after each one. Returns `Ok(true)` if the validation
    /// target stopped the run early.
    pub(crate) fn drive(
        &self,
        network: &mut Network,
        train: &Dataset,
        validation: Option<&Dataset>,
        progress: &mut Progress,
        until: usize,
        checks: Checks<'_>,
    ) -> Result<bool, Divergence> {
        obs::gauge_set("train.lr", f64::from(progress.optimizer.learning_rate()));
        while progress.epochs_done < until {
            let epoch = progress.epochs_done;
            let _epoch_span = obs::span!("train.epoch");
            let mean_loss =
                self.epoch(network, progress.optimizer.as_mut(), train, epoch, checks)?;
            progress.history.train_loss.push(mean_loss);
            progress.epochs_done += 1;
            obs::gauge_set("train.loss", f64::from(mean_loss));

            if let Some(val) = validation {
                let v = val.evaluate(network, self.config.loss);
                if !v.is_finite() {
                    return Err(Divergence {
                        epoch,
                        batch: None,
                        cause: DivergenceCause::NonFiniteValidation,
                    });
                }
                progress.history.val_loss.push(v);
                obs::gauge_set("train.val_loss", f64::from(v));
                if progress.best_val.is_none_or(|b| v < b) {
                    progress.best_val = Some(v);
                    progress.best_weights = Some(network.export_weights());
                    progress.history.best_epoch = Some(epoch);
                }
                if self.config.stop_at_val_loss.is_some_and(|t| v <= t) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// The epoch loop: one shuffled pass in mini-batches, checking every
    /// sample loss (and, if set, the gradient norm) before each optimizer
    /// step. Returns the mean training loss.
    fn epoch(
        &self,
        network: &mut Network,
        optimizer: &mut dyn Optimizer,
        train: &Dataset,
        epoch: usize,
        checks: Checks<'_>,
    ) -> Result<f32, Divergence> {
        let seed = self.config.seed.wrapping_add(epoch as u64);
        let order = train.order(self.config.shuffle.then_some(seed));
        let mut epoch_loss = 0.0f64;
        for (batch, indices) in order.chunks(self.config.batch_size).enumerate() {
            let _batch_span = obs::span!("train.batch");
            let diverged = |cause| Divergence {
                epoch,
                batch: Some(batch),
                cause,
            };
            // A poisoned batch feeds NaN inputs in place of its first sample.
            let poison = checks
                .plan
                .is_some_and(|p| p.poison_batch(epoch, batch))
                .then(|| vec![f32::NAN; train.input_width()]);
            network.zero_grads();
            for (k, &i) in indices.iter().enumerate() {
                let (Some(x), Some(target)) = (train.input(i), train.targets.get(i)) else {
                    continue;
                };
                let input = match &poison {
                    Some(nan) if k == 0 => nan,
                    _ => x,
                };
                let value = network.train_step(input, target, self.config.loss);
                if !value.is_finite() {
                    return Err(diverged(DivergenceCause::NonFiniteLoss));
                }
                if let Some(limit) = checks.max_loss {
                    if value > limit {
                        return Err(diverged(DivergenceCause::LossExplosion { limit }));
                    }
                }
                epoch_loss += f64::from(value);
            }
            if let Some(limit) = checks.max_grad_norm {
                let norm = network.grad_norm();
                if !norm.is_finite() || norm > limit {
                    return Err(diverged(DivergenceCause::GradientExplosion { limit }));
                }
            }
            network.apply_gradients(optimizer, indices.len());
        }
        Ok((epoch_loss / train.len() as f64) as f32)
    }

    /// Loads the best validation epoch's weights into `network`, if
    /// `restore_best` is set and one was tracked.
    pub(crate) fn restore_best(
        &self,
        network: &mut Network,
        progress: &Progress,
    ) -> Result<(), NeuralError> {
        match &progress.best_weights {
            Some(weights) if self.config.restore_best => network.import_weights(weights),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::Activation;

    pub(crate) fn linear_dataset(n: usize) -> Dataset {
        // y = 0.5 a + 0.2 b
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i % 10) as f32 / 10.0;
                let b = ((i / 10) % 10) as f32 / 10.0;
                vec![a, b]
            })
            .collect();
        let targets = inputs
            .iter()
            .map(|v| vec![0.5 * v[0] + 0.2 * v[1]])
            .collect();
        Dataset::new(inputs, targets).unwrap()
    }

    pub(crate) fn small_net() -> Network {
        NetworkSpec::new(2)
            .layer(LayerSpec::Dense {
                units: 1,
                activation: Activation::Linear,
            })
            .build(1)
            .unwrap()
    }

    #[test]
    fn dataset_validation() {
        assert!(Dataset::new(vec![], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![1.0]; 2]).is_err());
        assert!(Dataset::new(vec![vec![]], vec![vec![1.0]]).is_err());
        assert!(Dataset::new(vec![vec![f32::NAN, 1.0]], vec![vec![1.0]]).is_err());
        assert!(Dataset::new(vec![vec![1.0, 1.0]], vec![vec![f32::INFINITY]]).is_err());
        assert!(Dataset::new(vec![vec![1.0, 1.0]], vec![vec![f32::NEG_INFINITY]]).is_err());
    }

    #[test]
    fn split_fractions() {
        let data = linear_dataset(100);
        let (train, test) = data.split(0.8).unwrap();
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert!(data.split(0.0).is_err());
        assert!(data.split(1.0).is_err());
    }

    #[test]
    fn shuffle_is_permutation() {
        let data = linear_dataset(50);
        let shuffled = data.shuffled(4);
        assert_eq!(shuffled.len(), data.len());
        let mut original: Vec<_> = data.inputs().collect();
        let mut after: Vec<_> = shuffled.inputs().collect();
        original.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(original, after);
        assert_ne!(
            data.inputs().collect::<Vec<_>>(),
            shuffled.inputs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn training_learns_linear_map() {
        let data = linear_dataset(200);
        let mut net = small_net();
        let config = TrainConfig {
            epochs: 400,
            batch_size: 16,
            loss: Loss::Mse,
            ..TrainConfig::default()
        };
        let history = Trainer::new(config).fit(&mut net, &data, None).unwrap();
        assert!(history.final_train_loss() < 1e-3);
        let pred = net.predict(&[1.0, 1.0]);
        assert!((pred[0] - 0.7).abs() < 0.05, "prediction {}", pred[0]);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = linear_dataset(100);
        let mut net = small_net();
        let config = TrainConfig {
            epochs: 40,
            batch_size: 10,
            loss: Loss::Mae,
            ..TrainConfig::default()
        };
        let history = Trainer::new(config).fit(&mut net, &data, None).unwrap();
        let first = history.train_loss[0];
        let last = history.final_train_loss();
        assert!(last < first, "first {first}, last {last}");
    }

    #[test]
    fn validation_tracking_selects_best_epoch() {
        let data = linear_dataset(120);
        let (train, val) = data.split(0.75).unwrap();
        let mut net = small_net();
        let config = TrainConfig {
            epochs: 30,
            batch_size: 8,
            loss: Loss::Mse,
            ..TrainConfig::default()
        };
        let history = Trainer::new(config)
            .fit(&mut net, &train, Some(&val))
            .unwrap();
        assert_eq!(history.val_loss.len(), 30);
        let best = history.best_val_loss().unwrap();
        // Restored network matches the best epoch's validation loss.
        let actual = val.evaluate(&mut net, Loss::Mse);
        assert!((actual - best).abs() < 1e-6);
    }

    #[test]
    fn shape_mismatch_detected() {
        let data = linear_dataset(10);
        let mut wrong_net = NetworkSpec::new(3)
            .layer(LayerSpec::Dense {
                units: 1,
                activation: Activation::Linear,
            })
            .build(1)
            .unwrap();
        let result = Trainer::new(TrainConfig::default()).fit(&mut wrong_net, &data, None);
        assert!(matches!(result, Err(NeuralError::ShapeMismatch { .. })));
    }

    #[test]
    fn validation_shape_mismatch_is_a_typed_error() {
        let train = linear_dataset(10);
        let wide = Dataset::new(vec![vec![0.5f32; 3]; 4], vec![vec![0.1f32]; 4]).unwrap();
        let mut net = small_net();
        let result = Trainer::new(TrainConfig::default()).fit(&mut net, &train, Some(&wide));
        assert_eq!(
            result,
            Err(NeuralError::ShapeMismatch {
                expected: 2,
                actual: 3
            })
        );
        // Scoring a mismatched dataset directly gives NaN, not a panic.
        assert!(wide.evaluate(&mut net, Loss::Mse).is_nan());
        assert!(wide.per_output_mae(&mut net)[0].is_nan());
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let data = linear_dataset(10);
        let mut net = small_net();
        let config = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        let result = Trainer::new(config).fit(&mut net, &data, None);
        assert!(
            matches!(result, Err(NeuralError::InvalidSpec(_))),
            "{result:?}"
        );
    }

    #[test]
    fn per_output_mae_has_target_width() {
        let data = linear_dataset(20);
        let mut net = small_net();
        let mae = data.per_output_mae(&mut net);
        assert_eq!(mae.len(), 1);
        assert!(mae[0] >= 0.0);
    }

    #[test]
    fn evaluate_of_perfect_network_is_zero() {
        let inputs = vec![vec![1.0f32, 0.0], vec![0.0, 1.0]];
        let targets = vec![vec![1.0f32], vec![0.0]];
        let data = Dataset::new(inputs, targets).unwrap();
        let mut net = small_net();
        // Force exact weights: y = 1*a + 0*b.
        net.import_weights(&[vec![vec![1.0, 0.0], vec![0.0]]]).unwrap();
        assert_eq!(data.evaluate(&mut net, Loss::Mae), 0.0);
    }
}

//! A feed-forward network: an ordered stack of layers.

use crate::layers::{Layer, LayerSummary};
use crate::optim::Optimizer;
use crate::{Loss, NeuralError};

/// Values of the widest layer output that one [`Network::predict_batch`]
/// chunk may hold (64 KiB of `f32`). A chunk's activations stay in cache;
/// a net as wide as Table 1's first convolution runs one sample at a
/// time, as `predict` does.
const BATCH_FLOATS: usize = 1 << 14;

/// A sequential neural network.
///
/// Networks are usually built from a [`crate::spec::NetworkSpec`]; direct
/// construction via [`Network::new`] + [`Network::push`] is available for
/// custom stacks.
///
/// # Example
///
/// ```
/// use neural::spec::{LayerSpec, NetworkSpec};
/// use neural::Activation;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let net = NetworkSpec::new(4)
///     .layer(LayerSpec::Dense { units: 3, activation: Activation::Softmax })
///     .build(7)?;
/// let out = net.summary();
/// assert_eq!(out.len(), 1);
/// assert_eq!(net.param_count(), 4 * 3 + 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the layer's input length
    /// does not match the current output length.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> Result<(), NeuralError> {
        if let Some(last) = self.layers.last() {
            if last.output_len() != layer.input_len() {
                return Err(NeuralError::ShapeMismatch {
                    expected: last.output_len(),
                    actual: layer.input_len(),
                });
            }
        }
        self.layers.push(layer);
        Ok(())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Expected input length.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn input_len(&self) -> usize {
        self.layers.first().expect("non-empty network").input_len()
    }

    /// Produced output length.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn output_len(&self) -> usize {
        self.layers.last().expect("non-empty network").output_len()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass for one sample (training mode caches activations and
    /// enables dropout).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()` or the network is
    /// empty.
    pub fn forward(&mut self, input: &[f32], training: bool) -> Vec<f32> {
        let mut x = input.to_vec();
        let mut tracker = crate::checked::FiniteTracker::new(&x);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = layer.forward(&x, training);
            tracker.check("Network::forward", i, &x);
        }
        x
    }

    /// Inference convenience: forward in evaluation mode.
    pub fn predict(&mut self, input: &[f32]) -> Vec<f32> {
        self.forward(input, false)
    }

    /// Inference on a batch: for every input, the bits [`Network::predict`]
    /// gives. The batch goes through the layers in chunks of at most
    /// `BATCH_FLOATS` values of the widest layer output, so that layers
    /// can share work across samples (the LSTM projects each distinct
    /// timestep row once) while the memory a chunk holds stays bounded.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if any input's length
    /// differs from [`Network::input_len`]; every length is checked before
    /// anything is computed.
    pub fn predict_batch<X: AsRef<[f32]>>(
        &mut self,
        inputs: &[X],
    ) -> Result<Vec<Vec<f32>>, NeuralError> {
        let Some(first) = self.layers.first() else {
            return Err(NeuralError::InvalidSpec("empty network".into()));
        };
        let expected = first.input_len();
        if let Some(bad) = inputs.iter().find(|x| x.as_ref().len() != expected) {
            return Err(NeuralError::ShapeMismatch {
                expected,
                actual: bad.as_ref().len(),
            });
        }
        let widest = self.layers.iter().map(|l| l.output_len().max(1)).max();
        let chunk = (BATCH_FLOATS / widest.unwrap_or(1)).max(1);
        let mut out = Vec::with_capacity(inputs.len());
        for batch in inputs.chunks(chunk) {
            let mut tracker: Vec<_> = batch
                .iter()
                .map(|x| crate::checked::FiniteTracker::new(x.as_ref()))
                .collect();
            // The first layer reads the caller's slices; no copy is made.
            let mut x: Vec<Vec<f32>> = Vec::new();
            for (i, layer) in self.layers.iter_mut().enumerate() {
                let rows: Vec<&[f32]> = if i == 0 {
                    batch.iter().map(AsRef::as_ref).collect()
                } else {
                    x.iter().map(Vec::as_slice).collect()
                };
                x = layer.forward_batch(&rows);
                for (t, y) in tracker.iter_mut().zip(&x) {
                    t.check("Network::predict_batch", i, y);
                }
            }
            out.extend(x);
        }
        Ok(out)
    }

    /// Back-propagates a gradient w.r.t. the network output through all
    /// layers, accumulating parameter gradients. A layer is asked for its
    /// input gradient only if a layer before it has parameters: the first
    /// trainable layer (and any shape layer in front of it) skips it.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass preceded this call.
    pub fn backward(&mut self, grad_output: &[f32]) {
        let first_trainable = self
            .layers
            .iter()
            .position(|l| l.param_count() > 0)
            .unwrap_or(self.layers.len());
        let mut g = grad_output.to_vec();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if i < first_trainable {
                break;
            }
            g = layer.backward(&g, i > first_trainable);
        }
    }

    /// Runs forward + loss + backward for one `(input, target)` pair and
    /// returns the loss value. Gradients accumulate until
    /// [`Network::zero_grads`].
    pub fn train_step(&mut self, input: &[f32], target: &[f32], loss: Loss) -> f32 {
        let prediction = self.forward(input, true);
        let value = loss.value(&prediction, target);
        let grad = loss.gradient(&prediction, target);
        self.backward(&grad);
        value
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Applies accumulated gradients via `optimizer`, scaling them by
    /// `1 / batch_size` first.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be non-zero");
        let scale = 1.0 / batch_size as f32;
        let mut slot = 0;
        let mut scaled = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, grads| {
                scaled.clear();
                scaled.extend(grads.iter().map(|g| g * scale));
                optimizer.step(slot, params, &scaled);
                slot += 1;
            });
        }
    }

    /// Euclidean norm of all accumulated parameter gradients — the
    /// divergence-guard's explosion signal.
    pub fn grad_norm(&mut self) -> f32 {
        let mut sum = 0.0f64;
        for layer in &mut self.layers {
            layer.visit_params(&mut |_, grads| {
                for &g in grads.iter() {
                    sum += f64::from(g) * f64::from(g);
                }
            });
        }
        sum.sqrt() as f32
    }

    /// Per-layer summary rows (the paper's Table 1 shape).
    pub fn summary(&self) -> Vec<LayerSummary> {
        self.layers.iter().map(|l| l.summary()).collect()
    }

    /// Renders the summary as an aligned text table.
    pub fn summary_table(&self) -> String {
        let rows = self.summary();
        let mut out = String::from(
            "Layer  Type                 Output       Config                          Act   Params\n",
        );
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{:<6} {:<20} {:<12} {:<31} {:<5} {}\n",
                i + 1,
                row.kind,
                row.output_shape,
                row.config,
                row.activation,
                row.parameters
            ));
        }
        out.push_str(&format!("Total parameters: {}\n", self.param_count()));
        out
    }

    /// Exports all parameter tensors, layer by layer.
    pub fn export_weights(&self) -> Vec<Vec<Vec<f32>>> {
        self.layers.iter().map(|l| l.export_params()).collect()
    }

    /// Imports parameter tensors previously produced by
    /// [`Network::export_weights`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidWeights`] if the layer count or any
    /// tensor shape does not match.
    pub fn import_weights(&mut self, weights: &[Vec<Vec<f32>>]) -> Result<(), NeuralError> {
        if weights.len() != self.layers.len() {
            return Err(NeuralError::InvalidWeights(format!(
                "expected {} layers, got {}",
                self.layers.len(),
                weights.len()
            )));
        }
        for (layer, w) in self.layers.iter_mut().zip(weights) {
            layer.import_params(w)?;
        }
        Ok(())
    }

    /// Approximate multiply–accumulate operation count for one inference,
    /// derived from parameter structure. Dense/conv-style layers perform
    /// roughly one MAC per weight application; the LSTM repeats its
    /// weights per timestep. Used by the platform performance model.
    pub fn macs_per_inference(&self) -> u64 {
        let mut total: u64 = 0;
        for layer in &self.layers {
            let summary = layer.summary();
            let params = summary.parameters as u64;
            total += match summary.kind.as_str() {
                // Shared conv weights are applied at every output position.
                "Conv1D" => {
                    // params ≈ weights; output positions from shape "F x L".
                    let out_positions = summary
                        .output_shape
                        .split('x')
                        .nth(1)
                        .and_then(|s| s.trim().parse::<u64>().ok())
                        .unwrap_or(1);
                    params * out_positions
                }
                "LSTM" => {
                    let timesteps = summary
                        .config
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix("timesteps="))
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(1);
                    params * timesteps
                }
                _ => params,
            };
        }
        total
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use crate::optim::Sgd;
    use crate::Activation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    fn two_layer() -> Network {
        let mut net = Network::new();
        net.push(Box::new(
            Dense::new(2, 4, Activation::Tanh, &mut rng()).unwrap(),
        ))
        .unwrap();
        net.push(Box::new(
            Dense::new(4, 1, Activation::Linear, &mut rng()).unwrap(),
        ))
        .unwrap();
        net
    }

    #[test]
    fn push_validates_shapes() {
        let mut net = Network::new();
        net.push(Box::new(
            Dense::new(2, 4, Activation::Relu, &mut rng()).unwrap(),
        ))
        .unwrap();
        let err = net.push(Box::new(
            Dense::new(5, 1, Activation::Linear, &mut rng()).unwrap(),
        ));
        assert_eq!(
            err,
            Err(NeuralError::ShapeMismatch {
                expected: 4,
                actual: 5
            })
        );
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = two_layer();
        let out = net.predict(&[0.5, -0.5]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_finite());
    }

    #[test]
    fn sgd_training_reduces_loss_on_xor_like_task() {
        let mut net = two_layer();
        let data = [
            ([0.0f32, 0.0], [0.0f32]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        let mut opt = Sgd::new(0.5, 0.9);
        let loss_at = |net: &mut Network| -> f32 {
            data.iter()
                .map(|(x, t)| Loss::Mse.value(&net.predict(x), t))
                .sum::<f32>()
                / 4.0
        };
        let before = loss_at(&mut net);
        for _ in 0..500 {
            net.zero_grads();
            for (x, t) in &data {
                net.train_step(x, t, Loss::Mse);
            }
            net.apply_gradients(&mut opt, 4);
        }
        let after = loss_at(&mut net);
        assert!(after < before * 0.2, "before {before}, after {after}");
    }

    #[test]
    fn weights_roundtrip_preserves_predictions() {
        let mut a = two_layer();
        let saved = a.export_weights();
        let mut b = two_layer();
        // Perturb b, then restore from a.
        b.zero_grads();
        b.import_weights(&saved).unwrap();
        let x = [0.3, 0.7];
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn import_rejects_wrong_layer_count() {
        let mut net = two_layer();
        assert!(net.import_weights(&[]).is_err());
    }

    #[test]
    fn summary_table_lists_all_layers() {
        let net = two_layer();
        let table = net.summary_table();
        assert_eq!(table.matches("Dense").count(), 2);
        assert!(table.contains("Total parameters"));
    }

    #[test]
    fn param_count_sums_layers() {
        let net = two_layer();
        assert_eq!(net.param_count(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    fn predict_batch_checks_every_length_before_computing() {
        let mut net = two_layer();
        // The bad input sits last, after more samples than one chunk holds
        // for this width: a layer's length assert would trip mid-batch.
        let mut inputs = vec![vec![0.5f32, -0.5]; BATCH_FLOATS / 4 + 3];
        inputs.push(vec![0.5f32; 3]);
        assert_eq!(
            net.predict_batch(&inputs),
            Err(NeuralError::ShapeMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            Network::new().predict_batch(&inputs).map(|_| ()),
            Err(NeuralError::InvalidSpec("empty network".into()))
        );
        let none: [Vec<f32>; 0] = [];
        assert_eq!(net.predict_batch(&none), Ok(Vec::new()));
    }

    /// Dense heads on top of each layer type the NMR and MS nets start with.
    fn first_layer_nets() -> Vec<(&'static str, crate::spec::NetworkSpec)> {
        use crate::spec::{LayerSpec, NetworkSpec};
        let dense = |units, activation| LayerSpec::Dense { units, activation };
        vec![
            (
                "lstm",
                NetworkSpec::new(5 * 9)
                    .layer(LayerSpec::Lstm {
                        units: 6,
                        timesteps: 5,
                    })
                    .layer(dense(3, Activation::Linear)),
            ),
            (
                "locally connected",
                NetworkSpec::new(36)
                    .layer(LayerSpec::LocallyConnected1d {
                        filters: 4,
                        kernel: 9,
                        stride: 9,
                        activation: Activation::Relu,
                    })
                    .layer(LayerSpec::Flatten)
                    .layer(dense(3, Activation::Linear)),
            ),
            (
                "reshape + conv1d",
                NetworkSpec::new(40)
                    .layer(LayerSpec::Reshape { channels: 1 })
                    .layer(LayerSpec::Conv1d {
                        filters: 5,
                        kernel: 7,
                        stride: 3,
                        activation: Activation::Selu,
                    })
                    .layer(LayerSpec::Conv1d {
                        filters: 4,
                        kernel: 3,
                        stride: 2,
                        activation: Activation::Softmax,
                    })
                    .layer(LayerSpec::Flatten)
                    .layer(dense(3, Activation::Softmax)),
            ),
            (
                "dense",
                NetworkSpec::new(12)
                    .layer(dense(8, Activation::Selu))
                    .layer(dense(3, Activation::Linear)),
            ),
        ]
    }

    fn sparse_values(n: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        use rand::Rng;
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(-1.5f32..1.5)
                }
            })
            .collect()
    }

    fn grads(net: &mut Network) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for layer in &mut net.layers {
            layer.visit_params(&mut |_, g| out.push(g.to_vec()));
        }
        out
    }

    fn assert_bits_eq(what: &str, got: &[Vec<f32>], want: &[Vec<f32>]) {
        assert_eq!(got.len(), want.len(), "{what}: tensor count");
        for (t, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.len(), w.len(), "{what}: tensor {t} length");
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: tensor {t}[{i}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn layer0_skip_is_bit_identical_to_full_backward() {
        let mut draw = rng();
        for (name, spec) in first_layer_nets() {
            let mut skip = spec.build(5).unwrap();
            let mut full = spec.build(5).unwrap();
            skip.zero_grads();
            full.zero_grads();
            // Several samples accumulate, as in a training batch.
            for _ in 0..4 {
                let x = sparse_values(skip.input_len(), &mut draw);
                let t = sparse_values(skip.output_len(), &mut draw);
                let loss = skip.train_step(&x, &t, Loss::Mse);
                let prediction = full.forward(&x, true);
                assert_eq!(loss.to_bits(), Loss::Mse.value(&prediction, &t).to_bits());
                let mut g = Loss::Mse.gradient(&prediction, &t);
                for layer in full.layers.iter_mut().rev() {
                    g = layer.backward(&g, true);
                }
                assert_eq!(g.len(), full.input_len(), "{name}: full input gradient");
            }
            assert_bits_eq(name, &grads(&mut skip), &grads(&mut full));
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let mut draw = rng();
        for (name, spec) in first_layer_nets() {
            let mut net = spec.build(9).unwrap();
            let inputs: Vec<Vec<f32>> =
                (0..23).map(|_| sparse_values(net.input_len(), &mut draw)).collect();
            let want: Vec<Vec<f32>> = inputs.iter().map(|x| net.predict(x)).collect();
            let got = net.predict_batch(&inputs).unwrap();
            assert_bits_eq(name, &got, &want);
        }
    }

    /// The training loop as it ran before batched validation and the
    /// first-layer gradient skip: every layer returns its input gradient,
    /// validation predicts one sample at a time, and the optimizer gets a
    /// freshly scaled gradient vector per tensor.
    fn reference_fit(
        net: &mut Network,
        train: &crate::train::Dataset,
        validation: &crate::train::Dataset,
        config: &crate::train::TrainConfig,
    ) -> (Vec<f32>, Vec<f32>, Option<usize>) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut optimizer = config.optimizer.build();
        let (mut train_loss, mut val_loss) = (Vec::new(), Vec::new());
        let (mut best, mut best_epoch, mut best_weights) = (None::<f32>, None, None);
        for epoch in 0..config.epochs {
            let mut order: Vec<usize> = (0..train.len()).collect();
            let seed = config.seed.wrapping_add(epoch as u64);
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size) {
                net.zero_grads();
                for &i in batch {
                    let (x, t) = (train.input(i).unwrap(), &train.targets()[i]);
                    let prediction = net.forward(x, true);
                    epoch_loss += f64::from(config.loss.value(&prediction, t));
                    let mut g = config.loss.gradient(&prediction, t);
                    for layer in net.layers.iter_mut().rev() {
                        g = layer.backward(&g, true);
                    }
                }
                let scale = 1.0 / batch.len() as f32;
                let mut slot = 0;
                for layer in &mut net.layers {
                    layer.visit_params(&mut |params, grads| {
                        let scaled: Vec<f32> = grads.iter().map(|g| g * scale).collect();
                        optimizer.step(slot, params, &scaled);
                        slot += 1;
                    });
                }
            }
            train_loss.push((epoch_loss / train.len() as f64) as f32);
            let total: f32 = validation
                .inputs()
                .zip(validation.targets())
                .map(|(x, t)| config.loss.value(&net.predict(x), t))
                .sum();
            let v = total / validation.len() as f32;
            val_loss.push(v);
            if best.is_none_or(|b| v < b) {
                best = Some(v);
                best_epoch = Some(epoch);
                best_weights = Some(net.export_weights());
            }
        }
        if let Some(weights) = best_weights {
            net.import_weights(&weights).unwrap();
        }
        (train_loss, val_loss, best_epoch)
    }

    #[test]
    fn fit_is_bit_identical_to_the_reference_loop() {
        use crate::optim::OptimizerSpec;
        use crate::train::{Dataset, TrainConfig, Trainer};
        let mut draw = rng();
        for (name, spec) in first_layer_nets() {
            let mut fitted = spec.build(21).unwrap();
            let mut reference = spec.build(21).unwrap();
            let (width, outputs) = (fitted.input_len(), fitted.output_len());
            let mut data = |n: usize| {
                let inputs = (0..n).map(|_| sparse_values(width, &mut draw)).collect();
                let targets = (0..n).map(|_| sparse_values(outputs, &mut draw)).collect();
                Dataset::new(inputs, targets).unwrap()
            };
            let (train, validation) = (data(37), data(11));
            let config = TrainConfig {
                epochs: 4,
                batch_size: 8,
                optimizer: OptimizerSpec::Adam { lr: 0.01 },
                loss: Loss::Mse,
                shuffle: true,
                seed: 3,
                restore_best: true,
                stop_at_val_loss: None,
            };
            let history = Trainer::new(config)
                .fit(&mut fitted, &train, Some(&validation))
                .unwrap();
            let (train_loss, val_loss, best_epoch) =
                reference_fit(&mut reference, &train, &validation, &config);
            assert_bits_eq(name, &[history.train_loss], &[train_loss]);
            assert_bits_eq(name, &[history.val_loss], &[val_loss]);
            assert_eq!(history.best_epoch, best_epoch, "{name}");
            let weights = |net: &Network| net.export_weights().concat();
            assert_bits_eq(name, &weights(&fitted), &weights(&reference));
        }
    }

    #[test]
    fn macs_count_dense_and_flatten() {
        let mut net = Network::new();
        net.push(Box::new(Flatten::new(2, 3).unwrap())).unwrap();
        net.push(Box::new(
            Dense::new(6, 2, Activation::Linear, &mut rng()).unwrap(),
        ))
        .unwrap();
        assert_eq!(net.macs_per_inference(), (6 * 2 + 2) as u64);
    }
}

//! Network layers.
//!
//! Every layer trains one sample at a time on flat `f32` slices; the
//! shape semantics (channels × length for convolutional layers, timesteps
//! × features for the LSTM) are documented per layer. Training batches are
//! formed by the trainer, which accumulates gradients across the samples
//! of a batch before an optimizer step. Inference can also run a batch
//! through a layer at once ([`Layer::forward_batch`]), which the LSTM uses
//! to project each distinct timestep row once.

mod conv1d;
mod dense;
mod dropout;
mod highway;
mod local1d;
mod lstm;
mod pool;
mod shape;

pub use conv1d::Conv1d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use highway::{Highway, ResidualDense};
pub use local1d::LocallyConnected1d;
pub use lstm::Lstm;
pub(crate) use lstm::{FrozenLstm, LstmBuffers, Windows};
pub use pool::{AvgPool1d, MaxPool1d};
pub use shape::{Flatten, Reshape};

use serde::{Deserialize, Serialize};

use crate::NeuralError;

/// One row of a network summary (the shape of the paper's Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Layer kind, e.g. `"Conv1D"`.
    pub kind: String,
    /// Human-readable output shape, e.g. `"25 x 120"`.
    pub output_shape: String,
    /// Configuration detail, e.g. `"filters=25 kernel=20 stride=3"`.
    pub config: String,
    /// Activation short name (empty for shape-only layers).
    pub activation: String,
    /// Number of trainable parameters.
    pub parameters: usize,
}

/// A neural-network layer: single-sample forward/backward with internal
/// caching and gradient accumulation.
///
/// Contract:
/// * `forward` caches whatever `backward` needs; calling `backward`
///   without a preceding `forward` is a programming error and may panic;
/// * `backward` *accumulates* into the parameter gradients (the trainer
///   zeroes them per batch via [`Layer::zero_grads`]) and, when asked,
///   returns the gradient w.r.t. the layer input;
/// * `forward_batch` gives, for every sample, the bits `forward` would
///   give in evaluation mode;
/// * `visit_params` exposes `(params, grads)` tensor pairs in a stable
///   order for the optimizer.
pub trait Layer: std::fmt::Debug + Send {
    /// Static layer kind name, e.g. `"Dense"`.
    fn kind(&self) -> &'static str;

    /// Expected input length (flattened).
    fn input_len(&self) -> usize;

    /// Produced output length (flattened).
    fn output_len(&self) -> usize;

    /// Computes the layer output for one sample. `training` enables
    /// train-only behaviour (dropout).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()`.
    fn forward(&mut self, input: &[f32], training: bool) -> Vec<f32>;

    /// Evaluation-mode forward of a batch: one output per input, each
    /// bit-identical to `forward(input, false)`. Caches for `backward` are
    /// not kept. The default runs the samples one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `self.input_len()`.
    fn forward_batch(&mut self, inputs: &[&[f32]]) -> Vec<Vec<f32>> {
        inputs.iter().map(|x| self.forward(x, false)).collect()
    }

    /// Back-propagates `grad_output` (w.r.t. this layer's output) through
    /// the most recent `forward`, accumulating parameter gradients.
    /// Returns the gradient w.r.t. the input if `input_grad` is set and an
    /// empty vector otherwise: the first layer of a network has no use
    /// for it, and skipping it leaves every parameter gradient unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len() != self.output_len()` or no forward
    /// pass has been run.
    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32>;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Visits `(params, grads)` tensor pairs in a stable order.
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    /// Zeroes all accumulated gradients.
    fn zero_grads(&mut self) {}

    /// A summary row for [`crate::Network::summary`].
    fn summary(&self) -> LayerSummary;

    /// Exports parameter tensors (same order as `visit_params`).
    fn export_params(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Imports parameter tensors previously produced by `export_params`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidWeights`] if tensor count or sizes
    /// do not match.
    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(NeuralError::InvalidWeights(format!(
                "layer {} has no parameters but {} tensors were provided",
                self.kind(),
                params.len()
            )))
        }
    }
}

/// Helper: import `src` tensors into `dst` slices, validating sizes.
pub(crate) fn import_into(
    kind: &str,
    dst: &mut [&mut Vec<f32>],
    src: &[Vec<f32>],
) -> Result<(), NeuralError> {
    if dst.len() != src.len() {
        return Err(NeuralError::InvalidWeights(format!(
            "layer {kind}: expected {} tensors, got {}",
            dst.len(),
            src.len()
        )));
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if d.len() != s.len() {
            return Err(NeuralError::InvalidWeights(format!(
                "layer {kind}: tensor size {} does not match {}",
                s.len(),
                d.len()
            )));
        }
        d.copy_from_slice(s);
    }
    Ok(())
}

/// Output length of a valid (no padding) 1-D convolution.
///
/// # Errors
///
/// Returns [`NeuralError::InvalidSpec`] if the kernel exceeds the input
/// length, or kernel/stride are zero.
pub fn conv_output_len(input_len: usize, kernel: usize, stride: usize) -> Result<usize, NeuralError> {
    if kernel == 0 || stride == 0 {
        return Err(NeuralError::InvalidSpec(format!(
            "kernel ({kernel}) and stride ({stride}) must be non-zero"
        )));
    }
    if kernel > input_len {
        return Err(NeuralError::InvalidSpec(format!(
            "kernel {kernel} exceeds input length {input_len}"
        )));
    }
    Ok((input_len - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_len_matches_paper_table1() {
        // Paper Table 1 stack on a 397-point input:
        let l1 = conv_output_len(397, 20, 1).unwrap();
        assert_eq!(l1, 378);
        let l2 = conv_output_len(l1, 20, 3).unwrap();
        assert_eq!(l2, 120);
        let l3 = conv_output_len(l2, 15, 2).unwrap();
        assert_eq!(l3, 53);
        let l4 = conv_output_len(l3, 15, 4).unwrap();
        assert_eq!(l4, 10);
    }

    #[test]
    fn conv_output_len_rejects_bad_params() {
        assert!(conv_output_len(10, 0, 1).is_err());
        assert!(conv_output_len(10, 3, 0).is_err());
        assert!(conv_output_len(10, 11, 1).is_err());
    }

    #[test]
    fn locally_connected_output_matches_design() {
        // DESIGN.md §5: 1700-point input, kernel 9, stride 9 -> 188.
        assert_eq!(conv_output_len(1700, 9, 9).unwrap(), 188);
    }
}

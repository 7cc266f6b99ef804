//! 1-D convolution with stride (valid padding, channels-first layout).

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{conv_output_len, import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// A strided 1-D convolution, `valid` padding, shared weights.
///
/// Data layout is channels-first: input is `in_channels × in_len` flattened
/// as `input[ch * in_len + pos]`; output is `filters × out_len` likewise.
/// Softmax activation normalizes across filters at each output position
/// (Keras channels-last softmax semantics — see [`Activation`]).
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    /// `weights[f][ic][k]` flattened as `((f * in_channels) + ic) * kernel + k`.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
    cached_output: Vec<f32>,
}

impl Conv1d {
    /// Creates a convolutional layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if any dimension is zero or
    /// the kernel exceeds the input length.
    pub fn new(
        in_channels: usize,
        in_len: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        activation: Activation,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if in_channels == 0 || filters == 0 {
            return Err(NeuralError::InvalidSpec(
                "conv1d channels and filters must be non-zero".into(),
            ));
        }
        let out_len = conv_output_len(in_len, kernel, stride)?;
        let fan_in = in_channels * kernel;
        let mut weights = vec![0.0; filters * in_channels * kernel];
        Init::for_activation(activation).fill(&mut weights, fan_in, filters, rng);
        Ok(Self {
            in_channels,
            in_len,
            filters,
            kernel,
            stride,
            out_len,
            activation,
            grad_weights: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; filters],
            grad_bias: vec![0.0; filters],
            cached_input: Vec::new(),
            cached_output: Vec::new(),
        })
    }

    /// Spatial output length.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Number of filters (output channels).
    pub fn filters(&self) -> usize {
        self.filters
    }

}

impl Layer for Conv1d {
    fn kind(&self) -> &'static str {
        "Conv1D"
    }

    fn input_len(&self) -> usize {
        self.in_channels * self.in_len
    }

    fn output_len(&self) -> usize {
        self.filters * self.out_len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "conv1d input length");
        let mut out = vec![0.0f32; self.output_len()];
        for f in 0..self.filters {
            let bias = self.bias[f];
            for op in 0..self.out_len {
                let start = op * self.stride;
                let mut acc = bias;
                for ic in 0..self.in_channels {
                    let w_base = (f * self.in_channels + ic) * self.kernel;
                    let x_base = ic * self.in_len + start;
                    let w = &self.weights[w_base..w_base + self.kernel];
                    let x = &input[x_base..x_base + self.kernel];
                    let mut dot = 0.0f32;
                    for (wi, xi) in w.iter().zip(x) {
                        dot += wi * xi;
                    }
                    acc += dot;
                }
                out[f * self.out_len + op] = acc;
            }
        }
        // Softmax across channels at each position: regroup to
        // position-major, apply, regroup back.
        if self.activation == Activation::Softmax {
            let mut grouped = vec![0.0f32; out.len()];
            for f in 0..self.filters {
                for op in 0..self.out_len {
                    grouped[op * self.filters + f] = out[f * self.out_len + op];
                }
            }
            self.activation.apply(&mut grouped, self.filters);
            for f in 0..self.filters {
                for op in 0..self.out_len {
                    out[f * self.out_len + op] = grouped[op * self.filters + f];
                }
            }
        } else {
            self.activation.apply(&mut out, 1);
        }
        self.cached_input = input.to_vec();
        self.cached_output = out.clone();
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_len(), "conv1d grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        // Activation backward.
        let mut dz = grad_output.to_vec();
        if self.activation == Activation::Softmax {
            let mut g_grouped = vec![0.0f32; dz.len()];
            let mut y_grouped = vec![0.0f32; dz.len()];
            for f in 0..self.filters {
                for op in 0..self.out_len {
                    g_grouped[op * self.filters + f] = dz[f * self.out_len + op];
                    y_grouped[op * self.filters + f] = self.cached_output[f * self.out_len + op];
                }
            }
            self.activation
                .backward(&y_grouped, &mut g_grouped, self.filters);
            for f in 0..self.filters {
                for op in 0..self.out_len {
                    dz[f * self.out_len + op] = g_grouped[op * self.filters + f];
                }
            }
        } else {
            self.activation.backward(&self.cached_output, &mut dz, 1);
        }

        let mut grad_in = if input_grad {
            vec![0.0f32; self.input_len()]
        } else {
            Vec::new()
        };
        for f in 0..self.filters {
            for op in 0..self.out_len {
                let g = dz[f * self.out_len + op];
                if g == 0.0 {
                    continue;
                }
                self.grad_bias[f] += g;
                let start = op * self.stride;
                for ic in 0..self.in_channels {
                    let w_base = (f * self.in_channels + ic) * self.kernel;
                    let x_base = ic * self.in_len + start;
                    let gw = &mut self.grad_weights[w_base..w_base + self.kernel];
                    let x = &self.cached_input[x_base..x_base + self.kernel];
                    for (gwk, &xk) in gw.iter_mut().zip(x) {
                        *gwk += g * xk;
                    }
                    if input_grad {
                        let gi = &mut grad_in[x_base..x_base + self.kernel];
                        let w = &self.weights[w_base..w_base + self.kernel];
                        for (gik, &wk) in gi.iter_mut().zip(w) {
                            *gik += g * wk;
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.weights, &mut self.grad_weights);
        visitor(&mut self.bias, &mut self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weights.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "Conv1D".into(),
            output_shape: format!("{} x {}", self.filters, self.out_len),
            config: format!(
                "filters={} kernel={} stride={}",
                self.filters, self.kernel, self.stride
            ),
            activation: self.activation.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![self.weights.clone(), self.bias.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self { weights, bias, .. } = self;
        import_into("Conv1D", &mut [weights, bias], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    #[test]
    fn output_shape_matches_formula() {
        let layer = Conv1d::new(1, 397, 25, 20, 1, Activation::Selu, &mut rng()).unwrap();
        assert_eq!(layer.out_len(), 378);
        assert_eq!(layer.output_len(), 25 * 378);
        assert_eq!(layer.param_count(), 25 * 20 + 25);
    }

    #[test]
    fn paper_table1_parameter_counts() {
        // Layer 3: Conv1D(25, k20, s1) on 1 channel: 25*1*20+25 = 525.
        let l3 = Conv1d::new(1, 397, 25, 20, 1, Activation::Selu, &mut rng()).unwrap();
        assert_eq!(l3.param_count(), 525);
        // Layer 4: Conv1D(25, k20, s3) on 25 channels: 25*25*20+25 = 12525.
        let l4 = Conv1d::new(25, 378, 25, 20, 3, Activation::Selu, &mut rng()).unwrap();
        assert_eq!(l4.param_count(), 12_525);
    }

    #[test]
    fn identity_kernel_passes_signal() {
        let mut layer = Conv1d::new(1, 5, 1, 1, 1, Activation::Linear, &mut rng()).unwrap();
        layer.import_params(&[vec![1.0], vec![0.0]]).unwrap();
        let out = layer.forward(&[1.0, 2.0, 3.0, 4.0, 5.0], false);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn stride_subsamples() {
        let mut layer = Conv1d::new(1, 6, 1, 2, 2, Activation::Linear, &mut rng()).unwrap();
        layer.import_params(&[vec![1.0, 1.0], vec![0.0]]).unwrap();
        let out = layer.forward(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], false);
        assert_eq!(out, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        let mut layer = Conv1d::new(2, 3, 1, 1, 1, Activation::Linear, &mut rng()).unwrap();
        // w[f=0][ic=0][0] = 1, w[f=0][ic=1][0] = 10.
        layer.import_params(&[vec![1.0, 10.0], vec![0.0]]).unwrap();
        // channel 0 = [1,2,3], channel 1 = [4,5,6].
        let out = layer.forward(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], false);
        assert_eq!(out, vec![41.0, 52.0, 63.0]);
    }

    #[test]
    fn softmax_normalizes_across_filters_per_position() {
        let mut layer = Conv1d::new(1, 4, 3, 2, 1, Activation::Softmax, &mut rng()).unwrap();
        let out = layer.forward(&[0.5, -0.3, 0.8, 0.1], false);
        let out_len = layer.out_len();
        for op in 0..out_len {
            let sum: f32 = (0..3).map(|f| out[f * out_len + op]).sum();
            assert!((sum - 1.0).abs() < 1e-5, "position {op} sums to {sum}");
        }
    }

    #[test]
    fn backward_matches_numeric_gradients() {
        let mut layer = Conv1d::new(2, 6, 3, 3, 2, Activation::Selu, &mut rng()).unwrap();
        let input: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        let upstream: Vec<f32> = (0..layer.output_len())
            .map(|i| ((i as f32) * 0.71).cos())
            .collect();

        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);

        let loss = |layer: &mut Conv1d, x: &[f32]| -> f32 {
            layer
                .forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };

        let eps = 1e-3;
        for i in 0..input.len() {
            let mut hi = input.clone();
            hi[i] += eps;
            let mut lo = input.clone();
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 2e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }

        // Spot-check a few weight gradients numerically.
        layer.forward(&input, true);
        layer.zero_grads();
        layer.backward(&upstream, true);
        let mut analytic = Vec::new();
        layer.visit_params(&mut |_p, g| analytic.push(g.to_vec()));
        let mut exported = layer.export_params();
        for idx in [0usize, 5, 11] {
            let orig = exported[0][idx];
            exported[0][idx] = orig + eps;
            layer.import_params(&exported).unwrap();
            let f_hi = loss(&mut layer, &input);
            exported[0][idx] = orig - eps;
            layer.import_params(&exported).unwrap();
            let f_lo = loss(&mut layer, &input);
            exported[0][idx] = orig;
            layer.import_params(&exported).unwrap();
            let num = (f_hi - f_lo) / (2.0 * eps);
            assert!(
                (analytic[0][idx] - num).abs() < 2e-2,
                "weight grad {idx}: analytic {} numeric {num}",
                analytic[0][idx]
            );
        }
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let mut layer = Conv1d::new(1, 5, 2, 2, 1, Activation::Softmax, &mut rng()).unwrap();
        let input = [0.2f32, -0.4, 0.9, 0.3, -0.6];
        let upstream: Vec<f32> = (0..layer.output_len()).map(|i| 0.5 - 0.2 * i as f32).collect();
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);
        let eps = 1e-3;
        for i in 0..input.len() {
            let mut hi = input;
            hi[i] += eps;
            let mut lo = input;
            lo[i] -= eps;
            let f = |l: &mut Conv1d, x: &[f32]| -> f32 {
                l.forward(x, false)
                    .iter()
                    .zip(&upstream)
                    .map(|(y, u)| y * u)
                    .sum()
            };
            let num = (f(&mut layer, &hi) - f(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "softmax conv grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn rejects_invalid_spec() {
        assert!(Conv1d::new(0, 10, 1, 3, 1, Activation::Linear, &mut rng()).is_err());
        assert!(Conv1d::new(1, 10, 0, 3, 1, Activation::Linear, &mut rng()).is_err());
        assert!(Conv1d::new(1, 10, 1, 11, 1, Activation::Linear, &mut rng()).is_err());
        assert!(Conv1d::new(1, 10, 1, 3, 0, Activation::Linear, &mut rng()).is_err());
    }
}

//! Locally connected 1-D layer (unshared convolution weights).
//!
//! The paper's best NMR model is "a single, locally connected 1-D
//! convolutional layer" (§III.B.2/3) — convolution geometry, but with an
//! independent kernel per output position. With 4 filters, kernel 9 and
//! stride 9 on a 1700-point spectrum this layer plus a Dense(4) head has
//! exactly the paper's 10 532 trainable parameters.

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{conv_output_len, import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// A locally connected 1-D layer: like [`crate::layers::Conv1d`] but with
/// unshared weights per output position.
///
/// Layout: input `in_channels × in_len` channels-first; output
/// `filters × out_len` channels-first. Weights are
/// `weights[op][f][ic][k]` flattened; biases are `bias[op][f]`.
#[derive(Debug, Clone)]
pub struct LocallyConnected1d {
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
    cached_output: Vec<f32>,
}

impl LocallyConnected1d {
    /// Creates a locally connected layer.
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
                "locally connected channels and filters must be non-zero".into(),
            ));
        }
        let out_len = conv_output_len(in_len, kernel, stride)?;
        let fan_in = in_channels * kernel;
        let mut weights = vec![0.0; out_len * filters * in_channels * kernel];
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
            bias: vec![0.0; out_len * filters],
            grad_bias: vec![0.0; out_len * filters],
            cached_input: Vec::new(),
            cached_output: Vec::new(),
        })
    }

    /// Spatial output length.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    fn w_index(&self, op: usize, f: usize, ic: usize, k: usize) -> usize {
        ((op * self.filters + f) * self.in_channels + ic) * self.kernel + k
    }
}

impl Layer for LocallyConnected1d {
    fn kind(&self) -> &'static str {
        "LocallyConnected1D"
    }

    fn input_len(&self) -> usize {
        self.in_channels * self.in_len
    }

    fn output_len(&self) -> usize {
        self.filters * self.out_len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "local1d input length");
        let mut out = vec![0.0f32; self.output_len()];
        for op in 0..self.out_len {
            let start = op * self.stride;
            for f in 0..self.filters {
                let mut acc = self.bias[op * self.filters + f];
                for ic in 0..self.in_channels {
                    let w_base = self.w_index(op, f, ic, 0);
                    let x_base = ic * self.in_len + start;
                    let w = &self.weights[w_base..w_base + self.kernel];
                    let x = &input[x_base..x_base + self.kernel];
                    for (wi, xi) in w.iter().zip(x) {
                        acc += wi * xi;
                    }
                }
                out[f * self.out_len + op] = acc;
            }
        }
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
        assert_eq!(grad_output.len(), self.output_len(), "local1d grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
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
        for op in 0..self.out_len {
            let start = op * self.stride;
            for f in 0..self.filters {
                let g = dz[f * self.out_len + op];
                if g == 0.0 {
                    continue;
                }
                self.grad_bias[op * self.filters + f] += g;
                for ic in 0..self.in_channels {
                    let w_base = self.w_index(op, f, ic, 0);
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
            kind: "LocallyConnected1D".into(),
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
        import_into("LocallyConnected1D", &mut [weights, bias], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn paper_parameter_count_is_exact() {
        // DESIGN.md §5: 1700 input, 4 filters, k=9, s=9 -> out_len 188,
        // params 188*4*(9+1) = 7520; plus Dense(188*4 -> 4) = 3012;
        // total 10532, matching the paper exactly.
        let layer =
            LocallyConnected1d::new(1, 1700, 4, 9, 9, Activation::Relu, &mut rng()).unwrap();
        assert_eq!(layer.out_len(), 188);
        assert_eq!(layer.param_count(), 7_520);
        let dense_params = (188 * 4) * 4 + 4;
        assert_eq!(layer.param_count() + dense_params, 10_532);
    }

    #[test]
    fn unshared_weights_differ_from_conv() {
        // A locally connected layer has out_len times the weights of the
        // equivalent conv layer.
        let local = LocallyConnected1d::new(1, 20, 2, 4, 4, Activation::Linear, &mut rng()).unwrap();
        assert_eq!(local.param_count(), 5 * (2 * 4) + 5 * 2);
    }

    #[test]
    fn forward_uses_position_specific_kernels() {
        let mut layer =
            LocallyConnected1d::new(1, 4, 1, 2, 2, Activation::Linear, &mut rng()).unwrap();
        // Two output positions; kernel at position 0 = [1, 0], at 1 = [0, 1].
        layer
            .import_params(&[vec![1.0, 0.0, 0.0, 1.0], vec![0.0, 0.0]])
            .unwrap();
        let out = layer.forward(&[5.0, 6.0, 7.0, 8.0], false);
        assert_eq!(out, vec![5.0, 8.0]);
    }

    #[test]
    fn backward_matches_numeric_gradients() {
        let mut layer =
            LocallyConnected1d::new(1, 10, 2, 3, 3, Activation::Tanh, &mut rng()).unwrap();
        let input: Vec<f32> = (0..10).map(|i| ((i as f32) * 0.43).sin()).collect();
        let upstream: Vec<f32> = (0..layer.output_len())
            .map(|i| 1.0 - 0.3 * i as f32)
            .collect();
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);

        let loss = |l: &mut LocallyConnected1d, x: &[f32]| -> f32 {
            l.forward(x, false)
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
                (grad_in[i] - num).abs() < 1e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn import_export_roundtrip() {
        let mut a =
            LocallyConnected1d::new(1, 12, 2, 3, 3, Activation::Relu, &mut rng()).unwrap();
        let mut b = LocallyConnected1d::new(
            1,
            12,
            2,
            3,
            3,
            Activation::Relu,
            &mut ChaCha8Rng::seed_from_u64(1234),
        )
        .unwrap();
        b.import_params(&a.export_params()).unwrap();
        let x: Vec<f32> = (0..12).map(|i| i as f32 * 0.1).collect();
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    fn rejects_invalid_spec() {
        assert!(LocallyConnected1d::new(1, 5, 0, 2, 1, Activation::Linear, &mut rng()).is_err());
        assert!(LocallyConnected1d::new(1, 5, 1, 6, 1, Activation::Linear, &mut rng()).is_err());
    }
}

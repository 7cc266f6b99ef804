//! Fully connected layer.

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// A fully connected (dense) layer `y = act(W x + b)`.
///
/// Weights are stored row-major: `weights[out * input_len + in]`.
#[derive(Debug, Clone)]
pub struct Dense {
    input_len: usize,
    units: usize,
    activation: Activation,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
    cached_output: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with activation-appropriate initialization.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `input_len` or `units` is
    /// zero.
    pub fn new(
        input_len: usize,
        units: usize,
        activation: Activation,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if input_len == 0 || units == 0 {
            return Err(NeuralError::InvalidSpec(format!(
                "dense layer needs non-zero dimensions, got {input_len} -> {units}"
            )));
        }
        let mut weights = vec![0.0; units * input_len];
        Init::for_activation(activation).fill(&mut weights, input_len, units, rng);
        Ok(Self {
            input_len,
            units,
            activation,
            grad_weights: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; units],
            grad_bias: vec![0.0; units],
            cached_input: Vec::new(),
            cached_output: Vec::new(),
        })
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of output units.
    pub fn units(&self) -> usize {
        self.units
    }
}

impl Layer for Dense {
    fn kind(&self) -> &'static str {
        "Dense"
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn output_len(&self) -> usize {
        self.units
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len, "dense input length");
        let mut out = self.bias.clone();
        for (u, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[u * self.input_len..(u + 1) * self.input_len];
            let mut acc = 0.0f32;
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            *slot += acc;
        }
        self.activation.apply(&mut out, self.units);
        self.cached_input = input.to_vec();
        self.cached_output = out.clone();
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.units, "dense grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let mut dz = grad_output.to_vec();
        self.activation
            .backward(&self.cached_output, &mut dz, self.units);
        let mut grad_in = if input_grad {
            vec![0.0f32; self.input_len]
        } else {
            Vec::new()
        };
        for (u, &g) in dz.iter().enumerate() {
            self.grad_bias[u] += g;
            let row = &self.weights[u * self.input_len..(u + 1) * self.input_len];
            let grad_row = &mut self.grad_weights[u * self.input_len..(u + 1) * self.input_len];
            for (gw, &x) in grad_row.iter_mut().zip(&self.cached_input) {
                *gw += g * x;
            }
            // Empty when the input gradient is not wanted.
            for (gi, &w) in grad_in.iter_mut().zip(row) {
                *gi += g * w;
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
            kind: "Dense".into(),
            output_shape: format!("{}", self.units),
            config: format!("units={}", self.units),
            activation: self.activation.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![self.weights.clone(), self.bias.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self { weights, bias, .. } = self;
        import_into("Dense", &mut [weights, bias], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn construction_validates() {
        assert!(Dense::new(0, 3, Activation::Linear, &mut rng()).is_err());
        assert!(Dense::new(3, 0, Activation::Linear, &mut rng()).is_err());
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut layer = Dense::new(2, 2, Activation::Linear, &mut rng()).unwrap();
        layer
            .import_params(&[vec![1.0, 2.0, 3.0, 4.0], vec![0.5, -0.5]])
            .unwrap();
        let out = layer.forward(&[1.0, 1.0], false);
        assert_eq!(out, vec![3.5, 6.5]);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let layer = Dense::new(150, 8, Activation::Softmax, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 150 * 8 + 8);
    }

    #[test]
    fn backward_gradients_match_numeric() {
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng()).unwrap();
        let input = [0.3f32, -0.7, 0.9];
        let upstream = [1.0f32, -2.0];

        let out = layer.forward(&input, true);
        let _ = out;
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);

        // Numeric input gradient.
        let eps = 1e-3;
        for i in 0..3 {
            let mut hi = input;
            hi[i] += eps;
            let mut lo = input;
            lo[i] -= eps;
            let f_hi: f32 = layer
                .forward(&hi, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum();
            let f_lo: f32 = layer
                .forward(&lo, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum();
            let num = (f_hi - f_lo) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }

        // Numeric weight gradient (first weight).
        let mut exported = layer.export_params();
        let orig = exported[0][0];
        let analytic_gw = {
            let mut cap = Vec::new();
            layer.forward(&input, true);
            layer.zero_grads();
            layer.backward(&upstream, true);
            layer.visit_params(&mut |_p, g| cap.push(g.to_vec()));
            cap[0][0]
        };
        exported[0][0] = orig + eps;
        layer.import_params(&exported).unwrap();
        let f_hi: f32 = layer
            .forward(&input, false)
            .iter()
            .zip(&upstream)
            .map(|(y, u)| y * u)
            .sum();
        exported[0][0] = orig - eps;
        layer.import_params(&exported).unwrap();
        let f_lo: f32 = layer
            .forward(&input, false)
            .iter()
            .zip(&upstream)
            .map(|(y, u)| y * u)
            .sum();
        let num = (f_hi - f_lo) / (2.0 * eps);
        assert!(
            (analytic_gw - num).abs() < 1e-2,
            "weight grad: analytic {analytic_gw} numeric {num}"
        );
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut layer = Dense::new(2, 1, Activation::Linear, &mut rng()).unwrap();
        layer.forward(&[1.0, 1.0], true);
        layer.backward(&[1.0], true);
        layer.forward(&[1.0, 1.0], true);
        layer.backward(&[1.0], true);
        let mut bias_grad = 0.0;
        layer.visit_params(&mut |_p, g| {
            if g.len() == 1 {
                bias_grad = g[0];
            }
        });
        assert_eq!(bias_grad, 2.0);
        layer.zero_grads();
        layer.visit_params(&mut |_p, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn import_rejects_wrong_shapes() {
        let mut layer = Dense::new(2, 2, Activation::Linear, &mut rng()).unwrap();
        assert!(layer.import_params(&[vec![0.0; 3], vec![0.0; 2]]).is_err());
        assert!(layer.import_params(&[vec![0.0; 4]]).is_err());
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = Dense::new(4, 3, Activation::Relu, &mut rng()).unwrap();
        let mut b = Dense::new(4, 3, Activation::Relu, &mut ChaCha8Rng::seed_from_u64(99)).unwrap();
        b.import_params(&a.export_params()).unwrap();
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }
}

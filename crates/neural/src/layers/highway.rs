//! Highway and residual dense layers.
//!
//! The paper's preliminary architecture study "included Multi-Layer
//! Perceptron (MLP) networks, the ResNet and Highway network
//! architectures, and Convolutional Neural Networks" before settling on
//! CNNs (§III.A.2, citing Srivastava et al., "Highway networks"). These
//! layers let the workspace rerun that comparison (see the
//! `arch_explore` harness).

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// A highway layer: `y = T(x) ⊙ H(x) + (1 - T(x)) ⊙ x` with transform
/// gate `T(x) = σ(W_T x + b_T)` and candidate `H(x) = act(W_H x + b_H)`.
/// Input and output widths are equal by construction.
#[derive(Debug, Clone)]
pub struct Highway {
    width: usize,
    activation: Activation,
    w_h: Vec<f32>,
    b_h: Vec<f32>,
    w_t: Vec<f32>,
    b_t: Vec<f32>,
    grad_w_h: Vec<f32>,
    grad_b_h: Vec<f32>,
    grad_w_t: Vec<f32>,
    grad_b_t: Vec<f32>,
    cached_input: Vec<f32>,
    cached_h: Vec<f32>,
    cached_t: Vec<f32>,
}

impl Highway {
    /// Creates a highway layer of the given width.
    ///
    /// The transform-gate bias starts at `-1` (Srivastava et al.'s
    /// recommendation) so early training favours the carry path.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `width` is zero.
    pub fn new(
        width: usize,
        activation: Activation,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if width == 0 {
            return Err(NeuralError::InvalidSpec("highway width is zero".into()));
        }
        let mut w_h = vec![0.0; width * width];
        let mut w_t = vec![0.0; width * width];
        Init::for_activation(activation).fill(&mut w_h, width, width, rng);
        Init::GlorotUniform.fill(&mut w_t, width, width, rng);
        Ok(Self {
            width,
            activation,
            grad_w_h: vec![0.0; w_h.len()],
            grad_w_t: vec![0.0; w_t.len()],
            w_h,
            w_t,
            b_h: vec![0.0; width],
            b_t: vec![-1.0; width],
            grad_b_h: vec![0.0; width],
            grad_b_t: vec![0.0; width],
            cached_input: Vec::new(),
            cached_h: Vec::new(),
            cached_t: Vec::new(),
        })
    }

    fn affine(&self, weights: &[f32], bias: &[f32], input: &[f32]) -> Vec<f32> {
        let mut out = bias.to_vec();
        for (u, slot) in out.iter_mut().enumerate() {
            let row = &weights[u * self.width..(u + 1) * self.width];
            let mut acc = 0.0f32;
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            *slot += acc;
        }
        out
    }
}

impl Layer for Highway {
    fn kind(&self) -> &'static str {
        "Highway"
    }

    fn input_len(&self) -> usize {
        self.width
    }

    fn output_len(&self) -> usize {
        self.width
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.width, "highway input length");
        let mut h = self.affine(&self.w_h, &self.b_h, input);
        self.activation.apply(&mut h, self.width);
        let mut t = self.affine(&self.w_t, &self.b_t, input);
        Activation::Sigmoid.apply(&mut t, 1);
        let out: Vec<f32> = h
            .iter()
            .zip(&t)
            .zip(input)
            .map(|((&hi, &ti), &xi)| ti * hi + (1.0 - ti) * xi)
            .collect();
        self.cached_input = input.to_vec();
        self.cached_h = h;
        self.cached_t = t;
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.width, "highway grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let x = &self.cached_input;
        let h = &self.cached_h;
        let t = &self.cached_t;
        // dL/dh = g * t ; dL/dt = g * (h - x) ; carry term dL/dx += g * (1 - t).
        let mut dh: Vec<f32> = grad_output.iter().zip(t).map(|(&g, &ti)| g * ti).collect();
        self.activation.backward(h, &mut dh, self.width);
        let mut dt: Vec<f32> = grad_output
            .iter()
            .zip(h.iter().zip(x))
            .map(|(&g, (&hi, &xi))| g * (hi - xi))
            .collect();
        Activation::Sigmoid.backward(t, &mut dt, 1);

        let mut grad_in: Vec<f32> = if input_grad {
            grad_output
                .iter()
                .zip(t)
                .map(|(&g, &ti)| g * (1.0 - ti))
                .collect()
        } else {
            Vec::new()
        };
        for (u, (&dhu, &dtu)) in dh.iter().zip(&dt).enumerate() {
            self.grad_b_h[u] += dhu;
            self.grad_b_t[u] += dtu;
            let row_h = &self.w_h[u * self.width..(u + 1) * self.width];
            let row_t = &self.w_t[u * self.width..(u + 1) * self.width];
            let gw_h = &mut self.grad_w_h[u * self.width..(u + 1) * self.width];
            let gw_t = &mut self.grad_w_t[u * self.width..(u + 1) * self.width];
            for k in 0..self.width {
                gw_h[k] += dhu * x[k];
                gw_t[k] += dtu * x[k];
            }
            // Empty when the input gradient is not wanted.
            for ((gi, &wh), &wt) in grad_in.iter_mut().zip(row_h).zip(row_t) {
                *gi += dhu * wh + dtu * wt;
            }
        }
        grad_in
    }

    fn param_count(&self) -> usize {
        self.w_h.len() + self.b_h.len() + self.w_t.len() + self.b_t.len()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.w_h, &mut self.grad_w_h);
        visitor(&mut self.b_h, &mut self.grad_b_h);
        visitor(&mut self.w_t, &mut self.grad_w_t);
        visitor(&mut self.b_t, &mut self.grad_b_t);
    }

    fn zero_grads(&mut self) {
        for g in [
            &mut self.grad_w_h,
            &mut self.grad_b_h,
            &mut self.grad_w_t,
            &mut self.grad_b_t,
        ] {
            g.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "Highway".into(),
            output_shape: format!("{}", self.width),
            config: format!("width={}", self.width),
            activation: self.activation.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![
            self.w_h.clone(),
            self.b_h.clone(),
            self.w_t.clone(),
            self.b_t.clone(),
        ]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self {
            w_h, b_h, w_t, b_t, ..
        } = self;
        import_into("Highway", &mut [w_h, b_h, w_t, b_t], params)
    }
}

/// A residual dense block: `y = act(W x + b) + x` (ResNet-style skip for
/// equal widths).
#[derive(Debug, Clone)]
pub struct ResidualDense {
    width: usize,
    activation: Activation,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Vec<f32>,
    cached_branch: Vec<f32>,
}

impl ResidualDense {
    /// Creates a residual dense block of the given width.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `width` is zero.
    pub fn new(
        width: usize,
        activation: Activation,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if width == 0 {
            return Err(NeuralError::InvalidSpec("residual width is zero".into()));
        }
        let mut weights = vec![0.0; width * width];
        Init::for_activation(activation).fill(&mut weights, width, width, rng);
        Ok(Self {
            width,
            activation,
            grad_weights: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; width],
            grad_bias: vec![0.0; width],
            cached_input: Vec::new(),
            cached_branch: Vec::new(),
        })
    }
}

impl Layer for ResidualDense {
    fn kind(&self) -> &'static str {
        "ResidualDense"
    }

    fn input_len(&self) -> usize {
        self.width
    }

    fn output_len(&self) -> usize {
        self.width
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.width, "residual input length");
        let mut branch = self.bias.clone();
        for (u, slot) in branch.iter_mut().enumerate() {
            let row = &self.weights[u * self.width..(u + 1) * self.width];
            let mut acc = 0.0f32;
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            *slot += acc;
        }
        self.activation.apply(&mut branch, self.width);
        let out: Vec<f32> = branch.iter().zip(input).map(|(&b, &x)| b + x).collect();
        self.cached_input = input.to_vec();
        self.cached_branch = branch;
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.width, "residual grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let mut dz = grad_output.to_vec();
        self.activation
            .backward(&self.cached_branch, &mut dz, self.width);
        // Skip connection passes the gradient straight through.
        let mut grad_in = if input_grad {
            grad_output.to_vec()
        } else {
            Vec::new()
        };
        for (u, &g) in dz.iter().enumerate() {
            self.grad_bias[u] += g;
            let row = &self.weights[u * self.width..(u + 1) * self.width];
            let gw = &mut self.grad_weights[u * self.width..(u + 1) * self.width];
            for (gw_k, &x) in gw.iter_mut().zip(&self.cached_input) {
                *gw_k += g * x;
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
            kind: "ResidualDense".into(),
            output_shape: format!("{}", self.width),
            config: format!("width={}", self.width),
            activation: self.activation.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![self.weights.clone(), self.bias.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self { weights, bias, .. } = self;
        import_into("ResidualDense", &mut [weights, bias], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(31)
    }

    #[test]
    fn highway_initially_prefers_carry() {
        // With the gate bias at -1 and small weights, the output should
        // stay close to the input.
        let mut layer = Highway::new(6, Activation::Tanh, &mut rng()).unwrap();
        let x: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.9).collect();
        let y = layer.forward(&x, false);
        let drift: f32 = y.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        assert!(drift < 1.5, "drift {drift}");
    }

    #[test]
    fn highway_param_count() {
        let layer = Highway::new(8, Activation::Relu, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 2 * (8 * 8 + 8));
    }

    #[test]
    fn highway_backward_matches_numeric() {
        let mut layer = Highway::new(4, Activation::Tanh, &mut rng()).unwrap();
        let input = [0.2f32, -0.5, 0.8, 0.1];
        let upstream = [1.0f32, -0.5, 0.3, 2.0];
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);
        let loss = |l: &mut Highway, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut hi = input;
            hi[i] += eps;
            let mut lo = input;
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn residual_passes_identity_at_zero_weights() {
        let mut layer = ResidualDense::new(3, Activation::Relu, &mut rng()).unwrap();
        layer
            .import_params(&[vec![0.0; 9], vec![0.0; 3]])
            .unwrap();
        let x = [1.0, -2.0, 3.0];
        assert_eq!(layer.forward(&x, false), x.to_vec());
    }

    #[test]
    fn residual_backward_matches_numeric() {
        let mut layer = ResidualDense::new(3, Activation::Selu, &mut rng()).unwrap();
        let input = [0.4f32, -0.2, 0.7];
        let upstream = [1.5f32, -1.0, 0.5];
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);
        let loss = |l: &mut ResidualDense, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..3 {
            let mut hi = input;
            hi[i] += eps;
            let mut lo = input;
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn zero_width_rejected() {
        assert!(Highway::new(0, Activation::Relu, &mut rng()).is_err());
        assert!(ResidualDense::new(0, Activation::Relu, &mut rng()).is_err());
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = Highway::new(5, Activation::Relu, &mut rng()).unwrap();
        let mut b = Highway::new(5, Activation::Relu, &mut ChaCha8Rng::seed_from_u64(77)).unwrap();
        b.import_params(&a.export_params()).unwrap();
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }
}

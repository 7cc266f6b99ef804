//! 1-D pooling layers (channels-first layout, valid padding).

use crate::layers::{conv_output_len, Layer, LayerSummary};
use crate::NeuralError;

/// Max pooling over non-overlapping or strided windows.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    channels: usize,
    in_len: usize,
    pool: usize,
    stride: usize,
    out_len: usize,
    /// Argmax index per output element, for backward routing.
    cached_argmax: Vec<usize>,
}

impl MaxPool1d {
    /// Creates a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] on zero dimensions or a pool
    /// window larger than the input.
    pub fn new(channels: usize, in_len: usize, pool: usize, stride: usize) -> Result<Self, NeuralError> {
        if channels == 0 {
            return Err(NeuralError::InvalidSpec("pooling needs channels".into()));
        }
        let out_len = conv_output_len(in_len, pool, stride)?;
        Ok(Self {
            channels,
            in_len,
            pool,
            stride,
            out_len,
            cached_argmax: Vec::new(),
        })
    }
}

impl Layer for MaxPool1d {
    fn kind(&self) -> &'static str {
        "MaxPool1D"
    }

    fn input_len(&self) -> usize {
        self.channels * self.in_len
    }

    fn output_len(&self) -> usize {
        self.channels * self.out_len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "maxpool input length");
        let mut out = vec![0.0f32; self.output_len()];
        self.cached_argmax = vec![0; self.output_len()];
        for c in 0..self.channels {
            for op in 0..self.out_len {
                let start = c * self.in_len + op * self.stride;
                let window = &input[start..start + self.pool];
                // Panic-free tie-last max (same selection as
                // `max_by(partial_cmp)` on finite values; non-finite
                // entries are skipped instead of panicking).
                let mut k = 0usize;
                let mut v = f32::NEG_INFINITY;
                for (j, &x) in window.iter().enumerate() {
                    if x >= v {
                        v = x;
                        k = j;
                    }
                }
                out[c * self.out_len + op] = v;
                self.cached_argmax[c * self.out_len + op] = start + k;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_len(), "maxpool grad length");
        assert!(
            !self.cached_argmax.is_empty(),
            "backward called before forward"
        );
        if !input_grad {
            return Vec::new();
        }
        let mut grad_in = vec![0.0f32; self.input_len()];
        for (g, &src) in grad_output.iter().zip(&self.cached_argmax) {
            grad_in[src] += g;
        }
        grad_in
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "MaxPool1D".into(),
            output_shape: format!("{} x {}", self.channels, self.out_len),
            config: format!("pool={} stride={}", self.pool, self.stride),
            activation: String::new(),
            parameters: 0,
        }
    }
}

/// Average pooling over strided windows.
#[derive(Debug, Clone)]
pub struct AvgPool1d {
    channels: usize,
    in_len: usize,
    pool: usize,
    stride: usize,
    out_len: usize,
    ran_forward: bool,
}

impl AvgPool1d {
    /// Creates an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] on zero dimensions or a pool
    /// window larger than the input.
    pub fn new(channels: usize, in_len: usize, pool: usize, stride: usize) -> Result<Self, NeuralError> {
        if channels == 0 {
            return Err(NeuralError::InvalidSpec("pooling needs channels".into()));
        }
        let out_len = conv_output_len(in_len, pool, stride)?;
        Ok(Self {
            channels,
            in_len,
            pool,
            stride,
            out_len,
            ran_forward: false,
        })
    }
}

impl Layer for AvgPool1d {
    fn kind(&self) -> &'static str {
        "AvgPool1D"
    }

    fn input_len(&self) -> usize {
        self.channels * self.in_len
    }

    fn output_len(&self) -> usize {
        self.channels * self.out_len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "avgpool input length");
        self.ran_forward = true;
        let mut out = vec![0.0f32; self.output_len()];
        let inv = 1.0 / self.pool as f32;
        for c in 0..self.channels {
            for op in 0..self.out_len {
                let start = c * self.in_len + op * self.stride;
                let sum: f32 = input[start..start + self.pool].iter().sum();
                out[c * self.out_len + op] = sum * inv;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_len(), "avgpool grad length");
        assert!(self.ran_forward, "backward called before forward");
        if !input_grad {
            return Vec::new();
        }
        let mut grad_in = vec![0.0f32; self.input_len()];
        let inv = 1.0 / self.pool as f32;
        for c in 0..self.channels {
            for op in 0..self.out_len {
                let g = grad_output[c * self.out_len + op] * inv;
                let start = c * self.in_len + op * self.stride;
                for slot in grad_in[start..start + self.pool].iter_mut() {
                    *slot += g;
                }
            }
        }
        grad_in
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "AvgPool1D".into(),
            output_shape: format!("{} x {}", self.channels, self.out_len),
            config: format!("pool={} stride={}", self.pool, self.stride),
            activation: String::new(),
            parameters: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let mut layer = MaxPool1d::new(1, 6, 2, 2).unwrap();
        let out = layer.forward(&[1.0, 5.0, 2.0, 2.0, 9.0, 3.0], false);
        assert_eq!(out, vec![5.0, 2.0, 9.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut layer = MaxPool1d::new(1, 4, 2, 2).unwrap();
        layer.forward(&[1.0, 5.0, 7.0, 2.0], false);
        let grad = layer.backward(&[1.0, 2.0], true);
        assert_eq!(grad, vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn maxpool_multi_channel() {
        let mut layer = MaxPool1d::new(2, 4, 2, 2).unwrap();
        let out = layer.forward(&[1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], false);
        assert_eq!(out, vec![2.0, 4.0, 8.0, 6.0]);
    }

    #[test]
    fn avgpool_averages() {
        let mut layer = AvgPool1d::new(1, 4, 2, 2).unwrap();
        let out = layer.forward(&[1.0, 3.0, 5.0, 7.0], false);
        assert_eq!(out, vec![2.0, 6.0]);
    }

    #[test]
    fn avgpool_backward_spreads_evenly() {
        let mut layer = AvgPool1d::new(1, 4, 2, 2).unwrap();
        layer.forward(&[1.0, 3.0, 5.0, 7.0], false);
        let grad = layer.backward(&[2.0, 4.0], true);
        assert_eq!(grad, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn overlapping_stride_counts_twice() {
        let mut layer = AvgPool1d::new(1, 3, 2, 1).unwrap();
        layer.forward(&[1.0, 2.0, 3.0], false);
        let grad = layer.backward(&[2.0, 2.0], true);
        // Middle sample belongs to both windows.
        assert_eq!(grad, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn pools_have_no_params() {
        let max = MaxPool1d::new(2, 8, 2, 2).unwrap();
        let avg = AvgPool1d::new(2, 8, 2, 2).unwrap();
        assert_eq!(max.param_count(), 0);
        assert_eq!(avg.param_count(), 0);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(MaxPool1d::new(0, 8, 2, 2).is_err());
        assert!(MaxPool1d::new(1, 2, 3, 1).is_err());
        assert!(AvgPool1d::new(1, 8, 2, 0).is_err());
    }
}

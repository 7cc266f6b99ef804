//! Inverted dropout.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers::{Layer, LayerSummary};
use crate::NeuralError;

/// Inverted dropout: during training each unit is zeroed with probability
/// `rate` and survivors are scaled by `1 / (1 - rate)`; at inference the
/// layer is the identity.
#[derive(Debug, Clone)]
pub struct Dropout {
    len: usize,
    rate: f32,
    rng: ChaCha8Rng,
    cached_mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if `rate` is outside `[0, 1)`
    /// or `len` is zero.
    pub fn new(len: usize, rate: f32, seed: u64) -> Result<Self, NeuralError> {
        if len == 0 {
            return Err(NeuralError::InvalidSpec("dropout needs a length".into()));
        }
        if !(0.0..1.0).contains(&rate) {
            return Err(NeuralError::InvalidSpec(format!(
                "dropout rate {rate} must lie in [0, 1)"
            )));
        }
        Ok(Self {
            len,
            rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
            cached_mask: Vec::new(),
        })
    }
}

impl Layer for Dropout {
    fn kind(&self) -> &'static str {
        "Dropout"
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    fn forward(&mut self, input: &[f32], training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.len, "dropout input length");
        if !training || self.rate == 0.0 {
            self.cached_mask = vec![1.0; self.len];
            return input.to_vec();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.cached_mask = (0..self.len)
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        input
            .iter()
            .zip(&self.cached_mask)
            .map(|(x, m)| x * m)
            .collect()
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.len, "dropout grad length");
        assert!(
            !self.cached_mask.is_empty(),
            "backward called before forward"
        );
        if !input_grad {
            return Vec::new();
        }
        grad_output
            .iter()
            .zip(&self.cached_mask)
            .map(|(g, m)| g * m)
            .collect()
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "Dropout".into(),
            output_shape: format!("{}", self.len),
            config: format!("rate={}", self.rate),
            activation: String::new(),
            parameters: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut layer = Dropout::new(4, 0.5, 1).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(layer.forward(&x, false), x.to_vec());
    }

    #[test]
    fn training_zeroes_roughly_rate_fraction() {
        let mut layer = Dropout::new(10_000, 0.3, 2).unwrap();
        let x = vec![1.0; 10_000];
        let out = layer.forward(&x, true);
        let zeroed = out.iter().filter(|&&v| v == 0.0).count();
        assert!((zeroed as f64 / 10_000.0 - 0.3).abs() < 0.03);
        // Survivors are scaled to preserve the expectation.
        let survivors: Vec<f32> = out.iter().copied().filter(|&v| v != 0.0).collect();
        assert!(survivors.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut layer = Dropout::new(64, 0.5, 3).unwrap();
        let x = vec![1.0; 64];
        let out = layer.forward(&x, true);
        let grad = layer.backward(&vec![1.0; 64], true);
        for (o, g) in out.iter().zip(&grad) {
            assert_eq!(o, g);
        }
    }

    #[test]
    fn invalid_rate_rejected() {
        assert!(Dropout::new(4, 1.0, 0).is_err());
        assert!(Dropout::new(4, -0.1, 0).is_err());
        assert!(Dropout::new(0, 0.5, 0).is_err());
    }
}

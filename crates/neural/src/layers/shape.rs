//! Shape-bookkeeping layers: flatten and reshape.
//!
//! Our samples are flat `f32` slices, so these layers are data no-ops —
//! they exist so that network specs and summaries mirror the paper's
//! Table 1 (which lists explicit Reshape and Flatten rows) and so the
//! shape metadata (channels × length) flows correctly between layers.

use crate::layers::{Layer, LayerSummary};
use crate::NeuralError;

/// Flattens `channels × length` into a single vector (identity on data).
#[derive(Debug, Clone)]
pub struct Flatten {
    channels: usize,
    len: usize,
}

impl Flatten {
    /// Creates a flatten layer for a `channels × length` input.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if either dimension is zero.
    pub fn new(channels: usize, len: usize) -> Result<Self, NeuralError> {
        if channels == 0 || len == 0 {
            return Err(NeuralError::InvalidSpec(
                "flatten dimensions must be non-zero".into(),
            ));
        }
        Ok(Self { channels, len })
    }
}

impl Layer for Flatten {
    fn kind(&self) -> &'static str {
        "Flatten"
    }

    fn input_len(&self) -> usize {
        self.channels * self.len
    }

    fn output_len(&self) -> usize {
        self.channels * self.len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "flatten input length");
        input.to_vec()
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_len(), "flatten grad length");
        if input_grad {
            grad_output.to_vec()
        } else {
            Vec::new()
        }
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "Flatten".into(),
            output_shape: format!("{}", self.channels * self.len),
            config: format!("{} x {}", self.channels, self.len),
            activation: String::new(),
            parameters: 0,
        }
    }
}

/// Reshapes a flat vector into `channels × length` (identity on data) —
/// the paper's layer 2 that turns the raw spectrum into a 1-channel
/// sequence for the first convolution.
#[derive(Debug, Clone)]
pub struct Reshape {
    channels: usize,
    len: usize,
}

impl Reshape {
    /// Creates a reshape layer producing `channels × length`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if either dimension is zero.
    pub fn new(channels: usize, len: usize) -> Result<Self, NeuralError> {
        if channels == 0 || len == 0 {
            return Err(NeuralError::InvalidSpec(
                "reshape dimensions must be non-zero".into(),
            ));
        }
        Ok(Self { channels, len })
    }
}

impl Layer for Reshape {
    fn kind(&self) -> &'static str {
        "Reshape"
    }

    fn input_len(&self) -> usize {
        self.channels * self.len
    }

    fn output_len(&self) -> usize {
        self.channels * self.len
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "reshape input length");
        input.to_vec()
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.output_len(), "reshape grad length");
        if input_grad {
            grad_output.to_vec()
        } else {
            Vec::new()
        }
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "Reshape".into(),
            output_shape: format!("{} x {}", self.channels, self.len),
            config: String::new(),
            activation: String::new(),
            parameters: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_is_identity_on_data() {
        let mut layer = Flatten::new(2, 3).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(layer.forward(&x, false), x.to_vec());
        assert_eq!(layer.backward(&x, true), x.to_vec());
    }

    #[test]
    fn reshape_is_identity_on_data() {
        let mut layer = Reshape::new(1, 4).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(layer.forward(&x, false), x.to_vec());
    }

    #[test]
    fn summaries_describe_shapes() {
        let f = Flatten::new(15, 10).unwrap();
        assert_eq!(f.summary().output_shape, "150");
        let r = Reshape::new(1, 397).unwrap();
        assert_eq!(r.summary().output_shape, "1 x 397");
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(Flatten::new(0, 3).is_err());
        assert!(Reshape::new(3, 0).is_err());
    }
}

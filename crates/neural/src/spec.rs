//! Config-driven network topologies.
//!
//! The paper's Tool 4 "allow\[s\] the definition of one or more network
//! topologies ... without modifying the source code" (§III.A.2). A
//! [`NetworkSpec`] is a serde-serializable description that builds a
//! [`Network`]; specs travel through the datastore and the export format.

use serde::{Deserialize, Serialize};

use crate::layers::{
    AvgPool1d, Conv1d, Dense, Dropout, Flatten, Highway, Layer, LocallyConnected1d, Lstm,
    MaxPool1d, Reshape, ResidualDense,
};
use crate::{Activation, Network, NeuralError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One layer of a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Reinterpret the flat input as `channels × (len / channels)`.
    Reshape {
        /// Number of channels.
        channels: usize,
    },
    /// Strided 1-D convolution.
    Conv1d {
        /// Output channels.
        filters: usize,
        /// Kernel width.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Activation.
        activation: Activation,
    },
    /// Locally connected 1-D layer (unshared kernels).
    LocallyConnected1d {
        /// Output channels.
        filters: usize,
        /// Kernel width.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Activation.
        activation: Activation,
    },
    /// Max pooling.
    MaxPool1d {
        /// Window size.
        pool: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling.
    AvgPool1d {
        /// Window size.
        pool: usize,
        /// Stride.
        stride: usize,
    },
    /// Flatten `channels × len` to a vector.
    Flatten,
    /// Fully connected layer.
    Dense {
        /// Output units.
        units: usize,
        /// Activation.
        activation: Activation,
    },
    /// Inverted dropout.
    Dropout {
        /// Drop probability in `[0, 1)`.
        rate: f32,
    },
    /// Highway layer (width = current flat length).
    Highway {
        /// Candidate-branch activation.
        activation: Activation,
    },
    /// Residual dense block (width = current flat length).
    ResidualDense {
        /// Branch activation.
        activation: Activation,
    },
    /// LSTM over `timesteps`, each of `len / timesteps` features,
    /// returning the last hidden state.
    Lstm {
        /// Hidden units.
        units: usize,
        /// Sequence length.
        timesteps: usize,
    },
}

/// A complete, buildable network description.
///
/// # Example
///
/// The paper's Table 1 network for an 8-substance measurement task:
///
/// ```
/// use neural::spec::{LayerSpec, NetworkSpec};
/// use neural::Activation;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let spec = NetworkSpec::new(397)
///     .layer(LayerSpec::Reshape { channels: 1 })
///     .layer(LayerSpec::Conv1d { filters: 25, kernel: 20, stride: 1, activation: Activation::Selu })
///     .layer(LayerSpec::Conv1d { filters: 25, kernel: 20, stride: 3, activation: Activation::Selu })
///     .layer(LayerSpec::Conv1d { filters: 25, kernel: 15, stride: 2, activation: Activation::Selu })
///     .layer(LayerSpec::Conv1d { filters: 15, kernel: 15, stride: 4, activation: Activation::Softmax })
///     .layer(LayerSpec::Flatten)
///     .layer(LayerSpec::Dense { units: 8, activation: Activation::Softmax });
/// let net = spec.build(42)?;
/// assert_eq!(net.output_len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Flat input length.
    pub input_len: usize,
    /// Ordered layer specifications.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Starts a spec for inputs of `input_len` values.
    pub fn new(input_len: usize) -> Self {
        Self {
            input_len,
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn layer(mut self, layer: LayerSpec) -> Self {
        self.layers.push(layer);
        self
    }

    /// Builds the network with weights seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if any layer is inconsistent
    /// with the running shape (e.g. reshape channels not dividing the
    /// length, kernel larger than input, LSTM timesteps not dividing).
    pub fn build(&self, seed: u64) -> Result<Network, NeuralError> {
        if self.input_len == 0 {
            return Err(NeuralError::InvalidSpec("input length is zero".into()));
        }
        if self.layers.is_empty() {
            return Err(NeuralError::InvalidSpec("spec has no layers".into()));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut network = Network::new();
        // Running shape: channels × len (flat = 1 × len).
        let mut channels = 1usize;
        let mut len = self.input_len;
        for (i, layer) in self.layers.iter().enumerate() {
            let invalid = |msg: String| NeuralError::InvalidSpec(format!("layer {i}: {msg}"));
            match *layer {
                LayerSpec::Reshape { channels: ch } => {
                    let total = channels * len;
                    if ch == 0 || !total.is_multiple_of(ch) {
                        return Err(invalid(format!("cannot reshape {total} into {ch} channels")));
                    }
                    channels = ch;
                    len = total / ch;
                    network
                        .push(Box::new(Reshape::new(channels, len)?))
                        .expect("shape-checked");
                }
                LayerSpec::Conv1d {
                    filters,
                    kernel,
                    stride,
                    activation,
                } => {
                    let conv =
                        Conv1d::new(channels, len, filters, kernel, stride, activation, &mut rng)
                            .map_err(|e| invalid(e.to_string()))?;
                    channels = filters;
                    len = conv.out_len();
                    network.push(Box::new(conv)).expect("shape-checked");
                }
                LayerSpec::LocallyConnected1d {
                    filters,
                    kernel,
                    stride,
                    activation,
                } => {
                    let local = LocallyConnected1d::new(
                        channels, len, filters, kernel, stride, activation, &mut rng,
                    )
                    .map_err(|e| invalid(e.to_string()))?;
                    channels = filters;
                    len = local.out_len();
                    network.push(Box::new(local)).expect("shape-checked");
                }
                LayerSpec::MaxPool1d { pool, stride } => {
                    let layer = MaxPool1d::new(channels, len, pool, stride)
                        .map_err(|e| invalid(e.to_string()))?;
                    len = layer.output_len() / channels;
                    network.push(Box::new(layer)).expect("shape-checked");
                }
                LayerSpec::AvgPool1d { pool, stride } => {
                    let layer = AvgPool1d::new(channels, len, pool, stride)
                        .map_err(|e| invalid(e.to_string()))?;
                    len = layer.output_len() / channels;
                    network.push(Box::new(layer)).expect("shape-checked");
                }
                LayerSpec::Flatten => {
                    network
                        .push(Box::new(Flatten::new(channels, len)?))
                        .expect("shape-checked");
                    len *= channels;
                    channels = 1;
                }
                LayerSpec::Dense { units, activation } => {
                    let input = channels * len;
                    let dense = Dense::new(input, units, activation, &mut rng)
                        .map_err(|e| invalid(e.to_string()))?;
                    network.push(Box::new(dense)).expect("shape-checked");
                    channels = 1;
                    len = units;
                }
                LayerSpec::Highway { activation } => {
                    let layer = Highway::new(channels * len, activation, &mut rng)
                        .map_err(|e| invalid(e.to_string()))?;
                    network.push(Box::new(layer)).expect("shape-checked");
                    len *= channels;
                    channels = 1;
                }
                LayerSpec::ResidualDense { activation } => {
                    let layer = ResidualDense::new(channels * len, activation, &mut rng)
                        .map_err(|e| invalid(e.to_string()))?;
                    network.push(Box::new(layer)).expect("shape-checked");
                    len *= channels;
                    channels = 1;
                }
                LayerSpec::Dropout { rate } => {
                    let layer = Dropout::new(channels * len, rate, seed ^ (i as u64))
                        .map_err(|e| invalid(e.to_string()))?;
                    network.push(Box::new(layer)).expect("shape-checked");
                }
                LayerSpec::Lstm { units, timesteps } => {
                    let total = channels * len;
                    if timesteps == 0 || !total.is_multiple_of(timesteps) {
                        return Err(invalid(format!(
                            "lstm timesteps {timesteps} must divide input {total}"
                        )));
                    }
                    let features = total / timesteps;
                    let lstm = Lstm::new(timesteps, features, units, &mut rng)
                        .map_err(|e| invalid(e.to_string()))?;
                    network.push(Box::new(lstm)).expect("shape-checked");
                    channels = 1;
                    len = units;
                }
            }
        }
        Ok(network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_spec(outputs: usize) -> NetworkSpec {
        NetworkSpec::new(397)
            .layer(LayerSpec::Reshape { channels: 1 })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 20,
                stride: 1,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 20,
                stride: 3,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::Conv1d {
                filters: 25,
                kernel: 15,
                stride: 2,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::Conv1d {
                filters: 15,
                kernel: 15,
                stride: 4,
                activation: Activation::Softmax,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense {
                units: outputs,
                activation: Activation::Softmax,
            })
    }

    #[test]
    fn table1_network_builds_with_paper_shapes() {
        let net = table1_spec(8).build(1).unwrap();
        let rows = net.summary();
        // rows: [Reshape, Conv, Conv, Conv, Conv, Flatten, Dense]
        assert_eq!(rows[1].output_shape, "25 x 378");
        assert_eq!(rows[2].output_shape, "25 x 120");
        assert_eq!(rows[3].output_shape, "25 x 53");
        assert_eq!(rows[4].output_shape, "15 x 10");
        assert_eq!(rows[5].output_shape, "150");
        assert_eq!(rows[6].output_shape, "8");
    }

    #[test]
    fn nmr_cnn_has_exactly_10532_params() {
        let net = NetworkSpec::new(1700)
            .layer(LayerSpec::LocallyConnected1d {
                filters: 4,
                kernel: 9,
                stride: 9,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense {
                units: 4,
                activation: Activation::Linear,
            })
            .build(1)
            .unwrap();
        assert_eq!(net.param_count(), 10_532);
    }

    #[test]
    fn nmr_lstm_has_exactly_221956_params() {
        let net = NetworkSpec::new(5 * 1700)
            .layer(LayerSpec::Lstm {
                units: 32,
                timesteps: 5,
            })
            .layer(LayerSpec::Dense {
                units: 4,
                activation: Activation::Linear,
            })
            .build(1)
            .unwrap();
        assert_eq!(net.param_count(), 221_956);
    }

    #[test]
    fn forward_through_built_network() {
        let mut net = table1_spec(8).build(2).unwrap();
        let out = net.predict(&vec![0.1; 397]);
        assert_eq!(out.len(), 8);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "softmax output sums to {sum}");
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let mut a = table1_spec(4).build(9).unwrap();
        let mut b = table1_spec(4).build(9).unwrap();
        let x = vec![0.05; 397];
        assert_eq!(a.predict(&x), b.predict(&x));
        let mut c = table1_spec(4).build(10).unwrap();
        assert_ne!(a.predict(&x), c.predict(&x));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(NetworkSpec::new(0).layer(LayerSpec::Flatten).build(1).is_err());
        assert!(NetworkSpec::new(4).build(1).is_err());
        // Reshape that does not divide.
        assert!(NetworkSpec::new(5)
            .layer(LayerSpec::Reshape { channels: 2 })
            .build(1)
            .is_err());
        // LSTM timesteps not dividing.
        assert!(NetworkSpec::new(10)
            .layer(LayerSpec::Lstm {
                units: 4,
                timesteps: 3
            })
            .build(1)
            .is_err());
        // Kernel larger than input.
        assert!(NetworkSpec::new(5)
            .layer(LayerSpec::Conv1d {
                filters: 1,
                kernel: 9,
                stride: 1,
                activation: Activation::Linear
            })
            .build(1)
            .is_err());
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = table1_spec(8);
        let json = serde_json::to_string(&spec).unwrap();
        let back: NetworkSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn pooling_layers_build() {
        let net = NetworkSpec::new(16)
            .layer(LayerSpec::Reshape { channels: 1 })
            .layer(LayerSpec::Conv1d {
                filters: 2,
                kernel: 3,
                stride: 1,
                activation: Activation::Relu,
            })
            .layer(LayerSpec::MaxPool1d { pool: 2, stride: 2 })
            .layer(LayerSpec::AvgPool1d { pool: 2, stride: 2 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dropout { rate: 0.2 })
            .layer(LayerSpec::Dense {
                units: 3,
                activation: Activation::Softmax,
            })
            .build(5)
            .unwrap();
        assert_eq!(net.output_len(), 3);
    }
}

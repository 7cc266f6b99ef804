//! Frozen inference plans: immutable, shareable forward-only networks.
//!
//! [`crate::Network`] is a training object — every layer owns gradient
//! buffers and forward caches, so `predict` needs `&mut self` and a
//! network cannot be shared between threads. A [`FrozenPlan`] is the
//! deployment counterpart: compiled once from an exported artifact, it
//! holds nothing but pre-resolved layer shapes and the batched kernels'
//! packed weights (see [`crate::kernels`]), all methods take `&self`,
//! and the plan is `Send + Sync` — one `Arc` serves any number of
//! worker threads (the `serve` crate's engine is built on exactly this
//! property).
//!
//! Every prediction — [`FrozenPlan::predict`] for one sample, or
//! [`FrozenPlan::predict_batch`] / [`FrozenPlan::predict_batch_scratch`]
//! for a contiguous block — runs the same cache-blocked vectorized
//! kernels, so a single-sample prediction equals the matching row of a
//! batched one bit for bit. The kernels re-associate accumulation
//! relative to the layers' training-time forward pass, so plan outputs
//! are *tolerance-equal* (max-abs-error ≤ 1e-4), not bit-equal, to
//! [`crate::Network::predict`], which stays the one forward reference:
//! `neural/tests/kernel_equivalence.rs` differentially pins the plan to
//! it, and `serve_load` in the bench crate gates the serving tier on it
//! end to end.
//!
//! # Example
//!
//! ```
//! use neural::export::ExportedNetwork;
//! use neural::kernels::max_abs_divergence;
//! use neural::plan::FrozenPlan;
//! use neural::spec::{LayerSpec, NetworkSpec};
//! use neural::Activation;
//!
//! # fn main() -> Result<(), neural::NeuralError> {
//! let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
//!     units: 2,
//!     activation: Activation::Softmax,
//! });
//! let mut net = spec.build(3)?;
//! let exported = ExportedNetwork::from_network(spec, &net, "demo");
//! let plan = FrozenPlan::compile(&exported)?;
//! let x = [0.1, 0.2, 0.3, 0.4];
//! assert!(max_abs_divergence(&plan.predict(&x)?, &net.predict(&x)) <= 1e-4);
//! # Ok(())
//! # }
//! ```

use crate::export::ExportedNetwork;
use crate::kernels::{self, gemm::pack_transposed, BatchKernel, Scratch, ScratchDims};
use crate::layers::conv_output_len;
use crate::spec::{LayerSpec, NetworkSpec};
use crate::NeuralError;

/// Expected parameter-tensor lengths for every layer of `spec`, in
/// [`crate::Network::export_weights`] order. Shared by plan compilation
/// and [`ExportedNetwork::validate`].
///
/// # Errors
///
/// Returns [`NeuralError::InvalidSpec`] if the spec itself is
/// inconsistent (same conditions as [`NetworkSpec::build`]).
pub fn expected_tensor_shapes(spec: &NetworkSpec) -> Result<Vec<Vec<usize>>, NeuralError> {
    let mut shapes = Vec::with_capacity(spec.layers.len());
    walk_spec(spec, |_, _, expected| shapes.push(expected))?;
    Ok(shapes)
}

/// Walks a spec layer by layer, resolving the running `channels × len`
/// shape exactly like [`NetworkSpec::build`], and hands each layer's spec,
/// resolved input shape and expected tensor lengths to `visit`.
fn walk_spec(
    spec: &NetworkSpec,
    mut visit: impl FnMut(&LayerSpec, (usize, usize), Vec<usize>),
) -> Result<(usize, usize), NeuralError> {
    if spec.input_len == 0 {
        return Err(NeuralError::InvalidSpec("input length is zero".into()));
    }
    if spec.layers.is_empty() {
        return Err(NeuralError::InvalidSpec("spec has no layers".into()));
    }
    let mut channels = 1usize;
    let mut len = spec.input_len;
    for (i, layer) in spec.layers.iter().enumerate() {
        let invalid = |msg: String| NeuralError::InvalidSpec(format!("layer {i}: {msg}"));
        let in_shape = (channels, len);
        let expected: Vec<usize> = match *layer {
            LayerSpec::Reshape { channels: ch } => {
                let total = channels * len;
                if ch == 0 || !total.is_multiple_of(ch) {
                    return Err(invalid(format!("cannot reshape {total} into {ch} channels")));
                }
                channels = ch;
                len = total / ch;
                Vec::new()
            }
            LayerSpec::Conv1d {
                filters,
                kernel,
                stride,
                ..
            } => {
                if filters == 0 {
                    return Err(invalid("conv1d filters must be non-zero".into()));
                }
                let out_len = conv_output_len(len, kernel, stride).map_err(|e| invalid(e.to_string()))?;
                let w = filters * channels * kernel;
                channels = filters;
                len = out_len;
                vec![w, filters]
            }
            LayerSpec::LocallyConnected1d {
                filters,
                kernel,
                stride,
                ..
            } => {
                if filters == 0 {
                    return Err(invalid("locally connected filters must be non-zero".into()));
                }
                let out_len = conv_output_len(len, kernel, stride).map_err(|e| invalid(e.to_string()))?;
                let w = out_len * filters * channels * kernel;
                let b = out_len * filters;
                channels = filters;
                len = out_len;
                vec![w, b]
            }
            LayerSpec::MaxPool1d { pool, stride } | LayerSpec::AvgPool1d { pool, stride } => {
                len = conv_output_len(len, pool, stride).map_err(|e| invalid(e.to_string()))?;
                Vec::new()
            }
            LayerSpec::Flatten => {
                len *= channels;
                channels = 1;
                Vec::new()
            }
            LayerSpec::Dense { units, .. } => {
                if units == 0 {
                    return Err(invalid("dense units must be non-zero".into()));
                }
                let input = channels * len;
                channels = 1;
                len = units;
                vec![input * units, units]
            }
            LayerSpec::Dropout { rate } => {
                if !(0.0..1.0).contains(&rate) {
                    return Err(invalid(format!("dropout rate {rate} must lie in [0, 1)")));
                }
                len *= channels;
                channels = 1;
                Vec::new()
            }
            LayerSpec::Highway { .. } => {
                let width = channels * len;
                channels = 1;
                len = width;
                vec![width * width, width, width * width, width]
            }
            LayerSpec::ResidualDense { .. } => {
                let width = channels * len;
                channels = 1;
                len = width;
                vec![width * width, width]
            }
            LayerSpec::Lstm { units, timesteps } => {
                let total = channels * len;
                if timesteps == 0 || !total.is_multiple_of(timesteps) {
                    return Err(invalid(format!(
                        "lstm timesteps {timesteps} must divide input {total}"
                    )));
                }
                if units == 0 {
                    return Err(invalid("lstm units must be non-zero".into()));
                }
                let features = total / timesteps;
                channels = 1;
                len = units;
                vec![4 * units * features, 4 * units * units, 4 * units]
            }
        };
        visit(layer, in_shape, expected);
    }
    Ok((channels, len))
}

/// Validates that `weights` (in [`crate::Network::export_weights`] layout)
/// fit `spec` tensor-by-tensor.
///
/// # Errors
///
/// Returns [`NeuralError::InvalidSpec`] if the spec is inconsistent, or
/// [`NeuralError::InvalidWeights`] naming the first offending layer.
pub fn validate_weights(spec: &NetworkSpec, weights: &[Vec<Vec<f32>>]) -> Result<(), NeuralError> {
    let shapes = expected_tensor_shapes(spec)?;
    if weights.len() != shapes.len() {
        return Err(NeuralError::InvalidWeights(format!(
            "expected {} layers, got {}",
            shapes.len(),
            weights.len()
        )));
    }
    for (i, (expected, actual)) in shapes.iter().zip(weights).enumerate() {
        if expected.len() != actual.len() {
            return Err(NeuralError::InvalidWeights(format!(
                "layer {i}: expected {} tensors, got {}",
                expected.len(),
                actual.len()
            )));
        }
        for (t, (&want, have)) in expected.iter().zip(actual).enumerate() {
            if have.len() != want {
                return Err(NeuralError::InvalidWeights(format!(
                    "layer {i} tensor {t}: expected {} values, got {}",
                    want,
                    have.len()
                )));
            }
        }
    }
    Ok(())
}

/// An immutable, forward-only compiled network: pre-resolved shapes and
/// packed kernel weights, no training state. `Send + Sync`; share via
/// `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenPlan {
    name: String,
    input_len: usize,
    output_len: usize,
    kernels: Vec<BatchKernel>,
    macs_per_op: Vec<u64>,
    scratch_dims: ScratchDims,
    parameter_count: usize,
}

impl FrozenPlan {
    /// Compiles an exported artifact into a frozen plan, validating the
    /// weights against the spec.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::UnsupportedFormat`] for artifacts from a
    /// newer export format, [`NeuralError::InvalidSpec`] /
    /// [`NeuralError::InvalidWeights`] for inconsistent topologies or
    /// tensors.
    pub fn compile(exported: &ExportedNetwork) -> Result<Self, NeuralError> {
        exported.validate()?;
        Self::from_spec_weights(&exported.name, &exported.spec, &exported.weights)
    }

    /// Compiles a spec + weight tensors (in
    /// [`crate::Network::export_weights`] layout) into a frozen plan,
    /// packing every weight matrix straight into the layout its batched
    /// kernel streams (see [`crate::kernels`]).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] or
    /// [`NeuralError::InvalidWeights`] as for [`FrozenPlan::compile`].
    pub fn from_spec_weights(
        name: &str,
        spec: &NetworkSpec,
        weights: &[Vec<Vec<f32>>],
    ) -> Result<Self, NeuralError> {
        validate_weights(spec, weights)?;
        let mut batch_kernels = Vec::with_capacity(spec.layers.len());
        let mut macs_per_op = Vec::with_capacity(spec.layers.len());
        let mut parameter_count = 0usize;
        walk_spec(spec, |layer, (channels, len), expected| {
            let tensors = &weights[batch_kernels.len()];
            let params: usize = expected.iter().sum();
            parameter_count += params;
            let kernel = compile_layer(layer, channels, len, tensors);
            // Same accounting as `Network::macs_per_inference`: shared
            // conv weights apply at every output position, LSTM weights
            // at every timestep, everything else once.
            let reuse = match kernel {
                BatchKernel::Conv1d { out_len, .. } => out_len,
                BatchKernel::Lstm { timesteps, .. } => timesteps,
                _ => 1,
            };
            macs_per_op.push((params * reuse) as u64);
            batch_kernels.push(kernel);
        })?;
        let output_len = batch_kernels.last().map_or(0, BatchKernel::out_len_total);
        let scratch_dims = ScratchDims::for_kernels(&batch_kernels);
        Ok(Self {
            name: name.to_string(),
            input_len: spec.input_len,
            output_len,
            kernels: batch_kernels,
            macs_per_op,
            scratch_dims,
            parameter_count,
        })
    }

    /// The model name carried over from the export.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected input length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Produced output length.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Total scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.parameter_count
    }

    /// Multiply–accumulate operations per inference, with the same
    /// accounting as [`crate::Network::macs_per_inference`].
    pub fn macs_per_inference(&self) -> u64 {
        self.macs_per_op.iter().sum()
    }

    /// Per-op MACs per inference, index-aligned with the kernel
    /// observer indices of [`Self::predict_batch_scratch`] — lets
    /// benches turn per-kernel wall time into GMAC/s per layer.
    pub fn macs_per_op(&self) -> Vec<u64> {
        self.macs_per_op.clone()
    }

    /// Runs one sample through the plan: the batched kernels at batch
    /// size one, so the output equals the matching row of any
    /// [`FrozenPlan::predict_batch`] call bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if `input` has the wrong
    /// length (the serving path wants an error, not a panic).
    pub fn predict(&self, input: &[f32]) -> Result<Vec<f32>, NeuralError> {
        if input.len() != self.input_len {
            return Err(NeuralError::ShapeMismatch {
                expected: self.input_len,
                actual: input.len(),
            });
        }
        let mut output = Vec::new();
        self.predict_batch(input, &mut output)?;
        Ok(output)
    }

    /// Runs a contiguous block of `inputs.len() / input_len` samples and
    /// appends their outputs contiguously to `outputs`. Returns the batch
    /// size.
    ///
    /// Uses a transient scratch arena; callers with a long-lived worker
    /// loop should prefer [`FrozenPlan::predict_batch_scratch`] to reuse
    /// the arena across batches.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if `inputs.len()` is not a
    /// non-zero multiple of [`FrozenPlan::input_len`].
    pub fn predict_batch(
        &self,
        inputs: &[f32],
        outputs: &mut Vec<f32>,
    ) -> Result<usize, NeuralError> {
        self.predict_batch_scratch(inputs, outputs, &mut Scratch::new(), &mut |_, _| {})
    }

    /// Like [`FrozenPlan::predict_batch`], reusing a caller-owned
    /// [`Scratch`] arena so the steady-state path performs zero heap
    /// allocation per batch (the `serve` engine keeps one arena per
    /// worker thread). `observe(kernel_index, kernel_name)` fires after
    /// each kernel finishes its whole batch; the bench harness wraps it
    /// with wall-clock timing to report per-layer kernel costs (the plan
    /// itself stays wall-clock-free for determinism). Pass
    /// `&mut |_, _| {}` to skip it.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] as
    /// [`FrozenPlan::predict_batch`] does.
    pub fn predict_batch_scratch(
        &self,
        inputs: &[f32],
        outputs: &mut Vec<f32>,
        scratch: &mut Scratch,
        observe: &mut dyn FnMut(usize, &'static str),
    ) -> Result<usize, NeuralError> {
        if inputs.is_empty() || !inputs.len().is_multiple_of(self.input_len) {
            return Err(NeuralError::ShapeMismatch {
                expected: self.input_len,
                actual: inputs.len(),
            });
        }
        let batch = inputs.len() / self.input_len;
        self.run_batched(batch, inputs, outputs, scratch, observe);
        Ok(batch)
    }

    /// The vectorized batched path over the compiled kernel sequence.
    fn run_batched(
        &self,
        batch: usize,
        inputs: &[f32],
        outputs: &mut Vec<f32>,
        scratch: &mut Scratch,
        observe: &mut dyn FnMut(usize, &'static str),
    ) {
        // lint: hot
        scratch.ensure(&self.scratch_dims, batch);
        let mut tracker = crate::checked::FiniteTracker::new(inputs);
        kernels::run_all(
            &self.kernels,
            batch,
            inputs,
            outputs,
            scratch,
            &mut |i, name, written| {
                tracker.check("FrozenPlan::predict_batch", i, written);
                observe(i, name);
            },
        );
    }
}

/// Compiles one layer of a validated spec, whose input is resolved to
/// `channels × len`, into its batched kernel, packing weight matrices
/// transposed into the k-major layout the vectorized kernels stream.
fn compile_layer(
    layer: &LayerSpec,
    channels: usize,
    len: usize,
    tensors: &[Vec<f32>],
) -> BatchKernel {
    match *layer {
        LayerSpec::Reshape { .. } | LayerSpec::Flatten | LayerSpec::Dropout { .. } => {
            BatchKernel::Identity {
                len: channels * len,
            }
        }
        LayerSpec::Conv1d {
            filters,
            kernel,
            stride,
            activation,
        } => BatchKernel::Conv1d {
            in_channels: channels,
            in_len: len,
            filters,
            kernel,
            stride,
            out_len: (len - kernel) / stride + 1,
            activation,
            w: kernels::conv::permute_sweep_order(filters, channels, kernel, stride, &tensors[0]),
            bias: tensors[1].clone(),
        },
        LayerSpec::LocallyConnected1d {
            filters,
            kernel,
            stride,
            activation,
        } => {
            let out_len = (len - kernel) / stride + 1;
            let k_len = channels * kernel;
            let mut wt = Vec::with_capacity(out_len * k_len * filters);
            for block in tensors[0].chunks_exact(filters * k_len) {
                wt.extend_from_slice(&pack_transposed(filters, k_len, block));
            }
            BatchKernel::Local1d {
                in_channels: channels,
                in_len: len,
                filters,
                kernel,
                stride,
                out_len,
                activation,
                wt,
                bias: tensors[1].clone(),
            }
        }
        LayerSpec::MaxPool1d { pool, stride } => BatchKernel::MaxPool {
            channels,
            in_len: len,
            pool,
            stride,
            out_len: (len - pool) / stride + 1,
        },
        LayerSpec::AvgPool1d { pool, stride } => BatchKernel::AvgPool {
            channels,
            in_len: len,
            pool,
            stride,
            out_len: (len - pool) / stride + 1,
        },
        LayerSpec::Dense { units, activation } => BatchKernel::Dense {
            input_len: channels * len,
            units,
            activation,
            wt: pack_transposed(units, channels * len, &tensors[0]),
            bias: tensors[1].clone(),
        },
        LayerSpec::Highway { activation } => {
            let width = channels * len;
            BatchKernel::Highway {
                width,
                activation,
                wt_h: pack_transposed(width, width, &tensors[0]),
                b_h: tensors[1].clone(),
                wt_t: pack_transposed(width, width, &tensors[2]),
                b_t: tensors[3].clone(),
            }
        }
        LayerSpec::ResidualDense { activation } => {
            let width = channels * len;
            BatchKernel::ResidualDense {
                width,
                activation,
                wt: pack_transposed(width, width, &tensors[0]),
                bias: tensors[1].clone(),
            }
        }
        LayerSpec::Lstm { units, timesteps } => {
            let features = channels * len / timesteps;
            BatchKernel::Lstm {
                timesteps,
                features,
                units,
                wt: pack_transposed(4 * units, features, &tensors[0]),
                ut: pack_transposed(4 * units, units, &tensors[1]),
                b: tensors[2].clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::Activation;

    /// A spec exercising every layer kind with parameters plus pooling,
    /// dropout and shape ops.
    fn kitchen_sink_spec() -> NetworkSpec {
        NetworkSpec::new(24)
            .layer(LayerSpec::Reshape { channels: 2 })
            .layer(LayerSpec::Conv1d {
                filters: 3,
                kernel: 3,
                stride: 1,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::MaxPool1d { pool: 2, stride: 2 })
            .layer(LayerSpec::AvgPool1d { pool: 2, stride: 1 })
            .layer(LayerSpec::LocallyConnected1d {
                filters: 2,
                kernel: 2,
                stride: 1,
                activation: Activation::Softmax,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dropout { rate: 0.4 })
            .layer(LayerSpec::Highway {
                activation: Activation::Tanh,
            })
            .layer(LayerSpec::ResidualDense {
                activation: Activation::Relu,
            })
            .layer(LayerSpec::Dense {
                units: 4,
                activation: Activation::Softmax,
            })
    }

    fn sample(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * 0.37).sin()).collect()
    }

    /// The batched kernels re-associate accumulation, so the plan is
    /// tolerance-equal to the `Network::predict` oracle.
    const TOL: f32 = 1e-4;

    #[test]
    fn plan_matches_network_bit_for_bit_on_all_layer_kinds() {
        // Plan vs network is a tolerance check; the bit-for-bit half is
        // plan-internal: a single-sample prediction equals the matching
        // row of a batched one exactly, on every layer kind.
        let spec = kitchen_sink_spec();
        let mut net = spec.build(17).unwrap();
        let plan = FrozenPlan::from_spec_weights("sink", &spec, &net.export_weights()).unwrap();
        let mut block = Vec::new();
        for seed in 0..5 {
            block.extend((0..24).map(|i| (((i + seed * 31) as f32) * 0.21).cos()));
        }
        let mut batched = Vec::new();
        assert_eq!(plan.predict_batch(&block, &mut batched).unwrap(), 5);
        let rows = batched.chunks_exact(plan.output_len());
        for (x, row) in block.chunks_exact(24).zip(rows) {
            let single = plan.predict(x).unwrap();
            assert_eq!(single, row, "predict must equal its batch row bit for bit");
            let err = kernels::max_abs_divergence(&single, &net.predict(x));
            assert!(err <= TOL, "plan drifted {err} from Network::predict");
        }
    }

    #[test]
    fn plan_matches_network_on_lstm() {
        let spec = NetworkSpec::new(20)
            .layer(LayerSpec::Lstm {
                units: 6,
                timesteps: 4,
            })
            .layer(LayerSpec::Dense {
                units: 3,
                activation: Activation::Linear,
            });
        let mut net = spec.build(9).unwrap();
        let plan = FrozenPlan::from_spec_weights("lstm", &spec, &net.export_weights()).unwrap();
        let x = sample(20);
        let err = kernels::max_abs_divergence(&plan.predict(&x).unwrap(), &net.predict(&x));
        assert!(err <= TOL, "plan drifted {err} from Network::predict");
    }

    #[test]
    fn batched_backend_is_default_and_stays_within_tolerance() {
        let spec = kitchen_sink_spec();
        let mut net = spec.build(3).unwrap();
        let plan = FrozenPlan::from_spec_weights("sink", &spec, &net.export_weights()).unwrap();
        let batch = 7;
        let mut block = Vec::new();
        for s in 0..batch {
            block.extend((0..24).map(|i| (((i * 7 + s * 13) as f32) * 0.11).sin()));
        }
        let mut out = Vec::new();
        assert_eq!(plan.predict_batch(&block, &mut out).unwrap(), batch);
        assert_eq!(out.len(), batch * plan.output_len());
        let mut expected = Vec::new();
        for x in block.chunks_exact(24) {
            expected.extend(net.predict(x));
        }
        let err = kernels::max_abs_divergence(&out, &expected);
        assert!(err <= TOL, "kernels drifted {err} from Network::predict");
        // Scratch reuse across differently-sized batches must not change
        // results.
        let mut scratch = Scratch::new();
        let mut big = Vec::new();
        plan.predict_batch_scratch(&block, &mut big, &mut scratch, &mut |_, _| {})
            .unwrap();
        let mut small = Vec::new();
        plan.predict_batch_scratch(&block[..24], &mut small, &mut scratch, &mut |_, _| {})
            .unwrap();
        assert_eq!(big, out);
        assert_eq!(&big[..plan.output_len()], small.as_slice());
    }

    #[test]
    fn instrumented_run_reports_every_kernel_in_order() {
        let spec = kitchen_sink_spec();
        let net = spec.build(3).unwrap();
        let plan = FrozenPlan::from_spec_weights("sink", &spec, &net.export_weights()).unwrap();
        let block = sample(24 * 2);
        let mut out = Vec::new();
        let mut scratch = Scratch::new();
        let mut seen = Vec::new();
        plan.predict_batch_scratch(&block, &mut out, &mut scratch, &mut |i, name| {
            seen.push((i, name));
        })
        .unwrap();
        assert_eq!(seen.len(), spec.layers.len());
        assert_eq!(plan.macs_per_op().len(), seen.len());
        assert!(seen.iter().enumerate().all(|(i, (j, _))| i == *j));
        assert_eq!(seen[1].1, "conv1d");
        assert_eq!(seen.last().unwrap().1, "dense");
    }

    #[test]
    fn plan_metadata_matches_network() {
        let spec = kitchen_sink_spec();
        let net = spec.build(1).unwrap();
        let plan = FrozenPlan::from_spec_weights("m", &spec, &net.export_weights()).unwrap();
        assert_eq!(plan.input_len(), net.input_len());
        assert_eq!(plan.output_len(), net.output_len());
        assert_eq!(plan.parameter_count(), net.param_count());
        assert_eq!(plan.macs_per_inference(), net.macs_per_inference());
    }

    #[test]
    fn predict_rejects_wrong_shapes() {
        let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        });
        let net = spec.build(1).unwrap();
        let plan = FrozenPlan::from_spec_weights("m", &spec, &net.export_weights()).unwrap();
        assert!(matches!(
            plan.predict(&[0.0; 3]),
            Err(NeuralError::ShapeMismatch { expected: 4, actual: 3 })
        ));
        let mut out = Vec::new();
        assert!(plan.predict_batch(&[0.0; 7], &mut out).is_err());
        assert!(plan.predict_batch(&[], &mut out).is_err());
    }

    #[test]
    fn validate_weights_names_offending_layer() {
        let spec = kitchen_sink_spec();
        let net = spec.build(1).unwrap();
        let mut weights = net.export_weights();
        // Tamper with the dense layer's bias length.
        let last = weights.last_mut().unwrap();
        last[1].push(0.0);
        let err = validate_weights(&spec, &weights).unwrap_err();
        assert!(matches!(err, NeuralError::InvalidWeights(_)), "{err:?}");
        assert!(err.to_string().contains("layer 9"), "{err}");
    }

    #[test]
    fn validate_weights_rejects_wrong_layer_and_tensor_counts() {
        let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        });
        let net = spec.build(1).unwrap();
        let mut weights = net.export_weights();
        weights.pop();
        assert!(validate_weights(&spec, &weights).is_err());
        let mut weights = net.export_weights();
        weights[0].pop();
        assert!(validate_weights(&spec, &weights).is_err());
    }

    #[test]
    fn plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenPlan>();
    }

    #[test]
    fn expected_shapes_cover_every_layer() {
        let spec = kitchen_sink_spec();
        let shapes = expected_tensor_shapes(&spec).unwrap();
        assert_eq!(shapes.len(), spec.layers.len());
        let net = spec.build(1).unwrap();
        let exported = net.export_weights();
        for (expected, actual) in shapes.iter().zip(&exported) {
            assert_eq!(expected.len(), actual.len());
            for (want, have) in expected.iter().zip(actual) {
                assert_eq!(*want, have.len());
            }
        }
    }
}

//! Cache-blocked batched inference kernels for [`crate::plan::FrozenPlan`].
//!
//! [`crate::Network::predict`] evaluates each output element as a strict
//! left-to-right `f32` reduction, which is exact to the training-time
//! arithmetic but unvectorizable. These kernels are the plan's only
//! forward path: weights are packed *transposed* at plan-compile time so
//! the innermost loops become contiguous rank-1 updates over output
//! units (no reduction, no cross-iteration dependency), which LLVM
//! autovectorizes. All intermediates live in a caller-owned [`Scratch`]
//! arena so the steady-state forward pass performs zero heap allocation
//! per batch — the `serve` engine allocates one `Scratch` per worker at
//! startup and reuses it for every batch (enforced by the
//! `alloc-in-hot-path` lint rule plus an obs-counter test in
//! `serve/tests/stress.rs`).
//!
//! Because the kernels re-associate accumulation (same terms, different
//! parenthesization), their outputs are *not* bit-identical to
//! [`crate::Network::predict`]: they are gated by a max-abs-error
//! tolerance against it instead (see [`max_abs_divergence`],
//! `neural/tests/kernel_equivalence.rs` and DESIGN.md §15).

pub(crate) mod act;
pub(crate) mod conv;
pub(crate) mod gemm;
pub(crate) mod pool;
pub(crate) mod recurrent;

use crate::Activation;

/// Maximum absolute elementwise divergence between two equally-sized
/// output blocks, the metric the tolerance gate compares the kernels
/// against [`crate::Network::predict`] with.
///
/// Positions where both values are the same non-finite value (or both
/// NaN) count as zero divergence — the batched kernels must preserve
/// NaN-in → NaN-out parity, not NaN bit patterns. A position where only
/// one side is non-finite (or the two infinities differ in sign) counts
/// as infinite divergence.
pub fn max_abs_divergence(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut worst = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = if x.is_finite() && y.is_finite() {
            (x - y).abs()
        } else if (x.is_nan() && y.is_nan()) || x == y {
            0.0
        } else {
            f32::INFINITY
        };
        if d > worst {
            worst = d;
        }
    }
    worst
}

/// Per-batch buffer requirements of a compiled kernel sequence, all in
/// `f32` elements *per sample* (multiply by batch size at `ensure`
/// time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScratchDims {
    /// Widest intermediate any kernel reads or writes (covers ping,
    /// pong and aux, including the LSTM's `4 × units` gate block).
    pub max_width: usize,
    /// Largest single-sample conv scratch (the residue-deinterleave
    /// region for strided convs, and at least `filters` for the
    /// channelwise-softmax gather) — conv deinterleaves one sample at a
    /// time and otherwise streams the source directly.
    pub col_single: usize,
    /// Largest per-row gather width for locally-connected kernels
    /// (`in_channels × kernel`) — local1d gathers one window from every
    /// batch row at once.
    pub col_batch: usize,
    /// Hidden + cell state per sample (`2 × units` over all LSTMs).
    pub cell: usize,
}

impl ScratchDims {
    /// Computes the scratch requirements of a kernel sequence.
    pub(crate) fn for_kernels(kernels: &[BatchKernel]) -> Self {
        let mut dims = ScratchDims::default();
        for k in kernels {
            dims.max_width = dims.max_width.max(k.out_len_total());
            match k {
                BatchKernel::Conv1d {
                    in_channels,
                    in_len,
                    filters,
                    kernel,
                    stride,
                    out_len,
                    ..
                } => {
                    // Deinterleave region (strided convs only), plus a
                    // zero-padded `[k_len][PANEL]` pack panel for
                    // layers narrower than a tile; `max(filters)`: the
                    // channelwise-softmax finish reuses `col` as its
                    // per-position gather buffer.
                    let deint = if *stride > 1 {
                        in_channels * stride * in_len.div_ceil(*stride)
                    } else {
                        0
                    };
                    let panel = if *out_len < conv::PANEL {
                        in_channels * kernel * conv::PANEL
                    } else {
                        0
                    };
                    dims.col_single = dims.col_single.max((deint + panel).max(*filters));
                }
                BatchKernel::Local1d {
                    in_channels, kernel, ..
                } => {
                    dims.col_batch = dims.col_batch.max(in_channels * kernel);
                }
                BatchKernel::Lstm { units, .. } => {
                    dims.max_width = dims.max_width.max(4 * units);
                    dims.cell = dims.cell.max(2 * units);
                }
                _ => {}
            }
        }
        dims
    }
}

/// Preallocated arena for every intermediate of a batched forward pass.
///
/// Workers create one `Scratch` up front and reuse it across batches;
/// buffers grow monotonically to the high-water mark of the shapes they
/// have served and are never shrunk or reallocated in steady state.
/// Each growth bumps the `neural.scratch_grow` obs counter, which is
/// how the serving stress test proves the hot path stops allocating
/// after warm-up.
#[derive(Debug, Default)]
pub struct Scratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
    col: Vec<f32>,
    aux: Vec<f32>,
    cell: Vec<f32>,
}

impl Scratch {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows buffers (never shrinks) to fit `batch` samples of `dims`.
    pub(crate) fn ensure(&mut self, dims: &ScratchDims, batch: usize) {
        fn grow(buf: &mut Vec<f32>, want: usize, grew: &mut bool) {
            if buf.len() < want {
                buf.resize(want, 0.0);
                *grew = true;
            }
        }
        let width = batch * dims.max_width;
        let col = dims.col_single.max(batch * dims.col_batch);
        let mut grew = false;
        grow(&mut self.ping, width, &mut grew);
        grow(&mut self.pong, width, &mut grew);
        grow(&mut self.aux, width, &mut grew);
        grow(&mut self.col, col, &mut grew);
        grow(&mut self.cell, batch * dims.cell, &mut grew);
        if grew {
            obs::counter_add("neural.scratch_grow", 1);
        }
    }
}

/// One batched op of a compiled plan: pre-resolved shapes plus weights
/// packed transposed into the layout the k-major GEMM kernels stream.
#[derive(Debug, Clone)]
pub(crate) enum BatchKernel {
    /// Reshape / Flatten / eval-mode Dropout: batched copy.
    Identity { len: usize },
    /// Dense layer as a `batch × [input_len][units]` GEMM.
    Dense {
        input_len: usize,
        units: usize,
        activation: Activation,
        /// `[input_len][units]` packed transposed.
        wt: Vec<f32>,
        bias: Vec<f32>,
    },
    /// Conv1d as per-sample transposed im2col + GEMM (see [`conv`]).
    Conv1d {
        in_channels: usize,
        in_len: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        out_len: usize,
        activation: Activation,
        /// Row-major `[filters][in_channels * kernel]` weights with
        /// each row permuted into residue sweep order (see
        /// [`conv::permute_sweep_order`]) so the direct-conv
        /// microkernel reads filter rows sequentially.
        w: Vec<f32>,
        bias: Vec<f32>,
    },
    /// LocallyConnected1d as per-position batch GEMMs (see [`conv`]).
    Local1d {
        in_channels: usize,
        in_len: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        out_len: usize,
        activation: Activation,
        /// Per position: `[in_channels * kernel][filters]` packed
        /// transposed, concatenated position-major.
        wt: Vec<f32>,
        /// `[out_len * filters]`, position-major as exported.
        bias: Vec<f32>,
    },
    /// Max pooling (bit-identical to `MaxPool1d`).
    MaxPool {
        channels: usize,
        in_len: usize,
        pool: usize,
        stride: usize,
        out_len: usize,
    },
    /// Average pooling (bit-identical to `AvgPool1d`).
    AvgPool {
        channels: usize,
        in_len: usize,
        pool: usize,
        stride: usize,
        out_len: usize,
    },
    /// Highway layer: two GEMMs + elementwise gate blend.
    Highway {
        width: usize,
        activation: Activation,
        wt_h: Vec<f32>,
        b_h: Vec<f32>,
        wt_t: Vec<f32>,
        b_t: Vec<f32>,
    },
    /// Residual dense block: GEMM + activation + skip add.
    ResidualDense {
        width: usize,
        activation: Activation,
        wt: Vec<f32>,
        bias: Vec<f32>,
    },
    /// LSTM returning last hidden state (see [`recurrent`]).
    Lstm {
        timesteps: usize,
        features: usize,
        units: usize,
        /// `[features][4 * units]` packed transposed.
        wt: Vec<f32>,
        /// `[units][4 * units]` packed transposed.
        ut: Vec<f32>,
        b: Vec<f32>,
    },
}

impl BatchKernel {
    /// Input width per sample.
    pub(crate) fn in_len(&self) -> usize {
        match self {
            BatchKernel::Identity { len } => *len,
            BatchKernel::Dense { input_len, .. } => *input_len,
            BatchKernel::Conv1d {
                in_channels, in_len, ..
            }
            | BatchKernel::Local1d {
                in_channels, in_len, ..
            } => in_channels * in_len,
            BatchKernel::MaxPool {
                channels, in_len, ..
            }
            | BatchKernel::AvgPool {
                channels, in_len, ..
            } => channels * in_len,
            BatchKernel::Highway { width, .. } | BatchKernel::ResidualDense { width, .. } => *width,
            BatchKernel::Lstm {
                timesteps, features, ..
            } => timesteps * features,
        }
    }

    /// Output width per sample.
    pub(crate) fn out_len_total(&self) -> usize {
        match self {
            BatchKernel::Identity { len } => *len,
            BatchKernel::Dense { units, .. } => *units,
            BatchKernel::Conv1d {
                filters, out_len, ..
            }
            | BatchKernel::Local1d {
                filters, out_len, ..
            } => filters * out_len,
            BatchKernel::MaxPool {
                channels, out_len, ..
            }
            | BatchKernel::AvgPool {
                channels, out_len, ..
            } => channels * out_len,
            BatchKernel::Highway { width, .. } | BatchKernel::ResidualDense { width, .. } => *width,
            BatchKernel::Lstm { units, .. } => *units,
        }
    }

    /// Stable kernel name for per-layer timing reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            BatchKernel::Identity { .. } => "identity",
            BatchKernel::Dense { .. } => "dense",
            BatchKernel::Conv1d { .. } => "conv1d",
            BatchKernel::Local1d { .. } => "local1d",
            BatchKernel::MaxPool { .. } => "maxpool",
            BatchKernel::AvgPool { .. } => "avgpool",
            BatchKernel::Highway { .. } => "highway",
            BatchKernel::ResidualDense { .. } => "residual_dense",
            BatchKernel::Lstm { .. } => "lstm",
        }
    }

    /// Runs the kernel for `batch` samples: `src` is `[batch][in_len]`,
    /// `dst` receives `[batch][out_len]`; `col`/`aux`/`cell` are arena
    /// buffers sized by [`Scratch::ensure`].
    pub(crate) fn run(
        &self,
        batch: usize,
        src: &[f32],
        dst: &mut [f32],
        col: &mut [f32],
        aux: &mut [f32],
        cell: &mut [f32],
    ) {
        // lint: hot
        match self {
            BatchKernel::Identity { len } => {
                dst[..batch * len].copy_from_slice(&src[..batch * len]);
            }
            BatchKernel::Dense {
                input_len,
                units,
                activation,
                wt,
                bias,
            } => {
                gemm::gemm_bias(batch, *input_len, *units, src, *input_len, wt, bias, dst, *units, 0);
                act::apply_fast(*activation, &mut dst[..batch * units], *units);
            }
            BatchKernel::Conv1d {
                in_channels,
                in_len,
                filters,
                kernel,
                stride,
                out_len,
                activation,
                w,
                bias,
            } => conv::conv1d(
                batch,
                *in_channels,
                *in_len,
                *filters,
                *kernel,
                *stride,
                *out_len,
                *activation,
                w,
                bias,
                src,
                dst,
                col,
            ),
            BatchKernel::Local1d {
                in_channels,
                in_len,
                filters,
                kernel,
                stride,
                out_len,
                activation,
                wt,
                bias,
            } => conv::local1d(
                batch,
                *in_channels,
                *in_len,
                *filters,
                *kernel,
                *stride,
                *out_len,
                *activation,
                wt,
                bias,
                src,
                dst,
                col,
                aux,
            ),
            BatchKernel::MaxPool {
                channels,
                in_len,
                pool,
                stride,
                out_len,
            } => pool::maxpool(batch, *channels, *in_len, *pool, *stride, *out_len, src, dst),
            BatchKernel::AvgPool {
                channels,
                in_len,
                pool,
                stride,
                out_len,
            } => pool::avgpool(batch, *channels, *in_len, *pool, *stride, *out_len, src, dst),
            BatchKernel::Highway {
                width,
                activation,
                wt_h,
                b_h,
                wt_t,
                b_t,
            } => {
                let n = batch * width;
                gemm::gemm_bias(batch, *width, *width, src, *width, wt_h, b_h, dst, *width, 0);
                act::apply_fast(*activation, &mut dst[..n], *width);
                gemm::gemm_bias(batch, *width, *width, src, *width, wt_t, b_t, aux, *width, 0);
                act::apply_fast(Activation::Sigmoid, &mut aux[..n], 1);
                for i in 0..n {
                    let t = aux[i];
                    dst[i] = t * dst[i] + (1.0 - t) * src[i];
                }
            }
            BatchKernel::ResidualDense {
                width,
                activation,
                wt,
                bias,
            } => {
                let n = batch * width;
                gemm::gemm_bias(batch, *width, *width, src, *width, wt, bias, dst, *width, 0);
                act::apply_fast(*activation, &mut dst[..n], *width);
                for (d, &x) in dst[..n].iter_mut().zip(src) {
                    *d += x;
                }
            }
            BatchKernel::Lstm {
                timesteps,
                features,
                units,
                wt,
                ut,
                b,
            } => recurrent::lstm(
                batch, *timesteps, *features, *units, wt, ut, b, src, dst, aux, cell,
            ),
        }
    }
}

/// Runs a full kernel sequence over a batch, ping-ponging intermediates
/// between the arena's two wide buffers and appending the final result
/// to `outputs`. `observe` fires after each kernel with its index,
/// name, and freshly written region (the plan layer uses it for the
/// finite-value sanitizer and per-layer timing hooks).
pub(crate) fn run_all(
    kernels: &[BatchKernel],
    batch: usize,
    inputs: &[f32],
    outputs: &mut Vec<f32>,
    scratch: &mut Scratch,
    observe: &mut dyn FnMut(usize, &'static str, &[f32]),
) {
    // lint: hot
    let Scratch {
        ping,
        pong,
        col,
        aux,
        cell,
    } = scratch;
    let mut src_in_ping = false;
    let mut first = true;
    let mut last_len = 0usize;
    for (i, kernel) in kernels.iter().enumerate() {
        let n_in = batch * kernel.in_len();
        let n_out = batch * kernel.out_len_total();
        let written: &[f32] = if first {
            kernel.run(batch, &inputs[..n_in], &mut ping[..n_out], col, aux, cell);
            first = false;
            src_in_ping = true;
            &ping[..n_out]
        } else if src_in_ping {
            kernel.run(batch, &ping[..n_in], &mut pong[..n_out], col, aux, cell);
            src_in_ping = false;
            &pong[..n_out]
        } else {
            kernel.run(batch, &pong[..n_in], &mut ping[..n_out], col, aux, cell);
            src_in_ping = true;
            &ping[..n_out]
        };
        last_len = n_out;
        observe(i, kernel.name(), written);
    }
    let result: &[f32] = if src_in_ping {
        &ping[..last_len]
    } else {
        &pong[..last_len]
    };
    outputs.extend_from_slice(result);
}

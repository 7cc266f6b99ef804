//! Differential-testing harness for the batched inference kernels
//! (DESIGN.md §15): every layer kind, driven with random widths, kernel
//! sizes, and strides, must produce the same outputs through
//! [`FrozenPlan`]'s vectorized kernels as through the one forward
//! reference, per-sample [`neural::Network::predict`] — within `TOL` of
//! max-abs-error, across batch sizes that straddle the kernels' row-pair
//! blocking (1, 2, 7, 32, 33). An LSTM-only plan must match bit for
//! bit. Failures report the first diverging sample and output index so a
//! kernel bug localizes immediately.

use neural::kernels::{max_abs_divergence, Scratch};
use neural::plan::FrozenPlan;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::Activation;
use proptest::prelude::*;

/// The tolerance gate: the batched kernels associate additions
/// differently (k-major axpy vs per-unit dot product), so outputs are
/// tolerance-equal, not bit-equal, to `Network::predict`. The LSTM is
/// the exception: the plan runs the layer's own recurrence.
const TOL: f32 = 1e-4;

/// Batch sizes straddling the kernels' blocking factors: 1 (no
/// pairing), 2 (one row pair), 7/33 (odd tails), 32 (full pairs).
const BATCHES: [usize; 5] = [1, 2, 7, 32, 33];

const ACTS: [Activation; 6] = [
    Activation::Linear,
    Activation::Relu,
    Activation::Selu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Softmax,
];

/// Deterministic, sign-varying, activation-exercising inputs.
fn wave_inputs(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 0.37 + (seed % 997) as f32 * 0.11).sin() * 2.0)
        .collect()
}

/// Runs the plan over every batch size against sequential
/// `Network::predict` and reports the first divergence (sample, output
/// index, both values) if any pair of outputs differs by more than
/// [`TOL`].
fn backends_agree(spec: &NetworkSpec, seed: u64) -> Result<(), String> {
    backends_agree_at(spec, seed, &BATCHES, false)
}

/// [`backends_agree`] over the given batch sizes; with `exact`, every
/// output must equal the reference bit for bit, for plans whose kernels
/// run the layers' own arithmetic.
fn backends_agree_at(
    spec: &NetworkSpec,
    seed: u64,
    batches: &[usize],
    exact: bool,
) -> Result<(), String> {
    let mut net = spec.build(seed).map_err(|e| format!("build failed: {e}"))?;
    let plan = FrozenPlan::from_spec_weights("diff", spec, &net.export_weights())
        .map_err(|e| format!("compile failed: {e}"))?;
    let out_len = plan.output_len();
    let mut scratch = Scratch::new();
    for &batch in batches {
        let inputs = wave_inputs(batch * plan.input_len(), seed.wrapping_add(batch as u64));
        let reference = network_predict(&mut net, &inputs);
        let mut batched = Vec::new();
        plan.predict_batch_scratch(&inputs, &mut batched, &mut scratch, &mut |_, _| {})
            .map_err(|e| format!("batched kernels, batch {batch}: {e}"))?;
        if batched.len() != reference.len() {
            let (got, want) = (batched.len(), reference.len());
            return Err(format!("batch {batch}: {got} outputs, want {want}"));
        }
        let tol = if exact { 0.0 } else { TOL };
        for (i, (&r, &b)) in reference.iter().zip(&batched).enumerate() {
            let diverged = if exact {
                r.to_bits() != b.to_bits()
            } else {
                max_abs_divergence(&[r], &[b]) > TOL
            };
            if diverged {
                return Err(format!(
                    "batch {batch}: first divergence at sample {} output {} (flat index {i}): \
                     reference {r:e} vs batched {b:e} (|delta| {:e}, tolerance {tol:e})",
                    i / out_len,
                    i % out_len,
                    (r - b).abs(),
                ));
            }
        }
    }
    Ok(())
}

/// The oracle: sequential `Network::predict` over every sample of a
/// contiguous input block, outputs concatenated batch-major.
fn network_predict(net: &mut neural::Network, inputs: &[f32]) -> Vec<f32> {
    inputs
        .chunks_exact(net.input_len())
        .flat_map(|x| net.predict(x))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_stack_matches_reference(
        input in 1usize..48,
        hidden in 1usize..40,
        out in 1usize..12,
        act_a in 0usize..6,
        act_b in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let spec = NetworkSpec::new(input)
            .layer(LayerSpec::Dense { units: hidden, activation: ACTS[act_a] })
            .layer(LayerSpec::Dense { units: out, activation: ACTS[act_b] });
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn conv1d_matches_reference(
        len in 8usize..129,
        channels in 1usize..4,
        filters in 1usize..33,
        kernel in 1usize..25,
        stride in 1usize..5,
        act in 0usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!(kernel <= len);
        let spec = NetworkSpec::new(len * channels)
            .layer(LayerSpec::Reshape { channels })
            .layer(LayerSpec::Conv1d { filters, kernel, stride, activation: ACTS[act] });
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn locally_connected_matches_reference(
        len in 8usize..48,
        channels in 1usize..3,
        filters in 1usize..6,
        kernel in 1usize..8,
        stride in 1usize..4,
        act in 0usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!(kernel <= len);
        let spec = NetworkSpec::new(len * channels)
            .layer(LayerSpec::Reshape { channels })
            .layer(LayerSpec::LocallyConnected1d {
                filters, kernel, stride, activation: ACTS[act],
            });
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn pooling_matches_reference(
        len in 8usize..64,
        channels in 1usize..4,
        pool in 1usize..6,
        stride in 1usize..4,
        seed in 0u64..10_000,
    ) {
        prop_assume!(pool <= len);
        // Max and average pooling back to back, bracketed by the
        // identity-shaped ops (Reshape/Flatten) so those run too.
        let spec = NetworkSpec::new(len * channels)
            .layer(LayerSpec::Reshape { channels })
            .layer(LayerSpec::MaxPool1d { pool, stride })
            .layer(LayerSpec::AvgPool1d { pool: 1, stride: 1 })
            .layer(LayerSpec::Flatten);
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn highway_and_residual_match_reference(
        width in 1usize..32,
        act_h in 0usize..6,
        act_r in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let spec = NetworkSpec::new(width)
            .layer(LayerSpec::Highway { activation: ACTS[act_h] })
            .layer(LayerSpec::ResidualDense { activation: ACTS[act_r] });
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn lstm_matches_reference(
        timesteps in 1usize..6,
        features in 1usize..8,
        units in 1usize..12,
        seed in 0u64..10_000,
        head in 0u8..2,
    ) {
        let lstm = NetworkSpec::new(timesteps * features)
            .layer(LayerSpec::Lstm { units, timesteps });
        // The plan runs the layer's own recurrence, so without a head it
        // is exact; the Dense head's FMA GEMM keeps the tolerance.
        let result = if head == 1 {
            let spec = lstm.layer(LayerSpec::Dense { units: 3, activation: Activation::Softmax });
            backends_agree(&spec, seed)
        } else {
            backends_agree_at(&lstm, seed, &BATCHES, true)
        };
        if let Err(msg) = result {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn deep_mixed_topology_matches_reference(
        filters in 1usize..6,
        kernel in 2usize..8,
        stride in 1usize..3,
        rate in 0.0f32..0.9,
        seed in 0u64..10_000,
    ) {
        // Every layer kind in one pipeline: Reshape → Conv1d →
        // MaxPool1d → LocallyConnected1d → AvgPool1d → Flatten → Dense
        // → Dropout → Highway → ResidualDense → Dense(Softmax).
        let spec = NetworkSpec::new(60)
            .layer(LayerSpec::Reshape { channels: 2 })
            .layer(LayerSpec::Conv1d {
                filters, kernel, stride, activation: Activation::Selu,
            })
            .layer(LayerSpec::MaxPool1d { pool: 2, stride: 2 })
            .layer(LayerSpec::LocallyConnected1d {
                filters: 3, kernel: 2, stride: 1, activation: Activation::Tanh,
            })
            .layer(LayerSpec::AvgPool1d { pool: 2, stride: 1 })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 10, activation: Activation::Relu })
            .layer(LayerSpec::Dropout { rate })
            .layer(LayerSpec::Highway { activation: Activation::Sigmoid })
            .layer(LayerSpec::ResidualDense { activation: Activation::Selu })
            .layer(LayerSpec::Dense { units: 4, activation: Activation::Softmax });
        if let Err(msg) = backends_agree(&spec, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Edge shapes the random strategies visit rarely but the register-
/// tiled kernels special-case: a batch of exactly one sample (no row
/// pairing at all — the remainder path IS the kernel), every output
/// width below one 16-lane register tile, and conv windows whose last
/// tile is degenerate (kernel == length, so one output position; or a
/// stride that leaves a ragged, partially-filled final window).
#[test]
fn single_sample_batch_exercises_the_remainder_path_alone() {
    let spec = NetworkSpec::new(60)
        .layer(LayerSpec::Reshape { channels: 2 })
        .layer(LayerSpec::Conv1d {
            filters: 5,
            kernel: 4,
            stride: 2,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::MaxPool1d { pool: 2, stride: 2 })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 9,
            activation: Activation::Tanh,
        })
        .layer(LayerSpec::Dense {
            units: 4,
            activation: Activation::Softmax,
        });
    let mut net = spec.build(23).expect("valid spec");
    let plan =
        FrozenPlan::from_spec_weights("edge1", &spec, &net.export_weights()).expect("compiles");
    let inputs = wave_inputs(plan.input_len(), 23);
    let reference = net.predict(&inputs);
    let mut batched = Vec::new();
    plan.predict_batch(&inputs, &mut batched)
        .expect("batched batch of 1");
    assert!(
        max_abs_divergence(&reference, &batched) <= TOL,
        "batch=1 diverged: {reference:?} vs {batched:?}"
    );
}

#[test]
fn every_dense_width_below_one_register_tile_matches() {
    // out_features in 1..16 never fills a 16-lane tile, so the gemm
    // microkernel's column-remainder masks carry the whole output.
    for out in 1..16usize {
        let spec = NetworkSpec::new(24)
            .layer(LayerSpec::Dense {
                units: 19,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::Dense {
                units: out,
                activation: Activation::Linear,
            });
        if let Err(msg) = backends_agree(&spec, 1000 + out as u64) {
            panic!("out_features={out}: {msg}");
        }
    }
}

/// One conv layer alone, `channels` wide on `len` inputs.
fn conv_alone(
    channels: usize,
    len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    activation: Activation,
) -> NetworkSpec {
    NetworkSpec::new(channels * len)
        .layer(LayerSpec::Reshape { channels })
        .layer(LayerSpec::Conv1d {
            filters,
            kernel,
            stride,
            activation,
        })
}

#[test]
fn each_table1_conv_shape_matches_alone() {
    // The paper's four conv stages with their own input shapes: the
    // stride-1 layer streams the raw sample, the strided ones the
    // residue-deinterleaved copy, and the last one (10 outputs) is
    // narrower than a tile.
    let shapes = [
        (1, 397, 25, 20, 1, Activation::Selu),
        (25, 378, 25, 20, 3, Activation::Selu),
        (25, 120, 25, 15, 2, Activation::Selu),
        (25, 53, 15, 15, 4, Activation::Softmax),
    ];
    for (i, &(channels, len, filters, kernel, stride, act)) in shapes.iter().enumerate() {
        let spec = conv_alone(channels, len, filters, kernel, stride, act);
        if let Err(msg) = backends_agree_at(&spec, 300 + i as u64, &[1, 3, 32], false) {
            panic!("Table-1 conv {channels}->{filters} k{kernel} s{stride} on {len}: {msg}");
        }
    }
}

#[test]
fn every_filter_block_and_tile_tail_matches() {
    // Filter counts 1-11, 15 and 25 reach every block height (5-row
    // blocks, and 4-row blocks with each {2, 1} remainder); output
    // lengths 15/16/17/33 give a narrow layer, one exact tile, a one-
    // position overlapped tail and a tail after two whole tiles. Each
    // runs at stride 1 (raw sample) and stride 2 (staged copy).
    let filter_counts = (1..=11).chain([15, 25]);
    for filters in filter_counts {
        for out_len in [15, 16, 17, 33] {
            for (stride, kernel) in [(1, 3), (2, 4)] {
                let len = (out_len - 1) * stride + kernel;
                let spec = conv_alone(2, len, filters, kernel, stride, Activation::Tanh);
                let seed = (filters * 100 + out_len * 10 + stride) as u64;
                if let Err(msg) = backends_agree_at(&spec, seed, &[1, 3, 32], false) {
                    panic!("filters {filters}, out_len {out_len}, stride {stride}: {msg}");
                }
            }
        }
    }
}

#[test]
fn degenerate_ragged_conv_tiles_match() {
    // kernel == input length: exactly one output position per filter.
    let whole_window = NetworkSpec::new(12 * 2)
        .layer(LayerSpec::Reshape { channels: 2 })
        .layer(LayerSpec::Conv1d {
            filters: 3,
            kernel: 12,
            stride: 1,
            activation: Activation::Tanh,
        });
    if let Err(msg) = backends_agree(&whole_window, 77) {
        panic!("kernel==len conv: {msg}");
    }
    // A stride that strands a ragged final window: len 17, kernel 5,
    // stride 7 places windows at 0 and 7 only — position 14 would need
    // inputs through 18 and must be dropped identically by both paths.
    let ragged = NetworkSpec::new(17)
        .layer(LayerSpec::Reshape { channels: 1 })
        .layer(LayerSpec::Conv1d {
            filters: 4,
            kernel: 5,
            stride: 7,
            activation: Activation::Relu,
        })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 3,
            activation: Activation::Softmax,
        });
    if let Err(msg) = backends_agree(&ragged, 78) {
        panic!("ragged conv tile: {msg}");
    }
}

/// Non-finite inputs: NaN/inf poisoning must propagate identically
/// through the plan and `Network::predict` (same non-finite pattern on
/// the poisoned samples, clean samples untouched). This holds with and
/// without `checked-math` — the finite-value sanitizer deliberately
/// tolerates inputs that are already non-finite and only trips on
/// non-finites *introduced* by the math (see `tests/checked_math.rs`
/// for that case).
#[test]
fn non_finite_inputs_behave_identically_across_backends() {
    const IN: usize = 6;
    const OUT: usize = 5;
    let spec = NetworkSpec::new(IN)
        .layer(LayerSpec::Dense {
            units: 8,
            activation: Activation::Tanh,
        })
        .layer(LayerSpec::Dense {
            units: OUT,
            activation: Activation::Linear,
        });
    let mut net = spec.build(11).expect("valid spec");
    let plan =
        FrozenPlan::from_spec_weights("poison", &spec, &net.export_weights()).expect("compiles");

    // Three samples: clean, NaN-poisoned, inf-poisoned.
    let mut inputs = wave_inputs(3 * IN, 7);
    inputs[IN + 2] = f32::NAN;
    inputs[2 * IN] = f32::INFINITY;
    inputs[2 * IN + 3] = f32::NEG_INFINITY;

    let reference = network_predict(&mut net, &inputs);
    let mut batched = Vec::new();
    plan.predict_batch(&inputs, &mut batched)
        .expect("shape is valid");
    assert_eq!(reference.len(), batched.len());

    // Clean sample: tolerance-equal as usual.
    assert!(
        max_abs_divergence(&reference[..OUT], &batched[..OUT]) <= TOL,
        "clean sample diverged: {:?} vs {:?}",
        &reference[..OUT],
        &batched[..OUT]
    );
    // Poisoned samples: a dense net smears NaN across every output, and
    // the finite-parity rule of `max_abs_divergence` (0 for matching
    // non-finites, inf for one-sided ones) must hold position by
    // position.
    for sample in 1..3 {
        let r = &reference[sample * OUT..(sample + 1) * OUT];
        let b = &batched[sample * OUT..(sample + 1) * OUT];
        for (i, (&rv, &bv)) in r.iter().zip(b).enumerate() {
            assert!(
                max_abs_divergence(&[rv], &[bv]) <= TOL,
                "sample {sample} output {i}: non-finite pattern diverged \
                 ({rv:?} vs {bv:?})"
            );
        }
        assert!(
            r.iter().any(|v| !v.is_finite()),
            "poisoned sample {sample} must produce non-finite outputs, got {r:?}"
        );
    }
}

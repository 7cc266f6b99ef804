//! `Dataset::windows`: sliding windows as views of one row buffer.
//!
//! Training, batched inference and evaluation on a windowed dataset must
//! give the bits they give on the same windows copied out one by one, the
//! way the NMR sequence datasets were built before windows became views.

use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Activation, Loss, Network, NeuralError};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Values per row (one "spectrum").
const ROW_LEN: usize = 4;
/// Rows in each time series: 41 sliding windows of one row and 37 of
/// five, so batches of 3 and 32 both end ragged.
const N_ROWS: usize = 41;

/// The copying path, frozen as it was: every window's rows concatenated
/// as `f64` (`nmr_sim::sequence::sliding_windows`), then each window cast
/// to `f32` (`SequenceDataset::inputs_f32`) and handed to `Dataset::new`.
fn copied_windows(rows: &[Vec<f64>], targets: &[Vec<f64>], window: usize) -> Dataset {
    let mut inputs = Vec::new();
    let mut window_targets = Vec::new();
    for end in (window - 1)..rows.len() {
        let mut row = Vec::with_capacity(window * ROW_LEN);
        for t in 0..window {
            row.extend_from_slice(&rows[end + 1 - window + t]);
        }
        inputs.push(row.iter().map(|&v| v as f32).collect());
        window_targets.push(targets[end].iter().map(|&v| v as f32).collect());
    }
    Dataset::new(inputs, window_targets).unwrap()
}

/// The same windows as views of one `f32` row buffer.
fn viewed_windows(rows: &[Vec<f64>], targets: &[Vec<f64>], window: usize) -> Dataset {
    let buffer = rows.concat().iter().map(|&v| v as f32).collect();
    let window_targets = targets[window - 1..]
        .iter()
        .map(|t| t.iter().map(|&v| v as f32).collect())
        .collect();
    Dataset::windows(buffer, ROW_LEN, window, window_targets).unwrap()
}

/// A time series of distinct random rows, and a plateau-repeat one whose
/// random rows each repeat 1–20 times, with one target per row.
fn series(plateaus: bool, rng: &mut ChaCha8Rng) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(N_ROWS);
    while rows.len() < N_ROWS {
        let row: Vec<f64> = (0..ROW_LEN).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let repeats = if plateaus { rng.gen_range(1..=20usize) } else { 1 };
        for _ in 0..repeats.min(N_ROWS - rows.len()) {
            rows.push(row.clone());
        }
    }
    let targets = rows
        .iter()
        .map(|r| vec![r.iter().sum::<f64>() / 4.0, r[0] * r[ROW_LEN - 1]])
        .collect();
    (rows, targets)
}

fn lstm(window: usize) -> Network {
    NetworkSpec::new(window * ROW_LEN)
        .layer(LayerSpec::Lstm {
            units: 3,
            timesteps: window,
        })
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(7)
        .unwrap()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn all_bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter().map(|r| bits(r)).collect()
}

#[test]
fn windowed_training_and_inference_are_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for plateaus in [false, true] {
        let (rows, targets) = series(plateaus, &mut rng);
        let (val_rows, val_targets) = series(plateaus, &mut rng);
        for window in [1, 5, N_ROWS] {
            let (viewed, copied) = (
                viewed_windows(&rows, &targets, window),
                copied_windows(&rows, &targets, window),
            );
            let (val_viewed, val_copied) = (
                viewed_windows(&val_rows, &val_targets, window),
                copied_windows(&val_rows, &val_targets, window),
            );
            assert_eq!(viewed, copied);
            assert_eq!(viewed.len(), N_ROWS - window + 1);
            for batch_size in [1, 3, 32] {
                let ctx = format!("plateaus {plateaus}, window {window}, batch {batch_size}");
                let config = TrainConfig {
                    epochs: 3,
                    batch_size,
                    optimizer: OptimizerSpec::Adam { lr: 0.01 },
                    loss: Loss::Mse,
                    shuffle: true,
                    seed: 5,
                    restore_best: true,
                    stop_at_val_loss: None,
                };
                let (mut a, mut b) = (lstm(window), lstm(window));
                let trainer = Trainer::new(config);
                let got = trainer.fit(&mut a, &viewed, Some(&val_viewed)).unwrap();
                let want = trainer.fit(&mut b, &copied, Some(&val_copied)).unwrap();
                assert_eq!(bits(&got.train_loss), bits(&want.train_loss), "{ctx}");
                assert_eq!(bits(&got.val_loss), bits(&want.val_loss), "{ctx}");
                assert_eq!(got.best_epoch, want.best_epoch, "{ctx}");
                assert_eq!(
                    bits(&a.export_weights().concat().concat()),
                    bits(&b.export_weights().concat().concat()),
                    "{ctx}"
                );
                let views: Vec<&[f32]> = val_viewed.inputs().collect();
                let copies: Vec<&[f32]> = val_copied.inputs().collect();
                assert_eq!(
                    all_bits(&a.predict_batch(&views).unwrap()),
                    all_bits(&b.predict_batch(&copies).unwrap()),
                    "{ctx}"
                );
                assert_eq!(
                    val_viewed.evaluate(&mut a, Loss::Mse).to_bits(),
                    val_copied.evaluate(&mut b, Loss::Mse).to_bits(),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn split_and_shuffle_copy_windows_out() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (rows, targets) = series(true, &mut rng);
    let (viewed, copied) = (
        viewed_windows(&rows, &targets, 5),
        copied_windows(&rows, &targets, 5),
    );
    assert_eq!(viewed.split(0.8).unwrap(), copied.split(0.8).unwrap());
    assert_eq!(viewed.shuffled(9), copied.shuffled(9));
    assert_eq!(viewed.input(viewed.len()), None);
    assert_eq!(viewed.input(usize::MAX), None);
}

/// Row `r` of `values`, `row_len` values long.
fn row(values: &[f32], row_len: usize, r: usize) -> &[f32] {
    &values[r * row_len..(r + 1) * row_len]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn windows_rejects_bad_shapes_and_views_rows(
        values in prop::collection::vec(-3.0f32..3.0, 0..40),
        row_len in 0usize..5,
        window in 0usize..6,
        count_shift in 0usize..4,
        out_width in 1usize..3,
        ragged_at in 0usize..48,
        poison_at in 0usize..120,
        target_poison_at in 0usize..48
    ) {
        let mut values = values;
        // Mostly the right target count, sometimes one off either way.
        let n_rows = values.len().checked_div(row_len).unwrap_or(0);
        let expected = (n_rows + 1).saturating_sub(window);
        let n_targets = match count_shift {
            1 => expected + 1,
            2 => expected.saturating_sub(1),
            _ => expected,
        };
        let mut targets: Vec<Vec<f32>> = (0..n_targets)
            .map(|i| (0..out_width).map(|j| (i + j) as f32 * 0.1).collect())
            .collect();
        if let Some(t) = targets.get_mut(ragged_at) {
            t.push(0.5);
        }
        if let Some(t) = targets.get_mut(target_poison_at / 2) {
            if target_poison_at % 2 == 0 {
                t[0] = f32::INFINITY;
            }
        }
        if let Some(v) = values.get_mut(poison_at) {
            *v = if poison_at % 2 == 0 { f32::NAN } else { f32::NEG_INFINITY };
        }
        let valid = row_len > 0
            && window > 0
            && values.len() % row_len == 0
            && n_rows >= window
            && n_targets == expected
            && targets.iter().all(|t| Some(t.len()) == targets.first().map(Vec::len))
            && targets.iter().flatten().all(|v| v.is_finite())
            && values.iter().all(|v| v.is_finite());
        match Dataset::windows(values.clone(), row_len, window, targets.clone()) {
            Ok(data) => {
                prop_assert!(valid);
                prop_assert_eq!(data.len(), expected);
                prop_assert_eq!(data.input_width(), window * row_len);
                prop_assert_eq!(data.target_width(), targets[0].len());
                prop_assert_eq!(data.inputs().len(), expected);
                for (i, sample) in data.inputs().enumerate() {
                    let rows: Vec<f32> = (i..i + window)
                        .flat_map(|r| row(&values, row_len, r).to_vec())
                        .collect();
                    prop_assert_eq!(sample, &rows[..]);
                    prop_assert_eq!(data.input(i), Some(&rows[..]));
                }
                prop_assert_eq!(data.input(expected), None);
                prop_assert_eq!(data.targets(), &targets[..]);
            }
            Err(err) => {
                prop_assert!(!valid, "rejected a valid buffer: {err}");
                prop_assert!(matches!(err, NeuralError::InvalidDataset(_)), "{err:?}");
            }
        }
    }
}

//! Interrupted-and-resumed training must be bit-identical to an
//! uninterrupted run of the same seed (ISSUE: checkpoint determinism).
//!
//! The network is dropout-free (like the paper's Table 1 MS net), so the
//! only RNG in play is the stateless per-epoch shuffle — which the guard
//! derives from `seed + epoch`, independent of interruption.

use neural::guard::{Checkpoint, GuardConfig, GuardedTrainer};
use neural::optim::{OptimizerSpec, OptimizerState};
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig};
use neural::{Activation, Loss, Network, NeuralError};

fn dataset() -> (Dataset, Dataset) {
    let inputs: Vec<Vec<f32>> = (0..120)
        .map(|i| {
            let a = (i % 12) as f32 / 12.0;
            let b = ((i / 12) % 10) as f32 / 10.0;
            let c = ((i * 7) % 13) as f32 / 13.0;
            vec![a, b, c]
        })
        .collect();
    let targets: Vec<Vec<f32>> = inputs
        .iter()
        .map(|v| vec![(v[0] - v[1]).tanh(), 0.3 * v[2] + 0.1])
        .collect();
    Dataset::new(inputs, targets)
        .unwrap()
        .split(0.8)
        .unwrap()
}

fn network() -> Network {
    NetworkSpec::new(3)
        .layer(LayerSpec::Dense {
            units: 8,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(99)
        .unwrap()
}

fn trainer(epochs: usize) -> GuardedTrainer {
    let config = TrainConfig {
        epochs,
        batch_size: 8,
        loss: Loss::Mae,
        optimizer: OptimizerSpec::Adam { lr: 0.005 },
        seed: 42,
        ..TrainConfig::default()
    };
    let guard = GuardConfig {
        checkpoint_every: 2,
        ..GuardConfig::default()
    };
    GuardedTrainer::new(config, guard).unwrap()
}

fn weight_bits(net: &Network) -> Vec<u32> {
    net.export_weights()
        .iter()
        .flatten()
        .flatten()
        .map(|w| w.to_bits())
        .collect()
}

#[test]
fn resume_after_interruption_is_bit_identical() {
    let (train, val) = dataset();

    // Uninterrupted reference run: 10 epochs straight through.
    let mut reference = network();
    let full = trainer(10).fit(&mut reference, &train, Some(&val)).unwrap();

    // Interrupted run: stop after 5 epochs, persist the checkpoint to
    // disk, reload it, and resume to the same total.
    let mut interrupted = network();
    let partial = trainer(10)
        .fit_interrupted(&mut interrupted, &train, Some(&val), 5)
        .unwrap();
    assert_eq!(partial.checkpoint.epochs_done, 5);

    let dir = std::env::temp_dir().join(format!("neural-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("interrupted.json");
    partial.checkpoint.save(&path).unwrap();
    let restored = Checkpoint::load(&path).unwrap();
    assert_eq!(restored, partial.checkpoint, "JSON roundtrip must be exact");
    std::fs::remove_dir_all(&dir).unwrap();

    let resumed = trainer(10)
        .resume(&mut interrupted, &train, Some(&val), &restored)
        .unwrap();

    // Bit-identical weights and identical loss histories.
    assert_eq!(weight_bits(&reference), weight_bits(&interrupted));
    assert_eq!(full.history.train_loss, resumed.history.train_loss);
    assert_eq!(full.history.val_loss, resumed.history.val_loss);
    assert_eq!(full.history.best_epoch, resumed.history.best_epoch);
    assert_eq!(full.checkpoint, resumed.checkpoint);
}

#[test]
fn interruption_off_checkpoint_boundary_still_resumes_exactly() {
    let (train, val) = dataset();

    let mut reference = network();
    let full = trainer(9).fit(&mut reference, &train, Some(&val)).unwrap();

    // 7 is not a multiple of checkpoint_every=2; the final snapshot taken
    // on interruption must still capture epoch 7 exactly.
    let mut interrupted = network();
    let partial = trainer(9)
        .fit_interrupted(&mut interrupted, &train, Some(&val), 7)
        .unwrap();
    assert_eq!(partial.checkpoint.epochs_done, 7);
    let resumed = trainer(9)
        .resume(&mut interrupted, &train, Some(&val), &partial.checkpoint)
        .unwrap();

    assert_eq!(weight_bits(&reference), weight_bits(&interrupted));
    assert_eq!(full.history.train_loss, resumed.history.train_loss);
}

#[test]
fn resume_rejects_checkpoint_with_truncated_second_moment() {
    let (train, val) = dataset();
    let mut net = network();
    let partial = trainer(4)
        .fit_interrupted(&mut net, &train, Some(&val), 2)
        .unwrap();

    // Truncate one Adam second-moment slot; its first moment keeps the
    // full parameter length, so the slot counts still agree.
    let mut tampered = partial.checkpoint.clone();
    match &mut tampered.optimizer {
        OptimizerState::Adam { second_moments, .. } => {
            let slot = &mut second_moments[1];
            assert!(slot.len() > 1);
            slot.truncate(1);
        }
        other => panic!("expected Adam state, got {other:?}"),
    }
    let dir = std::env::temp_dir().join(format!("neural-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.json");
    tampered.save(&path).unwrap();
    let restored = Checkpoint::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(restored, tampered, "JSON roundtrip must be exact");

    let result = trainer(4).resume(&mut net, &train, Some(&val), &restored);
    assert!(
        matches!(result, Err(NeuralError::InvalidWeights(_))),
        "{result:?}"
    );
}

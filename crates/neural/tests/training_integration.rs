//! Training-behaviour integration tests: end-to-end learning on small
//! synthetic tasks, divergence detection, dropout effects.

use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Activation, Loss, NeuralError};

/// A 1-D "spectrum" task: two triangular peaks whose amplitudes are the
/// two regression targets — a miniature of the real MS problem.
fn peak_dataset(n: usize) -> Dataset {
    let len = 32;
    let mut inputs = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let a = ((i * 7) % 10) as f32 / 10.0;
        let b = ((i * 3) % 10) as f32 / 10.0;
        let mut x = vec![0.0f32; len];
        for (k, slot) in x.iter_mut().enumerate() {
            let peak1 = (1.0 - (k as f32 - 8.0).abs() / 4.0).max(0.0);
            let peak2 = (1.0 - (k as f32 - 22.0).abs() / 4.0).max(0.0);
            *slot = a * peak1 + b * peak2;
        }
        inputs.push(x);
        targets.push(vec![a, b]);
    }
    Dataset::new(inputs, targets).expect("valid dataset")
}

#[test]
fn conv_network_learns_peak_amplitudes() {
    let data = peak_dataset(300);
    let (train, val) = data.split(0.8).unwrap();
    let mut net = NetworkSpec::new(32)
        .layer(LayerSpec::Reshape { channels: 1 })
        .layer(LayerSpec::Conv1d {
            filters: 4,
            kernel: 5,
            stride: 2,
            activation: Activation::Relu,
        })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(3)
        .unwrap();
    let config = TrainConfig {
        epochs: 60,
        batch_size: 16,
        optimizer: OptimizerSpec::Adam { lr: 3e-3 },
        loss: Loss::Mse,
        ..TrainConfig::default()
    };
    let history = Trainer::new(config).fit(&mut net, &train, Some(&val)).unwrap();
    assert!(
        history.best_val_loss().unwrap() < 2e-3,
        "val loss {:?}",
        history.best_val_loss()
    );
    // Check an actual prediction.
    let probe = train.input(4).unwrap();
    let target = &train.targets()[4];
    let out = net.predict(probe);
    assert!((out[0] - target[0]).abs() < 0.1, "{out:?} vs {target:?}");
}

#[test]
fn lstm_learns_sequence_mean() {
    // Predict the mean of a 4-step scalar sequence.
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for i in 0..240 {
        let seq: Vec<f32> = (0..4)
            .map(|t| (((i * 13 + t * 7) % 20) as f32 / 20.0) - 0.5)
            .collect();
        let mean = seq.iter().sum::<f32>() / 4.0;
        inputs.push(seq);
        targets.push(vec![mean]);
    }
    let data = Dataset::new(inputs, targets).unwrap();
    let (train, val) = data.split(0.8).unwrap();
    let mut net = NetworkSpec::new(4)
        .layer(LayerSpec::Lstm {
            units: 8,
            timesteps: 4,
        })
        .layer(LayerSpec::Dense {
            units: 1,
            activation: Activation::Linear,
        })
        .build(5)
        .unwrap();
    let config = TrainConfig {
        epochs: 120,
        batch_size: 16,
        optimizer: OptimizerSpec::Adam { lr: 5e-3 },
        loss: Loss::Mse,
        ..TrainConfig::default()
    };
    let history = Trainer::new(config).fit(&mut net, &train, Some(&val)).unwrap();
    assert!(
        history.best_val_loss().unwrap() < 5e-3,
        "val loss {:?}",
        history.best_val_loss()
    );
}

#[test]
fn absurd_learning_rate_reports_divergence() {
    let data = peak_dataset(64);
    let mut net = NetworkSpec::new(32)
        .layer(LayerSpec::Dense {
            units: 16,
            activation: Activation::Relu,
        })
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(1)
        .unwrap();
    let config = TrainConfig {
        epochs: 50,
        batch_size: 8,
        optimizer: OptimizerSpec::Sgd {
            lr: 1e9,
            momentum: 0.0,
        },
        loss: Loss::Mse,
        ..TrainConfig::default()
    };
    let result = Trainer::new(config).fit(&mut net, &data, None);
    assert!(
        matches!(result, Err(NeuralError::Diverged { .. })),
        "{result:?}"
    );
}

#[test]
fn dropout_changes_training_but_not_inference() {
    let mut net = NetworkSpec::new(16)
        .layer(LayerSpec::Dense {
            units: 16,
            activation: Activation::Relu,
        })
        .layer(LayerSpec::Dropout { rate: 0.5 })
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(2)
        .unwrap();
    let x = vec![0.3f32; 16];
    // Inference is deterministic.
    assert_eq!(net.predict(&x), net.predict(&x));
    // Training passes differ because of the random mask.
    let a = net.forward(&x, true);
    let b = net.forward(&x, true);
    assert_ne!(a, b);
}

#[test]
fn restore_best_beats_final_epoch_when_overfitting() {
    // Tiny training set + many epochs: validation loss worsens late, and
    // the restored network must match the best epoch, not the last.
    let data = peak_dataset(40);
    let (train, val) = data.split(0.5).unwrap();
    let mut net = NetworkSpec::new(32)
        .layer(LayerSpec::Dense {
            units: 48,
            activation: Activation::Tanh,
        })
        .layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        })
        .build(7)
        .unwrap();
    let config = TrainConfig {
        epochs: 150,
        batch_size: 4,
        optimizer: OptimizerSpec::Adam { lr: 1e-2 },
        loss: Loss::Mse,
        restore_best: true,
        ..TrainConfig::default()
    };
    let history = Trainer::new(config).fit(&mut net, &train, Some(&val)).unwrap();
    let best = history.best_val_loss().unwrap();
    let restored = val.evaluate(&mut net, Loss::Mse);
    assert!((restored - best).abs() < 1e-6, "restored {restored} vs best {best}");
    let last = *history.val_loss.last().unwrap();
    assert!(best <= last + 1e-9);
}

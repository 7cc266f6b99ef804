//! The guarded trainer records the same `train.*` telemetry as the plain
//! one, and its `train.lr` gauge follows a rollback's backed-off rate.
//!
//! Alone in its binary: a sibling test training while the collector is
//! installed would record its own `train.*` events into it.

use std::sync::Arc;

use faultsim::FaultPlan;
use neural::guard::{GuardConfig, GuardedTrainer};
use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig};
use neural::{Activation, Loss};
use obs::{Collector, EventKind};

#[test]
fn guarded_run_records_epochs_and_backed_off_learning_rate() {
    let inputs: Vec<Vec<f32>> = (0..64)
        .map(|i| vec![(i % 8) as f32 / 8.0, (i / 8) as f32 / 8.0])
        .collect();
    let targets = inputs
        .iter()
        .map(|v| vec![0.5 * v[0] + 0.2 * v[1]])
        .collect();
    let data = Dataset::new(inputs, targets).unwrap();
    let mut net = NetworkSpec::new(2)
        .layer(LayerSpec::Dense {
            units: 1,
            activation: Activation::Linear,
        })
        .build(1)
        .unwrap();
    let config = TrainConfig {
        epochs: 4,
        batch_size: 16,
        loss: Loss::Mse,
        optimizer: OptimizerSpec::Adam { lr: 0.01 },
        ..TrainConfig::default()
    };
    let guard = GuardConfig {
        checkpoint_every: 1,
        lr_backoff: 0.5,
        ..GuardConfig::default()
    };
    let plan = Arc::new(FaultPlan::new().with_nan_batch(2, 1));
    let trainer = GuardedTrainer::new(config, guard)
        .unwrap()
        .with_fault_plan(plan);

    let obs_guard = obs::install(Collector::new());
    let outcome = trainer.fit(&mut net, &data, None).unwrap();
    let collector = Arc::clone(obs_guard.collector());
    drop(obs_guard);

    assert_eq!(outcome.recovery.len(), 1);
    let backed_off = outcome.recovery[0].learning_rate;
    assert_eq!(backed_off, 0.005);

    let events = collector.events();
    let spans = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == name)
            .count()
    };
    // Four completed epochs plus the one the NaN batch aborted.
    assert_eq!(spans("train.epoch"), 5);
    // Four batches per clean epoch; the aborted epoch got to batch 1.
    assert_eq!(spans("train.batch"), 4 * 4 + 2);

    let lr: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Gauge && e.name == "train.lr")
        .map(|e| e.value)
        .collect();
    assert_eq!(lr.first(), Some(&0.01f32.into()));
    assert_eq!(lr.last(), Some(&f64::from(backed_off)));
    let gauge = |name: &str| {
        collector
            .metrics()
            .gauges
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    };
    assert_eq!(gauge("train.lr"), Some(f64::from(backed_off)));
    assert!(gauge("train.loss").is_some_and(f64::is_finite));
}

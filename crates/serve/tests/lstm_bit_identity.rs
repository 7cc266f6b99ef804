//! The served LSTM equals `Network::predict` bit for bit, however the
//! arena and the input block are reused.
//!
//! A plan keeps the LSTM's row table in its `Scratch` arena, and a serve
//! worker refills one input block, at the same address, for every batch.
//! A row table that outlived its call would match the new batch's rows
//! against the old batch's and serve wrong outputs. These tests reuse one
//! arena and one block across batches whose contents change, and drive
//! the same traffic through a one-shard `Router`.

use std::sync::Arc;
use std::time::Duration;

use neural::kernels::Scratch;
use neural::plan::FrozenPlan;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::Network;
use serve::{ModelRegistry, Request, Router, RouterConfig, ServeConfig, Ticket};

const TIMESTEPS: usize = 5;
const FEATURES: usize = 37;
const UNITS: usize = 11;
const WINDOW: usize = TIMESTEPS * FEATURES;

/// An LSTM-only network and the plan compiled from its weights.
fn lstm_model() -> (Network, FrozenPlan) {
    let spec = NetworkSpec::new(WINDOW).layer(LayerSpec::Lstm {
        units: UNITS,
        timesteps: TIMESTEPS,
    });
    let net = spec.build(5).expect("valid spec");
    let plan =
        FrozenPlan::from_spec_weights("lstm", &spec, &net.export_weights()).expect("compiles");
    (net, plan)
}

/// A deterministic spectrum-like row; `seed` picks it.
fn row(seed: usize) -> Vec<f32> {
    (0..FEATURES)
        .map(|i| (((i * 7 + seed * 13) as f32) * 0.173).sin() * 1.5)
        .collect()
}

/// Sliding windows over a sequence of rows.
fn sliding(rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
    rows.windows(TIMESTEPS).map(|w| w.concat()).collect()
}

/// Windows of three kinds, each run of the same kind next to each other:
/// sliding windows over a plateau sequence (every row repeated 1 to 4
/// times), windows of rows that never repeat, and one window twice in a
/// row.
fn traffic() -> Vec<Vec<f32>> {
    let plateau: Vec<Vec<f32>> = (0..30).flat_map(|s| vec![row(s); 1 + s % 4]).collect();
    let fresh: Vec<Vec<f32>> = (0..40).map(|s| row(1000 + s)).collect();
    let mut windows = sliding(&plateau);
    windows.extend(sliding(&fresh));
    let twice = windows[7].clone();
    windows.insert(8, twice.clone());
    windows.push(twice.clone());
    windows.push(twice);
    windows
}

fn assert_bits_eq(ctx: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx} output {i}: {g} vs {w}");
    }
}

#[test]
fn lstm_plan_with_reused_scratch_and_block_is_bit_identical() {
    let (mut net, plan) = lstm_model();
    let windows = traffic();
    let want: Vec<Vec<f32>> = windows.iter().map(|w| net.predict(w)).collect();
    let mut scratch = Scratch::new();
    // One block at one address for every batch, as a serve worker keeps.
    let mut block: Vec<f32> = Vec::with_capacity(33 * WINDOW);
    let address = block.as_ptr();
    let mut outputs = Vec::new();
    for size in [1, 3, 8, 32, 33] {
        // Every start, so batches also begin mid-plateau, and the same
        // batch contents run twice in a row.
        for start in 0..windows.len() {
            let batch: Vec<usize> = (start..start + size).map(|i| i % windows.len()).collect();
            for _ in 0..2 {
                block.clear();
                for &i in &batch {
                    block.extend_from_slice(&windows[i]);
                }
                assert_eq!(block.as_ptr(), address, "the block must not move");
                outputs.clear();
                let n = plan
                    .predict_batch_scratch(&block, &mut outputs, &mut scratch, &mut |_, _| {})
                    .expect("valid batch");
                assert_eq!(n, size);
                for (&i, got) in batch.iter().zip(outputs.chunks_exact(UNITS)) {
                    assert_bits_eq(
                        &format!("batch {size} from {start}, window {i}"),
                        got,
                        &want[i],
                    );
                }
            }
        }
    }
}

#[test]
fn lstm_served_through_router_is_bit_identical() {
    let (mut net, plan) = lstm_model();
    let windows = traffic();
    let want: Vec<Vec<f32>> = windows.iter().map(|w| net.predict(w)).collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_plan("lstm", 1, Arc::new(plan));
    let router = Router::start(
        registry,
        RouterConfig {
            shards: 1,
            engine: ServeConfig {
                workers: 2,
                queue_capacity: 1024,
                max_batch: 32,
                max_linger: Duration::from_millis(2),
                default_deadline: Duration::from_secs(60),
            },
            ..RouterConfig::default()
        },
    )
    .expect("start router");
    for round in 0..3 {
        let tickets: Vec<Ticket> = windows
            .iter()
            .map(|w| {
                router
                    .submit(Request::new("lstm", w.clone()))
                    .expect("queue has room")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let prediction = ticket.wait().expect("request completes");
            assert_bits_eq(
                &format!("round {round} window {i}"),
                &prediction.output,
                &want[i],
            );
        }
    }
    router.shutdown();
}

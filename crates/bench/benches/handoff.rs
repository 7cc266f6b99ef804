//! The Tool-4 model hand-off as a Criterion benchmark: deploying the
//! Table-1 MS network and the NMR LSTM into a datastore collection, and
//! loading both into a fresh serving registry. These are the two steps
//! spectrobench traces as `datastore.deploy` and `registry.load_from_store`
//! inside every serving set-up, so their cost can be read here offline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::handoff::{deployed_store, served_models, COLLECTION};
use serve::ModelRegistry;

fn model_handoff(c: &mut Criterion) {
    let models = served_models();
    let mut group = c.benchmark_group("model_handoff");
    group.sample_size(20);

    group.bench_function("deploy_table1_and_lstm", |b| {
        b.iter(|| black_box(deployed_store(&models)))
    });

    let store = deployed_store(&models);
    group.bench_function("load_from_store_table1_and_lstm", |b| {
        b.iter(|| {
            let registry = ModelRegistry::new();
            let loaded = registry.load_from_store(&store, COLLECTION).expect("load");
            black_box((loaded, registry))
        })
    });
    group.finish();
}

criterion_group!(benches, model_handoff);
criterion_main!(benches);

//! The Tool-4 hand-off — deploy into a datastore collection, then
//! `ModelRegistry::load_from_store` — serves the same plans as publishing
//! the exported networks directly, bit for bit, and leaves no reference
//! to a stored payload behind.
//!
//! Both paper networks ride along: the Table-1 MS CNN and the NMR LSTM
//! (221,956 weights), once from the in-memory store and once through a
//! `save_to_dir` → `load_from_dir` round trip.

use std::sync::Arc;

use bench::handoff::{deployed_store, served_models, ServedModel, COLLECTION};
use datastore::Store;
use neural::export::ExportedNetwork;
use neural::plan::FrozenPlan;
use serve::ModelRegistry;

/// The plan's outputs, as bits, on a batch of three deterministic inputs
/// and on the first of them alone.
fn output_bits(plan: &FrozenPlan) -> Vec<u32> {
    let len = plan.input_len();
    let batch: Vec<f32> = (0..3 * len).map(|i| ((i as f32) * 0.37).sin()).collect();
    let mut outputs = Vec::new();
    plan.predict_batch(&batch, &mut outputs).expect("batch");
    outputs.extend(plan.predict(&batch[..len]).expect("single"));
    outputs.iter().map(|x| x.to_bits()).collect()
}

/// Every model resolves to version 1 and computes exactly what `publish`
/// of its export computes.
fn assert_matches_publish(registry: &ModelRegistry, models: &[ServedModel]) {
    for (name, spec, network) in models {
        let exported = ExportedNetwork::from_network(spec.clone(), network, *name);
        let published = ModelRegistry::new().publish(name, 1, &exported).expect("publish");
        let (version, loaded) = registry.resolve(name, None).expect("loaded");
        assert_eq!(version, 1, "{name}");
        assert_eq!(output_bits(&loaded), output_bits(&published), "{name}");
    }
}

#[test]
fn handoff_plans_match_publish_bit_for_bit() {
    let models = served_models();
    let store = deployed_store(&models);
    let registry = ModelRegistry::new();
    assert_eq!(registry.load_from_store(&store, COLLECTION).expect("load"), 2);
    assert_matches_publish(&registry, &models);
    // The load kept no payload alive: each count is the store's own
    // reference plus the one `doc` holds here.
    for doc in store.collection(COLLECTION) {
        assert_eq!(Arc::strong_count(&doc.payload), 2, "{}", doc.id);
    }
}

#[test]
fn handoff_through_a_saved_store_matches_publish() {
    let models = served_models();
    let dir = std::env::temp_dir().join(format!("spectroai-handoff-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    deployed_store(&models).save_to_dir(&dir).expect("save");
    let report = Store::load_from_dir_report(&dir).expect("load dir");
    assert_eq!(report.loaded, 2);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let registry = ModelRegistry::new();
    assert_eq!(registry.load_from_store(&report.store, COLLECTION).expect("load"), 2);
    assert_matches_publish(&registry, &models);
    std::fs::remove_dir_all(&dir).ok();
}

//! Model registry: named, versioned frozen plans with atomic hot-swap.

use std::collections::BTreeMap;
use std::sync::Arc;

use datastore::Store;
use neural::export::ExportedNetwork;
use neural::plan::FrozenPlan;
use parking_lot::RwLock;
use serde::Deserialize;

use crate::ServeError;

/// Metadata parameter naming the model on deployed documents
/// (`spectroai::pipeline::deploy` writes it; [`ModelRegistry::load_from_store`]
/// reads it).
pub const MODEL_PARAM: &str = "model";
/// Metadata parameter carrying the model version on deployed documents.
pub const VERSION_PARAM: &str = "model_version";

/// Frozen plans keyed by model name and version.
///
/// Publishing compiles and validates the artifact *outside* the lock,
/// then swaps one `Arc` pointer under a write lock — requests that
/// already resolved a plan keep executing on it, so a hot-swap never
/// tears a model mid-request.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, BTreeMap<u32, Arc<FrozenPlan>>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `exported` and publishes it as `name`/`version`,
    /// replacing any plan previously at that slot. Returns the installed
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Neural`] if the artifact fails validation or
    /// compilation.
    pub fn publish(
        &self,
        name: &str,
        version: u32,
        exported: &ExportedNetwork,
    ) -> Result<Arc<FrozenPlan>, ServeError> {
        let plan = Arc::new(FrozenPlan::compile(exported)?);
        self.publish_plan(name, version, Arc::clone(&plan));
        Ok(plan)
    }

    /// Publishes an already-compiled plan as `name`/`version`.
    pub fn publish_plan(&self, name: &str, version: u32, plan: Arc<FrozenPlan>) {
        self.models
            .write()
            .entry(name.to_string())
            .or_default()
            .insert(version, plan);
    }

    /// Compiles `exported` and runs `gate` over the candidate plan
    /// *before* it becomes visible; only a gate pass inserts it.
    ///
    /// This closes the publication race the plain
    /// [`ModelRegistry::publish`] + check-after-insert pattern had: a
    /// concurrent reader calling [`ModelRegistry::latest`] /
    /// [`ModelRegistry::resolve`] with `version: None` between the insert
    /// and the gate verdict would observe (and start serving) a version
    /// the guard had not yet cleared. With `publish_gated` the candidate
    /// lives only on this call's stack until the gate approves, so an
    /// un-gated version is unobservable by construction.
    ///
    /// # Errors
    ///
    /// [`ServeError::Neural`] if compilation/validation fails,
    /// [`ServeError::GateRejected`] (carrying the gate's reason) if the
    /// gate vetoes the candidate. Either way the registry is unchanged.
    pub fn publish_gated(
        &self,
        name: &str,
        version: u32,
        exported: &ExportedNetwork,
        gate: impl FnOnce(&FrozenPlan) -> Result<(), String>,
    ) -> Result<Arc<FrozenPlan>, ServeError> {
        let plan = Arc::new(FrozenPlan::compile(exported)?);
        gate(&plan).map_err(|reason| ServeError::GateRejected {
            model: name.to_string(),
            version,
            reason,
        })?;
        self.publish_plan(name, version, Arc::clone(&plan));
        Ok(plan)
    }

    /// The newest published version of `name`, if any. Because every
    /// publication path inserts only fully validated (and, via
    /// [`ModelRegistry::publish_gated`], gated) plans, a version returned
    /// here is always safe to serve.
    pub fn latest(&self, name: &str) -> Option<u32> {
        self.models
            .read()
            .get(name)
            .and_then(|versions| versions.keys().next_back().copied())
    }

    /// Removes one version (or the whole model, if no versions remain).
    /// Returns `true` if something was removed. In-flight requests on the
    /// retired plan still finish.
    pub fn retire(&self, name: &str, version: u32) -> bool {
        let mut models = self.models.write();
        let Some(versions) = models.get_mut(name) else {
            return false;
        };
        let removed = versions.remove(&version).is_some();
        if versions.is_empty() {
            models.remove(name);
        }
        removed
    }

    /// Resolves a model: a specific version, or the newest one when
    /// `version` is `None`. Returns the resolved version with the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if nothing matches.
    pub fn resolve(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<(u32, Arc<FrozenPlan>), ServeError> {
        let models = self.models.read();
        let unknown = || ServeError::UnknownModel {
            name: name.to_string(),
            version,
        };
        let versions = models.get(name).ok_or_else(unknown)?;
        match version {
            Some(v) => versions
                .get(&v)
                .map(|plan| (v, Arc::clone(plan)))
                .ok_or_else(unknown),
            None => versions
                .iter()
                .next_back()
                .map(|(&v, plan)| (v, Arc::clone(plan)))
                .ok_or_else(unknown),
        }
    }

    /// Published model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models.read().keys().cloned().collect()
    }

    /// Published versions of one model, ascending (empty if unknown).
    pub fn versions(&self, name: &str) -> Vec<u32> {
        self.models
            .read()
            .get(name)
            .map(|v| v.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Loads every deployed artifact from a [`Store`] collection.
    ///
    /// Each artifact is deserialized in place from the store's shared
    /// payload tree; nothing is copied out of the store.
    ///
    /// Documents are expected in the layout written by the core
    /// pipeline's deploy stage: an [`ExportedNetwork`] payload with
    /// `MODEL_PARAM` / `VERSION_PARAM` metadata. Documents without a
    /// version parameter fall back to their logical sequence number, so
    /// re-deployments naturally become newer versions. Returns the number
    /// of plans published.
    ///
    /// The load is all-or-nothing: every document is deserialized,
    /// compiled and validated into a staging set first, and only a fully
    /// successful staging pass is committed (under one write lock). A
    /// reader racing the load therefore sees either none of the
    /// collection's plans or all of them — never a half-loaded registry
    /// whose `latest()` points at an artifact that a later document would
    /// have invalidated the load with.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Store`] if a payload does not deserialize,
    /// or [`ServeError::Neural`] if an artifact fails validation. On
    /// error the registry is untouched.
    pub fn load_from_store(&self, store: &Store, collection: &str) -> Result<usize, ServeError> {
        let mut staged: Vec<(String, u32, Arc<FrozenPlan>)> = Vec::new();
        for doc in store.collection(collection) {
            let exported = ExportedNetwork::from_value(&doc.payload)
                .map_err(|e| ServeError::Store(format!("document {}: {e}", doc.id)))?;
            let name = doc
                .metadata
                .params
                .get(MODEL_PARAM)
                .cloned()
                .unwrap_or_else(|| exported.name.clone());
            let version = doc
                .metadata
                .params
                .get(VERSION_PARAM)
                .and_then(|v| v.parse::<u32>().ok())
                .unwrap_or(doc.metadata.sequence as u32);
            staged.push((name, version, Arc::new(FrozenPlan::compile(&exported)?)));
        }
        let loaded = staged.len();
        let mut models = self.models.write();
        for (name, version, plan) in staged {
            models.entry(name).or_default().insert(version, plan);
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::Metadata;
    use neural::spec::{LayerSpec, NetworkSpec};
    use neural::Activation;

    fn exported(seed: u64) -> ExportedNetwork {
        let spec = NetworkSpec::new(3).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        });
        let net = spec.build(seed).unwrap();
        ExportedNetwork::from_network(spec, &net, "ms")
    }

    #[test]
    fn resolve_prefers_latest_version() {
        let registry = ModelRegistry::new();
        registry.publish("ms", 1, &exported(1)).unwrap();
        registry.publish("ms", 3, &exported(3)).unwrap();
        registry.publish("ms", 2, &exported(2)).unwrap();
        let (version, _) = registry.resolve("ms", None).unwrap();
        assert_eq!(version, 3);
        let (version, _) = registry.resolve("ms", Some(2)).unwrap();
        assert_eq!(version, 2);
        assert_eq!(registry.versions("ms"), vec![1, 2, 3]);
        assert_eq!(registry.names(), vec!["ms".to_string()]);
    }

    #[test]
    fn unknown_models_are_structured_errors() {
        let registry = ModelRegistry::new();
        registry.publish("ms", 1, &exported(1)).unwrap();
        assert!(matches!(
            registry.resolve("nope", None),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            registry.resolve("ms", Some(9)),
            Err(ServeError::UnknownModel {
                version: Some(9),
                ..
            })
        ));
    }

    #[test]
    fn publish_hot_swaps_atomically() {
        let registry = ModelRegistry::new();
        let old = registry.publish("ms", 1, &exported(1)).unwrap();
        let (_, resolved) = registry.resolve("ms", Some(1)).unwrap();
        assert!(Arc::ptr_eq(&old, &resolved));
        let new = registry.publish("ms", 1, &exported(2)).unwrap();
        let (_, resolved) = registry.resolve("ms", Some(1)).unwrap();
        assert!(Arc::ptr_eq(&new, &resolved));
        // The old Arc is still intact for in-flight work.
        assert_eq!(old.input_len(), 3);
    }

    #[test]
    fn retire_removes_versions_then_model() {
        let registry = ModelRegistry::new();
        registry.publish("ms", 1, &exported(1)).unwrap();
        registry.publish("ms", 2, &exported(2)).unwrap();
        assert!(registry.retire("ms", 1));
        assert!(!registry.retire("ms", 1));
        assert!(registry.retire("ms", 2));
        assert!(registry.names().is_empty());
    }

    #[test]
    fn rejects_invalid_artifacts() {
        let registry = ModelRegistry::new();
        let mut bad = exported(1);
        bad.weights[0][1].pop();
        assert!(matches!(
            registry.publish("ms", 1, &bad),
            Err(ServeError::Neural(_))
        ));
    }

    #[test]
    fn load_from_store_publishes_deployed_models() {
        let store = Store::in_memory();
        store
            .insert(
                "deployed_models",
                Metadata::created_by("deploy")
                    .with_param(MODEL_PARAM, "ms")
                    .with_param(VERSION_PARAM, "7"),
                &exported(1),
            )
            .unwrap();
        // No version param: falls back to the document sequence.
        store
            .insert(
                "deployed_models",
                Metadata::created_by("deploy").with_param(MODEL_PARAM, "nmr"),
                &exported(2),
            )
            .unwrap();
        let registry = ModelRegistry::new();
        let loaded = registry.load_from_store(&store, "deployed_models").unwrap();
        assert_eq!(loaded, 2);
        assert_eq!(registry.resolve("ms", None).unwrap().0, 7);
        assert!(registry.resolve("nmr", None).unwrap().0 >= 1);
    }

    #[test]
    fn latest_tracks_newest_version() {
        let registry = ModelRegistry::new();
        assert_eq!(registry.latest("ms"), None);
        registry.publish("ms", 2, &exported(1)).unwrap();
        registry.publish("ms", 5, &exported(2)).unwrap();
        assert_eq!(registry.latest("ms"), Some(5));
        registry.retire("ms", 5);
        assert_eq!(registry.latest("ms"), Some(2));
    }

    #[test]
    fn gate_rejection_leaves_registry_untouched() {
        let registry = ModelRegistry::new();
        registry.publish("ms", 1, &exported(1)).unwrap();
        let err = registry
            .publish_gated("ms", 2, &exported(2), |_| Err("loss diverged".into()))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::GateRejected { version: 2, .. }
        ));
        assert_eq!(registry.latest("ms"), Some(1));
        assert_eq!(registry.versions("ms"), vec![1]);
        // A passing gate publishes normally.
        registry
            .publish_gated("ms", 2, &exported(2), |plan| {
                if plan.input_len() == 3 {
                    Ok(())
                } else {
                    Err("wrong input width".into())
                }
            })
            .unwrap();
        assert_eq!(registry.latest("ms"), Some(2));
    }

    /// Regression test for the publication race: while a deploy is
    /// mid-flight (compiling, gating, even failing its gate), concurrent
    /// `latest()` / `resolve(None)` readers must never observe the
    /// candidate version. With the old insert-then-check pattern a reader
    /// could resolve the un-gated version in the window before the gate
    /// verdict; `publish_gated` keeps the candidate off the registry
    /// until the gate passes.
    #[test]
    fn readers_never_observe_ungated_versions() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let registry = Arc::new(ModelRegistry::new());
        registry.publish("ms", 1, &exported(1)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let observations = Arc::new(AtomicU64::new(0));

        let reader = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let observations = Arc::clone(&observations);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(latest) = registry.latest("ms") {
                        // Version 2's gate always rejects below, so 2 must
                        // never become the newest visible version; version
                        // 3 only becomes visible *after* its gate passed.
                        assert!(latest == 1 || latest == 3, "observed un-gated v{latest}");
                        let (resolved, _) = registry.resolve("ms", None).unwrap();
                        assert!(resolved == 1 || resolved == 3);
                        observations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };

        // Keep hammering rejected publications until the reader has
        // demonstrably raced a healthy number of them.
        let mut rounds = 0u64;
        while observations.load(Ordering::Relaxed) < 200 && rounds < 200_000 {
            let err = registry
                .publish_gated("ms", 2, &exported(2), |_| Err("divergence guard".into()))
                .unwrap_err();
            assert!(matches!(err, ServeError::GateRejected { .. }));
            rounds += 1;
        }
        registry
            .publish_gated("ms", 3, &exported(3), |_| Ok(()))
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert!(
            observations.load(Ordering::Relaxed) > 0,
            "reader never ran concurrently"
        );
        assert_eq!(registry.versions("ms"), vec![1, 3]);
    }

    #[test]
    fn load_from_store_is_all_or_nothing() {
        let store = Store::in_memory();
        store
            .insert(
                "deployed_models",
                Metadata::created_by("deploy")
                    .with_param(MODEL_PARAM, "ms")
                    .with_param(VERSION_PARAM, "4"),
                &exported(1),
            )
            .unwrap();
        let mut bad = exported(2);
        bad.weights[0][1].pop();
        store
            .insert(
                "deployed_models",
                Metadata::created_by("deploy")
                    .with_param(MODEL_PARAM, "ms")
                    .with_param(VERSION_PARAM, "5"),
                &bad,
            )
            .unwrap();
        let registry = ModelRegistry::new();
        assert!(registry.load_from_store(&store, "deployed_models").is_err());
        // The valid v4 document must not have been committed either.
        assert_eq!(registry.latest("ms"), None);
        assert!(registry.names().is_empty());
    }

    #[test]
    fn load_from_store_rejects_foreign_payloads() {
        let store = Store::in_memory();
        store
            .insert(
                "deployed_models",
                Metadata::created_by("deploy"),
                &serde_json::json!({"not": "a network"}),
            )
            .unwrap();
        let registry = ModelRegistry::new();
        assert!(matches!(
            registry.load_from_store(&store, "deployed_models"),
            Err(ServeError::Store(_))
        ));
    }
}

//! Deploy stage: publish a trained network into the datastore for serving.
//!
//! The paper's Tool 4 ends with "a tool to export the desired ANN for use
//! on embedded platforms". This stage is the toolflow side of that hand-
//! off: it validates the trained network against its spec, wraps it into
//! a [`neural::export::ExportedNetwork`] artifact and inserts it into a
//! [`datastore::Store`] collection with `model` / `model_version`
//! metadata — exactly the layout the `serve` crate's
//! `ModelRegistry::load_from_store` consumes. Provenance parents (the
//! training run, the dataset) ride along via [`Metadata`] lineage.

use datastore::{DocumentId, Metadata, Store};
use neural::export::ExportedNetwork;
use neural::spec::NetworkSpec;
use neural::Network;

use crate::PipelineError;

/// Metadata parameter naming the deployed model (matches
/// `serve::ModelRegistry`'s expectation).
pub const MODEL_PARAM: &str = "model";
/// Metadata parameter carrying the deployed model's version.
pub const VERSION_PARAM: &str = "model_version";

/// Receipt for one deployed model artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedModel {
    /// The datastore document holding the artifact.
    pub document: DocumentId,
    /// Deployed model name.
    pub name: String,
    /// Deployed model version.
    pub version: u32,
    /// Scalar parameters in the artifact.
    pub parameter_count: usize,
}

/// Validates `network` against `spec`, exports it and inserts the
/// artifact into `collection`, versioned one past the newest deployment
/// of the same name already present.
///
/// # Errors
///
/// Returns [`PipelineError::Neural`] if the exported weights do not fit
/// the spec, or [`PipelineError::Store`] if the insert fails.
pub fn deploy_network(
    store: &Store,
    collection: &str,
    name: &str,
    spec: NetworkSpec,
    network: &Network,
    parents: impl IntoIterator<Item = DocumentId>,
) -> Result<DeployedModel, PipelineError> {
    let exported = ExportedNetwork::from_network(spec, network, name);
    exported.validate()?;
    let version = store
        .query(collection, MODEL_PARAM, name)
        .iter()
        .filter_map(|d| d.metadata.params.get(VERSION_PARAM)?.parse::<u32>().ok())
        .max()
        .map_or(1, |v| v + 1);
    let metadata = Metadata::created_by("tool-4-deploy")
        .with_param(MODEL_PARAM, name)
        .with_param(VERSION_PARAM, version)
        .with_param("parameters", exported.parameter_count())
        .with_parents(parents);
    let document = store.insert(collection, metadata, &exported)?;
    Ok(DeployedModel {
        document,
        name: name.to_string(),
        version,
        parameter_count: exported.parameter_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::spec::LayerSpec;
    use neural::Activation;

    fn spec() -> NetworkSpec {
        NetworkSpec::new(6).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Softmax,
        })
    }

    #[test]
    fn deploy_versions_increment_per_name() {
        let store = Store::in_memory();
        let net = spec().build(1).unwrap();
        let first = deploy_network(&store, "deployed", "ms", spec(), &net, []).unwrap();
        let second = deploy_network(&store, "deployed", "ms", spec(), &net, []).unwrap();
        let other = deploy_network(&store, "deployed", "nmr", spec(), &net, []).unwrap();
        assert_eq!(first.version, 1);
        assert_eq!(second.version, 2);
        assert_eq!(other.version, 1);
        assert_eq!(first.parameter_count, 6 * 2 + 2);
    }

    #[test]
    fn deployed_artifact_roundtrips_through_store() {
        let store = Store::in_memory();
        let mut net = spec().build(5).unwrap();
        let receipt = deploy_network(&store, "deployed", "ms", spec(), &net, []).unwrap();
        let exported: ExportedNetwork = store.get_payload(receipt.document).unwrap();
        let mut restored = exported.instantiate().unwrap();
        let x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        assert_eq!(net.predict(&x), restored.predict(&x));
    }

    #[test]
    fn deploy_records_provenance_parents() {
        let store = Store::in_memory();
        let parent = store
            .insert("runs", Metadata::created_by("tool-4"), &serde_json::json!({}))
            .unwrap();
        let net = spec().build(1).unwrap();
        let receipt = deploy_network(&store, "deployed", "ms", spec(), &net, [parent]).unwrap();
        assert_eq!(store.lineage(receipt.document).unwrap(), vec![receipt.document, parent]);
    }
}

//! The Tool-4 model hand-off shared by the `handoff` Criterion group and
//! the `model_handoff` tests: the two served networks with fixed weights,
//! deployed into one datastore collection by the core pipeline's deploy
//! stage, exactly as the toolflow does.

use datastore::Store;
use ms_sim::campaign::MS_TASK_SUBSTANCES;
use ms_sim::instrument::default_axis;
use neural::spec::NetworkSpec;
use neural::Network;
use spectroai::pipeline::deploy::deploy_network;
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

/// The collection the hand-off deploys into.
pub const COLLECTION: &str = "deployed_models";

/// A served model: its name, its spec and the network built from it.
pub type ServedModel = (&'static str, NetworkSpec, Network);

/// The Table-1 MS CNN and the 5-step NMR LSTM (221,956 weights), built
/// with fixed seeds.
pub fn served_models() -> [ServedModel; 2] {
    let table1 = MsPipeline::table1_spec(
        default_axis().len(),
        MS_TASK_SUBSTANCES.len(),
        ActivationChoice::paper_best(),
    );
    let lstm = NmrPipeline::lstm_spec(5);
    [
        ("table1-ms", table1.clone(), table1.build(11).expect("table1")),
        ("nmr-lstm", lstm.clone(), lstm.build(21).expect("lstm")),
    ]
}

/// A fresh in-memory store with every model deployed into
/// [`COLLECTION`], with no parents.
pub fn deployed_store(models: &[ServedModel]) -> Store {
    let store = Store::in_memory();
    for (name, spec, network) in models {
        deploy_network(&store, COLLECTION, name, spec.clone(), network, []).expect("deploy");
    }
    store
}

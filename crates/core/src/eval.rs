//! Evaluation backend: quality criteria, best-network selection and
//! embedded export.
//!
//! "Backend tools help with the evaluation of the trained networks with
//! different training datasets, the selection of the best-performing
//! networks, based on selectable quality criteria and the export of
//! analysis data" (paper §III.A.2).

use neural::export::ExportedNetwork;
use neural::spec::NetworkSpec;
use neural::Network;
use serde::{Deserialize, Serialize};

use crate::PipelineError;

/// One evaluated candidate network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Candidate name (e.g. the Figure 5 activation label).
    pub name: String,
    /// Mean MAE over all outputs (fractions).
    pub overall_mae: f64,
    /// Per-output MAE.
    pub per_output_mae: Vec<f64>,
    /// Output (substance) names.
    pub outputs: Vec<String>,
}

impl EvaluationReport {
    /// Builds a report from per-output errors.
    ///
    /// # Panics
    ///
    /// Panics if `per_output_mae` and `outputs` differ in length or are
    /// empty.
    pub fn new(
        name: impl Into<String>,
        per_output_mae: Vec<f64>,
        outputs: Vec<String>,
    ) -> Self {
        assert_eq!(per_output_mae.len(), outputs.len(), "output count");
        assert!(!outputs.is_empty(), "at least one output");
        let overall = per_output_mae.iter().sum::<f64>() / per_output_mae.len() as f64;
        Self {
            name: name.into(),
            overall_mae: overall,
            per_output_mae,
            outputs,
        }
    }

    /// The worst single output error.
    pub fn worst_output_mae(&self) -> f64 {
        self.per_output_mae
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A selectable quality criterion for ranking candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityCriterion {
    /// Rank by the mean error over outputs (the paper's default).
    MeanError,
    /// Rank by the worst per-output error (guards against one substance
    /// failing badly while the mean looks fine).
    WorstOutput,
}

impl QualityCriterion {
    /// The score of a report under this criterion (lower is better).
    pub fn score(&self, report: &EvaluationReport) -> f64 {
        match self {
            QualityCriterion::MeanError => report.overall_mae,
            QualityCriterion::WorstOutput => report.worst_output_mae(),
        }
    }
}

/// Selects the best candidate under `criterion`.
///
/// Returns `None` for an empty slice.
pub fn select_best(
    reports: &[EvaluationReport],
    criterion: QualityCriterion,
) -> Option<&EvaluationReport> {
    reports.iter().min_by(|a, b| {
        // total_cmp orders finite scores identically to partial_cmp and
        // stays panic-free if a score ever goes non-finite.
        criterion.score(a).total_cmp(&criterion.score(b))
    })
}

/// Checks a report against an acceptance threshold — the paper's initial
/// target was "a mean error of no more than 0.005 on the validation
/// data" (0.5 % absolute deviation).
pub fn meets_target(report: &EvaluationReport, max_mean_mae: f64) -> bool {
    report.overall_mae <= max_mean_mae
}

/// Exports a trained network for embedded deployment together with its
/// estimated footprint on a target device.
///
/// # Errors
///
/// Returns [`PipelineError::Neural`] on serialization failure.
pub fn export_for_embedded(
    spec: NetworkSpec,
    network: &Network,
    name: &str,
    device: &platform::Device,
) -> Result<EmbeddedArtifact, PipelineError> {
    let exported = ExportedNetwork::from_network(spec, network, name);
    let workload = platform::Workload::new(name, network.macs_per_inference(), network.param_count());
    let per_sample = platform::estimate(device, &workload, 1);
    let json = exported.to_json()?;
    Ok(EmbeddedArtifact {
        exported,
        json_bytes: json.len(),
        device_name: device.name.clone(),
        seconds_per_inference: per_sample.seconds,
        energy_per_inference_joules: per_sample.energy_joules,
    })
}

/// A deployable artifact plus its estimated embedded footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedArtifact {
    /// The serialized network.
    pub exported: ExportedNetwork,
    /// Size of the JSON artifact in bytes.
    pub json_bytes: usize,
    /// The target device name.
    pub device_name: String,
    /// Estimated latency per inference on the target.
    pub seconds_per_inference: f64,
    /// Estimated energy per inference on the target.
    pub energy_per_inference_joules: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::spec::LayerSpec;
    use neural::Activation;

    fn report(name: &str, errors: &[f64]) -> EvaluationReport {
        EvaluationReport::new(
            name,
            errors.to_vec(),
            errors.iter().enumerate().map(|(i, _)| format!("s{i}")).collect(),
        )
    }

    #[test]
    fn overall_is_mean_of_outputs() {
        let r = report("a", &[0.01, 0.03]);
        assert!((r.overall_mae - 0.02).abs() < 1e-12);
        assert_eq!(r.worst_output_mae(), 0.03);
    }

    #[test]
    fn selection_by_mean_vs_worst_can_differ() {
        let candidates = vec![
            report("balanced", &[0.02, 0.02]),
            report("spiky", &[0.001, 0.035]),
        ];
        let by_mean = select_best(&candidates, QualityCriterion::MeanError).unwrap();
        assert_eq!(by_mean.name, "spiky"); // mean 0.018 < 0.02
        let by_worst = select_best(&candidates, QualityCriterion::WorstOutput).unwrap();
        assert_eq!(by_worst.name, "balanced"); // worst 0.02 < 0.035
    }

    #[test]
    fn empty_selection_is_none() {
        assert!(select_best(&[], QualityCriterion::MeanError).is_none());
    }

    #[test]
    fn target_check() {
        let r = report("a", &[0.004, 0.005]);
        assert!(meets_target(&r, 0.005));
        assert!(!meets_target(&r, 0.004));
    }

    #[test]
    fn embedded_export_roundtrip() {
        let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Softmax,
        });
        let net = spec.build(1).unwrap();
        let artifact =
            export_for_embedded(spec, &net, "demo", &platform::Device::jetson_nano_gpu())
                .unwrap();
        assert!(artifact.json_bytes > 0);
        assert!(artifact.seconds_per_inference > 0.0);
        let mut restored = artifact.exported.instantiate().unwrap();
        assert_eq!(restored.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
    }
}

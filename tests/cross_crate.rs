//! Cross-crate consistency checks: the pieces the pipelines compose must
//! agree on conventions (axes, label orders, parameter counts, units).

use chem::nmr::{lithiation_components, LITHIATION_NAMES};
use chem::reaction::{default_doe, LithiationReaction};
use ms_sim::campaign::MS_TASK_SUBSTANCES;
use ms_sim::instrument::default_axis;
use platform::{estimate, Device, Workload};
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

#[test]
fn ms_axis_matches_table1_input() {
    // The default axis must produce exactly the 397 inputs of Table 1.
    let axis = default_axis();
    assert_eq!(axis.len(), 397);
    let spec = MsPipeline::table1_spec(axis.len(), MS_TASK_SUBSTANCES.len(), ActivationChoice::paper_best());
    let net = spec.build(1).unwrap();
    assert_eq!(net.input_len(), axis.len());
    assert_eq!(net.output_len(), MS_TASK_SUBSTANCES.len());
}

#[test]
fn nmr_axis_component_order_and_param_counts_agree() {
    let axis = nmr_sim::nmr_axis();
    assert_eq!(axis.len(), 1700);
    // Component library order matches the canonical names everywhere.
    let components = lithiation_components();
    for (c, name) in components.iter().zip(LITHIATION_NAMES) {
        assert_eq!(c.name(), name);
    }
    // Both model topologies hit the paper's exact parameter counts.
    assert_eq!(NmrPipeline::cnn_spec().build(1).unwrap().param_count(), 10_532);
    assert_eq!(
        NmrPipeline::lstm_spec(5).build(1).unwrap().param_count(),
        221_956
    );
}

#[test]
fn reaction_concentrations_fit_augmentation_ranges() {
    // Every DoE steady state must be inside the augmentation sampling
    // ranges, otherwise trained networks would extrapolate (the paper
    // warns "application is limited to parameter ranges within the
    // training data").
    let reaction = LithiationReaction::new();
    let bounds = nmr_sim::augment::AugmentationConfig::default().concentration_max;
    for point in default_doe() {
        let conc = reaction.steady_state(&point).unwrap().to_vec();
        for (value, bound) in conc.iter().zip(&bounds) {
            assert!(
                value <= bound,
                "steady state {value} exceeds augmentation bound {bound}"
            );
        }
    }
}

#[test]
fn platform_workload_derives_from_real_networks() {
    // Table 1 network -> platform model: the MAC count feeding Table 2
    // comes from the actual built network, not a hand-typed constant.
    let net = MsPipeline::table1_spec(397, 8, ActivationChoice::paper_best())
        .build(1)
        .unwrap();
    let workload = Workload::new("table1", net.macs_per_inference(), net.param_count());
    assert!(workload.macs_per_inference > 1_000_000);
    assert_eq!(workload.parameters, net.param_count());
    let run = estimate(&Device::jetson_nano_gpu(), &workload, 21_600);
    assert!(run.seconds > 1.0 && run.seconds < 100.0);
}

#[test]
fn ihm_and_cnn_share_component_units() {
    // A spectrum synthesized at known concentrations must be read back
    // consistently by IHM (model units == mol/L).
    use chemometrics::ihm::IhmAnalyzer;
    use spectrum::ContinuousSpectrum;

    let axis = nmr_sim::nmr_axis();
    let components = lithiation_components();
    let truth = [0.4, 0.3, 0.2, 0.1];
    let mut mixture = ContinuousSpectrum::zeros(axis);
    for (component, &c) in components.iter().zip(&truth) {
        mixture
            .add_assign(&component.render(&axis, c, 0.0, 1.0).unwrap())
            .unwrap();
    }
    let analyzer = IhmAnalyzer::new(components, axis).unwrap();
    let fit = analyzer.fit(&mixture).unwrap();
    for (found, expect) in fit.concentrations.iter().zip(&truth) {
        assert!((found - expect).abs() < 0.01, "{found} vs {expect}");
    }
}

#[test]
fn peak_detection_finds_expected_fragments_in_measured_spectra() {
    // A prototype measurement must show the mixture's base peaks and the
    // ignition-gas line where the fragment tables put them: within
    // ±0.5 m/z of each position, the largest sample is a local maximum
    // and clears a multiple of the spectrum's median, its noise floor.
    use chem::Mixture;
    use ms_sim::prototype::MmsPrototype;

    let mut mms = MmsPrototype::new(55);
    let mixture = Mixture::from_fractions(vec![
        ("N2".into(), 0.6),
        ("CO2".into(), 0.4),
    ])
    .unwrap();
    let sample = mms.measure(&mixture).unwrap();
    let axis = sample.spectrum.axis();
    let ys = sample.spectrum.intensities();
    let mut sorted = ys.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    assert!(median > 0.0, "median {median}");
    // N2 (m/z 28) and CO2 (m/z 44) are the base peaks. The He ignition
    // gas (m/z 4) shows up without being in the mixture, but weakly
    // (sensitivity 0.14 × level 0.25, and the hidden gain fluctuation can
    // shrink it further), so it gets a lower multiple.
    for (mz, multiple) in [(28.0, 400.0), (44.0, 400.0), (4.0, 40.0)] {
        let top = (0..ys.len())
            .filter(|&i| (axis.value_at(i) - mz).abs() <= 0.5)
            .max_by(|&a, &b| ys[a].total_cmp(&ys[b]))
            .unwrap();
        assert!(
            top > 0 && top + 1 < ys.len() && ys[top] > ys[top - 1] && ys[top] >= ys[top + 1],
            "largest sample near m/z {mz} (index {top}) is not a local maximum"
        );
        assert!(
            ys[top] > multiple * median,
            "no peak near m/z {mz}: {} is not above {multiple} × median {median}",
            ys[top]
        );
    }
}

#[test]
fn formula_parser_agrees_with_gas_library_masses() {
    use chem::formula::molar_mass;
    use chem::fragmentation::GasLibrary;

    for pattern in &GasLibrary::standard() {
        let compound = pattern.compound();
        let parsed = molar_mass(compound.formula()).unwrap();
        assert!(
            (parsed - compound.molar_mass()).abs() < 0.05,
            "{}: parsed {parsed} vs library {}",
            compound.name(),
            compound.molar_mass()
        );
    }
}

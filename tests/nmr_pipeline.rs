//! End-to-end integration test of the NMR flow (acquisition →
//! augmentation → CNN/LSTM training → IHM comparison).

use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};

#[test]
fn nmr_pipeline_trains_both_models() {
    let config = NmrPipelineConfig::quick_test();
    let report = NmrPipeline::new(config).unwrap().run().unwrap();

    assert_eq!(report.cnn.parameters, 10_532);
    assert_eq!(report.lstm.parameters, 221_956);
    assert_eq!(report.experiment.len(), 300);

    // The CNN must learn the task to a useful level even at CI scale
    // (concentrations are 0–0.85 mol/L; MSE below 0.01 means ~<0.1 mol/L
    // typical error).
    assert!(report.cnn.mse < 0.02, "cnn mse {}", report.cnn.mse);
    assert!(report.lstm.mse.is_finite());
    assert!(report.cnn.seconds_per_spectrum > 0.0);
    assert!(report.lstm.seconds_per_spectrum > 0.0);
    assert!(report.ihm.is_none(), "quick config skips IHM");
}

/// spectrobench's toolflow configuration, where the LSTM datasets are
/// windows over one row buffer each.
fn toolflow_config() -> NmrPipelineConfig {
    NmrPipelineConfig {
        augmented_spectra: 200,
        cnn_epochs: 3,
        lstm_epochs: 1,
        lstm_windows: 30,
        run_ihm: true,
        ihm_max_spectra: Some(2),
        seed: 42,
        ..NmrPipelineConfig::default()
    }
}

#[test]
fn toolflow_scores_are_bit_identical() {
    // Recorded when every LSTM window was a copy of its five spectra;
    // holding each spectrum once as a row must not move a bit.
    let report = NmrPipeline::new(toolflow_config()).unwrap().run().unwrap();
    let scores = [
        ("lstm.mse", report.lstm.mse, 0x3fb7_d206_03d0_c538_u64),
        ("cnn.mse", report.cnn.mse, 0x3fa3_1ce7_261a_b30c),
        ("lstm.plateau_std", report.lstm.plateau_std, 0x3f98_78d1_38ae_bd44),
        ("cnn.plateau_std", report.cnn.plateau_std, 0x3fac_dc42_8002_2851),
    ];
    for (name, value, bits) in scores {
        assert_eq!(
            value.to_bits(),
            bits,
            "{name} = {value}, expected {}",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn ihm_baseline_recovers_concentrations_on_experimental_data() {
    use chem::nmr::lithiation_components;
    use chemometrics::ihm::IhmAnalyzer;
    use nmr_sim::experiment::{ExperimentConfig, FlowReactorExperiment};

    let run = FlowReactorExperiment::new(9, ExperimentConfig::default())
        .acquire()
        .unwrap();
    let analyzer = IhmAnalyzer::new(lithiation_components(), *run.spectra[0].axis()).unwrap();
    // Analyze a handful of spectra from different plateaus.
    let mut square_error = 0.0;
    let mut n = 0usize;
    for &i in &[0usize, 80, 160, 240, 299] {
        let fit = analyzer.fit(&run.spectra[i]).unwrap();
        for (p, r) in fit.concentrations.iter().zip(&run.reference[i]) {
            square_error += (p - r) * (p - r);
            n += 1;
        }
    }
    let mse = square_error / n as f64;
    assert!(mse < 0.03, "IHM mse {mse}");
}

#[test]
fn augmentation_size_improves_cnn_accuracy() {
    // The core claim of the paper's augmentation method: more synthetic
    // spectra -> better model (up to saturation).
    let small = NmrPipelineConfig {
        augmented_spectra: 60,
        cnn_epochs: 8,
        lstm_epochs: 1,
        lstm_windows: 20,
        run_ihm: false,
        ..NmrPipelineConfig::quick_test()
    };
    let large = NmrPipelineConfig {
        augmented_spectra: 800,
        cnn_epochs: 8,
        lstm_epochs: 1,
        lstm_windows: 20,
        run_ihm: false,
        ..NmrPipelineConfig::quick_test()
    };
    let small_report = NmrPipeline::new(small).unwrap().run().unwrap();
    let large_report = NmrPipeline::new(large).unwrap().run().unwrap();
    assert!(
        large_report.cnn.mse < small_report.cnn.mse,
        "more augmentation should help: {} vs {}",
        large_report.cnn.mse,
        small_report.cnn.mse
    );
}

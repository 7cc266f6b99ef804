//! `Network::predict_batch` against per-sample `Network::predict`, bit
//! for bit, on the paper's three networks: the LSTM, whose batched path
//! projects each distinct timestep row once, and the NMR CNN and Table-1
//! MS net, which run the layers' per-sample default.

use spectroai::neural::Network;
use spectroai::nmr_sim::experiment::{ExperimentConfig, FlowReactorExperiment};
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

/// Scaled experimental spectra, as the NMR pipeline feeds them.
fn experimental_spectra(n: usize) -> Vec<Vec<f32>> {
    let run = FlowReactorExperiment::new(7, ExperimentConfig::default())
        .acquire()
        .unwrap();
    run.spectra
        .iter()
        .take(n)
        .map(|s| s.to_f32().into_iter().map(|v| v * 0.02).collect())
        .collect()
}

/// Compares `predict_batch` over `inputs`, cut into batches of each size,
/// with `predict` on every input.
fn assert_batches_match_predict(what: &str, net: &mut Network, inputs: &[Vec<f32>], sizes: &[usize]) {
    let want: Vec<Vec<f32>> = inputs.iter().map(|x| net.predict(x)).collect();
    for &size in sizes {
        let mut got = Vec::new();
        for batch in inputs.chunks(size) {
            got.extend(net.predict_batch(batch).unwrap());
        }
        assert_eq!(got.len(), want.len(), "{what} batch {size}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let same = g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what} batch {size} sample {i}: {g:?} vs {w:?}");
        }
    }
}

#[test]
fn lstm_predict_batch_is_bit_identical_to_predict() {
    let mut spectra = experimental_spectra(40);
    // Neighbours that differ from the row before only in the sign of a
    // zero or by one ULP must not share its projection.
    spectra[10][0] = 0.0;
    let mut negative_zero = spectra[10].clone();
    negative_zero[0] = -0.0;
    spectra.insert(11, negative_zero);
    let mut ulp = spectra[20].clone();
    ulp[5] = f32::from_bits(ulp[5].to_bits() + 1);
    spectra.insert(21, ulp);
    // A plateau: the same spectrum three times in a row.
    spectra.insert(30, spectra[30].clone());
    spectra.insert(30, spectra[30].clone());

    let mut net = NmrPipeline::lstm_spec(5).build(3).unwrap();
    let sliding: Vec<Vec<f32>> = spectra.windows(5).map(|w| w.concat()).collect();
    let disjoint: Vec<Vec<f32>> = spectra.chunks_exact(5).map(|w| w.concat()).collect();
    assert_batches_match_predict("sliding", &mut net, &sliding, &[1, 7, sliding.len()]);
    assert_batches_match_predict("disjoint", &mut net, &disjoint, &[1, 3, disjoint.len()]);
}

#[test]
fn nmr_cnn_predict_batch_is_bit_identical_to_predict() {
    // 100 spectra cross the 21-sample chunk of this net's widest layer.
    let spectra = experimental_spectra(100);
    let mut net = NmrPipeline::cnn_spec().build(3).unwrap();
    assert_batches_match_predict("nmr cnn", &mut net, &spectra, &[1, 13, spectra.len()]);
}

#[test]
fn table1_predict_batch_is_bit_identical_to_predict() {
    // The 25 x 378 first conv is wider than a chunk: one sample at a time.
    let inputs: Vec<Vec<f32>> = (0..15)
        .map(|s| (0..397).map(|i| ((i * (s + 3)) as f32 * 0.013).sin().max(0.0)).collect())
        .collect();
    let mut net = MsPipeline::table1_spec(397, 8, ActivationChoice::paper_best())
        .build(1)
        .unwrap();
    assert_batches_match_predict("table 1", &mut net, &inputs, &[1, 7, inputs.len()]);
}

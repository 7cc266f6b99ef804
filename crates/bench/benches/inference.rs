//! Inference-latency benchmarks backing the paper's §III.B.3 timing
//! claims: the CNN "takes only 0.9 ms for predicting a single spectrum
//! ... and is therefore more than 1000 times faster than an IHM
//! analysis"; the LSTM "prediction time ... is still very low at
//! 1.05 ms". Our Rust inference is faster than Keras dispatch, but the
//! CNN ≪ LSTM ≪ IHM ordering and the >1000× CNN-vs-IHM gap are the
//! reproduced shape. Also times the MS Table 1 network (Table 2 input),
//! both through `Network::predict` and through the compiled
//! `FrozenPlan` the serving tier runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chem::nmr::lithiation_components;
use chemometrics::ihm::IhmAnalyzer;
use ms_sim::campaign::MS_TASK_SUBSTANCES;
use neural::kernels::Scratch;
use neural::plan::FrozenPlan;
use nmr_sim::experiment::{ExperimentConfig, FlowReactorExperiment};
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

fn nmr_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("nmr_inference");
    group.sample_size(20);

    // One experimental spectrum as the common input.
    let run = FlowReactorExperiment::new(3, ExperimentConfig::default())
        .acquire()
        .expect("acquire");
    let spectrum = &run.spectra[150];
    let input: Vec<f32> = spectrum.to_f32();

    let mut cnn = NmrPipeline::cnn_spec().build(1).expect("cnn");
    group.bench_function("cnn_single_spectrum", |b| {
        b.iter(|| black_box(cnn.predict(black_box(&input))))
    });

    let mut lstm = NmrPipeline::lstm_spec(5).build(1).expect("lstm");
    let window: Vec<f32> = (145..150)
        .flat_map(|i| run.spectra[i].to_f32())
        .collect();
    group.bench_function("lstm_five_step_window", |b| {
        b.iter(|| black_box(lstm.predict(black_box(&window))))
    });

    let analyzer =
        IhmAnalyzer::new(lithiation_components(), *spectrum.axis()).expect("analyzer");
    group.sample_size(10);
    group.bench_function("ihm_single_spectrum", |b| {
        b.iter(|| black_box(analyzer.fit(black_box(spectrum)).expect("fit")))
    });
    group.finish();
}

fn ms_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("ms_inference");
    group.sample_size(30);
    let spec = MsPipeline::table1_spec(397, MS_TASK_SUBSTANCES.len(), ActivationChoice::paper_best());
    let mut net = spec.build(1).expect("table1 network");
    let input = vec![0.05f32; 397];
    group.bench_function("table1_single_spectrum", |b| {
        b.iter(|| black_box(net.predict(black_box(&input))))
    });

    // The serving path: the compiled plan's batched kernels with a
    // reused scratch arena, at batch 1 and at the serving tier's full
    // batch of 32 (time per call, not per sample).
    let plan = FrozenPlan::from_spec_weights("table1", &spec, &net.export_weights())
        .expect("table1 plan");
    let mut scratch = Scratch::new();
    let mut outputs = Vec::new();
    for batch in [1usize, 32] {
        let block: Vec<f32> = (0..batch * 397).map(|i| ((i as f32) * 0.37).sin().abs()).collect();
        group.bench_function(format!("table1_plan_b{batch}"), |b| {
            b.iter(|| {
                outputs.clear();
                plan.predict_batch_scratch(black_box(&block), &mut outputs, &mut scratch, &mut |_, _| {})
                    .expect("plan batch");
                black_box(&outputs);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, nmr_models, ms_network);
criterion_main!(benches);

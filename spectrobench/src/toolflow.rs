//! The paper's two toolflows at a fixed reduced scale with fixed seeds.
//!
//! Untraced, each flow is one call into the pipeline (`MsPipeline::run`,
//! `NmrPipeline::run`). Traced, the benchmark calls the same stage
//! functions the pipeline calls, in the same order, with a span around
//! each, so the stage self-times can be checked against the whole.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serve::{ModelRegistry, Request, Router};
use spectroai::chem::fragmentation::GasLibrary;
use spectroai::chem::nmr::lithiation_components;
use spectroai::chemometrics::ihm::IhmAnalyzer;
use spectroai::datastore::Store;
use spectroai::ms_sim::campaign::{run_calibration_campaign, run_evaluation_campaign};
use spectroai::ms_sim::characterize::Characterizer;
use spectroai::ms_sim::prototype::MmsPrototype;
use spectroai::ms_sim::simulate::TrainingSimulator;
use spectroai::neural::optim::OptimizerSpec;
use spectroai::neural::train::{Dataset, TrainConfig, Trainer};
use spectroai::neural::{Loss, Network};
use spectroai::nmr_sim::augment::SpectraAugmenter;
use spectroai::nmr_sim::experiment::FlowReactorExperiment;
use spectroai::nmr_sim::sequence::{plateau_training_sequences, sliding_windows};
use spectroai::pipeline::deploy::deploy_network;
use spectroai::pipeline::ms::{evaluate_on, MsPipeline, MsPipelineConfig};
use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};

use crate::host;
use crate::serving::{router_config, COLLECTION};
use crate::trace::Tracer;

type Res<T> = Result<T, String>;

const PROTOTYPE_SEED: u64 = 7;

/// Reduced MS scale: Table-1 on the paper's 397-point axis.
pub fn ms_config() -> MsPipelineConfig {
    MsPipelineConfig {
        calibration_samples_per_mixture: 6,
        training_spectra: 60,
        evaluation_samples_per_mixture: 3,
        epochs: 2,
        seed: 42,
        ..MsPipelineConfig::default()
    }
}

/// Reduced NMR scale: the full 300-spectrum acquisition, a small
/// augmentation, and IHM on a fixed subset.
pub fn nmr_config() -> NmrPipelineConfig {
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

/// What one MS flow produced.
#[derive(Debug, Clone, Default)]
pub struct MsFlow {
    pub wall_s: f64,
    /// Process CPU time of the flow.
    pub cpu_s: f64,
    pub val_mae: f64,
    /// Stage timings, traced runs only.
    pub calibration_s: f64,
    pub characterize_s: f64,
    pub simulate_s: f64,
    pub train_s: f64,
    pub train_samples: usize,
    pub train_epochs: usize,
    pub macs_per_inference: u64,
    pub deploy_s: f64,
    pub load_s: f64,
    pub first_prediction_s: f64,
    /// Sum of the stage self-times under the flow's root span.
    pub stage_self_s: f64,
}

/// What one NMR flow produced.
#[derive(Debug, Clone, Default)]
pub struct NmrFlow {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub lstm_mse: f64,
    pub acquire_s: f64,
    pub augment_s: f64,
    pub augmented: usize,
    pub cnn_train_s: f64,
    pub cnn_samples: usize,
    pub lstm_train_s: f64,
    pub lstm_samples: usize,
    pub ihm_fit_s: Vec<f64>,
    pub stage_self_s: f64,
}

fn e<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// Deploy → load → first prediction through a fresh tier: the MS flow's
/// hand-off to serving. Returns the three stage durations.
fn deploy_and_serve(
    tracer: &Tracer,
    parent: Option<u64>,
    report_spec: spectroai::neural::spec::NetworkSpec,
    network: &mut Network,
    probe: &[f32],
) -> Res<(f64, f64, f64)> {
    let store = Store::in_memory();
    let (deployed, deploy) = tracer.time("datastore.deploy", parent, || {
        deploy_network(&store, COLLECTION, "table1-ms", report_spec, network, [])
    });
    deployed.map_err(e)?;
    let registry = Arc::new(ModelRegistry::new());
    let (loaded, load) = tracer.time("registry.load_from_store", parent, || {
        registry.load_from_store(&store, COLLECTION)
    });
    if loaded.map_err(e)? != 1 {
        return Err("toolflow: registry did not load the deployed model".into());
    }
    let (served, first) = tracer.time("serve.first_prediction", parent, || -> Res<Vec<f32>> {
        let router = Router::start(Arc::clone(&registry), router_config()).map_err(e)?;
        let out = router
            .submit(Request::new("table1-ms", probe.to_vec()))
            .map_err(e)?
            .wait()
            .map_err(e)?;
        router.shutdown();
        Ok(out.output)
    });
    let served = served?;
    let expected = network.predict(probe);
    if crate::serving::max_abs_diff(&served, &expected) > crate::serving::TOLERANCE {
        return Err("toolflow: first served prediction differs from Network::predict".into());
    }
    Ok((
        deploy.as_secs_f64(),
        load.as_secs_f64(),
        first.as_secs_f64(),
    ))
}

/// The MS toolflow, untraced: `MsPipeline::run`, then deploy, load and
/// the first prediction through a fresh tier.
pub fn ms_flow(tracer: &Tracer) -> Res<MsFlow> {
    let cpu = host::process_cpu_s();
    let root = tracer.begin("ms.toolflow", None);
    let root_id = root.id;
    let mut prototype = MmsPrototype::new(PROTOTYPE_SEED);
    let pipeline = MsPipeline::new(ms_config()).map_err(e)?;
    let (report, _) = tracer.time("ms.pipeline_run", Some(root_id), || {
        pipeline.run(&mut prototype)
    });
    let mut report = report.map_err(e)?;
    let probe = vec![0.01f32; report.network.input_len()];
    let (deploy, load, first) = deploy_and_serve(
        tracer,
        Some(root_id),
        report.spec.clone(),
        &mut report.network,
        &probe,
    )?;
    let wall = tracer.end(root).as_secs_f64();
    Ok(MsFlow {
        wall_s: wall,
        cpu_s: host::process_cpu_s() - cpu,
        val_mae: report.validation_mae,
        deploy_s: deploy,
        load_s: load,
        first_prediction_s: first,
        ..MsFlow::default()
    })
}

/// The MS toolflow stage by stage, mirroring `MsPipeline::run`.
pub fn ms_flow_staged(tracer: &Tracer) -> Res<MsFlow> {
    let cpu = host::process_cpu_s();
    let config = ms_config();
    let root = tracer.begin("ms.toolflow", None);
    let p = Some(root.id);
    let mut prototype = MmsPrototype::new(PROTOTYPE_SEED);
    let (calibration, calibration_t) = tracer.time("ms-sim.calibration", p, || {
        run_calibration_campaign(&mut prototype, config.calibration_samples_per_mixture)
    });
    let calibration = calibration.map_err(e)?;
    if calibration
        .iter()
        .any(|s| s.spectrum.axis() != &config.axis)
    {
        return Err("toolflow: prototype axis differs from the pipeline axis".into());
    }
    let (characterization, characterize_t) = tracer.time("ms-sim.characterize", p, || {
        Characterizer::new(GasLibrary::standard(), Some("He".into())).characterize(&calibration)
    });
    let characterization = characterization.map_err(e)?;
    let (simulated, simulate_t) = tracer.time("ms-sim.simulate", p, || {
        let simulator = TrainingSimulator::new(
            characterization.model.clone(),
            GasLibrary::standard(),
            config.substances.clone(),
            config.axis,
        )?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        simulator.generate_dataset(config.training_spectra, &mut rng)
    });
    let simulated = simulated.map_err(e)?;
    let (split, _) = tracer.time("ms.dataset", p, || {
        Dataset::new(simulated.inputs_f32(), simulated.labels_f32()).and_then(|d| d.split(0.8))
    });
    let (train, validation) = split.map_err(e)?;
    let spec = MsPipeline::table1_spec(
        config.axis.len(),
        config.substances.len(),
        config.activations,
    );
    let mut network = spec.build(config.seed).map_err(e)?;
    let train_config = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        optimizer: OptimizerSpec::Adam {
            lr: config.learning_rate,
        },
        loss: Loss::Mae,
        shuffle: true,
        seed: config.seed,
        restore_best: true,
        stop_at_val_loss: config.target_validation_mae,
    };
    let (history, train_t) = tracer.time("neural.train.ms", p, || {
        Trainer::new(train_config).fit(&mut network, &train, Some(&validation))
    });
    let history = history.map_err(e)?;
    let (val_mae, _) = tracer.time("ms.validate", p, || {
        let per = validation.per_output_mae(&mut network);
        per.iter().sum::<f64>() / per.len() as f64
    });
    let (measured, _) = tracer.time("ms.evaluate", p, || -> Res<f64> {
        let measured =
            run_evaluation_campaign(&mut prototype, config.evaluation_samples_per_mixture)
                .map_err(e)?;
        Ok(evaluate_on(&mut network, &measured).map_err(e)?.0)
    });
    measured?;
    let probe = vec![0.01f32; network.input_len()];
    let (deploy, load, first) = deploy_and_serve(tracer, p, spec, &mut network, &probe)?;
    let root_id = root.id;
    let wall = tracer.end(root).as_secs_f64();
    Ok(MsFlow {
        wall_s: wall,
        cpu_s: host::process_cpu_s() - cpu,
        val_mae,
        calibration_s: calibration_t.as_secs_f64(),
        characterize_s: characterize_t.as_secs_f64(),
        simulate_s: simulate_t.as_secs_f64(),
        train_s: train_t.as_secs_f64(),
        train_samples: train.len(),
        train_epochs: history.train_loss.len(),
        macs_per_inference: network.macs_per_inference(),
        deploy_s: deploy,
        load_s: load,
        first_prediction_s: first,
        stage_self_s: crate::trace::stage_self_time(&tracer.spans(), root_id),
    })
}

/// The NMR toolflow, untraced: one `NmrPipeline::run`.
pub fn nmr_flow(tracer: &Tracer) -> Res<NmrFlow> {
    let pipeline = NmrPipeline::new(nmr_config()).map_err(e)?;
    let cpu = host::process_cpu_s();
    let (report, wall) = tracer.time("nmr.toolflow", None, || pipeline.run());
    let report = report.map_err(e)?;
    Ok(NmrFlow {
        wall_s: wall.as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu,
        lstm_mse: report.lstm.mse,
        ..NmrFlow::default()
    })
}

/// The NMR toolflow stage by stage, mirroring `NmrPipeline::run` (the
/// scoring arithmetic between stages is left out and shows as the
/// reconciliation residual).
pub fn nmr_flow_staged(tracer: &Tracer) -> Res<NmrFlow> {
    let cpu = host::process_cpu_s();
    let config = nmr_config();
    let root = tracer.begin("nmr.toolflow", None);
    let p = Some(root.id);
    let scale = config.input_scale as f32;
    let (run, acquire_t) = tracer.time("nmr-sim.acquire", p, || {
        FlowReactorExperiment::new(config.seed, config.experiment).acquire()
    });
    let run = run.map_err(e)?;
    let (validation, _) = tracer.time("nmr.dataset", p, || {
        let inputs: Vec<Vec<f32>> = run
            .spectra
            .iter()
            .map(|s| s.to_f32().into_iter().map(|v| v * scale).collect())
            .collect();
        let reference: Vec<Vec<f32>> = run
            .reference
            .iter()
            .map(|r| r.iter().map(|&v| v as f32).collect())
            .collect();
        Dataset::new(inputs, reference)
    });
    let validation = validation.map_err(e)?;
    let (synthetic, augment_t) = tracer.time("nmr-sim.augment", p, || {
        let augmenter = SpectraAugmenter::new(config.augmentation.clone())?;
        let mut synthetic = augmenter.generate(config.augmented_spectra, config.seed ^ 0xA5A5)?;
        for row in &mut synthetic.inputs {
            for v in row.iter_mut() {
                *v *= config.input_scale;
            }
        }
        Ok::<_, spectroai::nmr_sim::NmrSimError>(synthetic)
    });
    let synthetic = synthetic.map_err(e)?;
    let train_config = |epochs| TrainConfig {
        epochs,
        batch_size: config.batch_size,
        optimizer: OptimizerSpec::Adam {
            lr: config.learning_rate,
        },
        loss: Loss::Mse,
        shuffle: true,
        seed: config.seed,
        restore_best: true,
        stop_at_val_loss: None,
    };
    let mut cnn = NmrPipeline::cnn_spec().build(config.seed).map_err(e)?;
    let cnn_train = Dataset::new(synthetic.inputs_f32(), synthetic.labels_f32()).map_err(e)?;
    let (fit, cnn_t) = tracer.time("neural.train.cnn", p, || {
        Trainer::new(train_config(config.cnn_epochs)).fit(&mut cnn, &cnn_train, Some(&validation))
    });
    let cnn_history = fit.map_err(e)?;
    tracer.time("nmr.evaluate_cnn", p, || {
        for x in validation.inputs() {
            std::hint::black_box(cnn.predict(x));
        }
    });
    let (lstm_data, _) = tracer.time("nmr.sequences", p, || -> Res<(Dataset, Dataset)> {
        let sequences = plateau_training_sequences(
            &synthetic,
            config.lstm_timesteps,
            config.lstm_windows,
            config.seed ^ 0x1234,
        )
        .map_err(e)?;
        let experimental: Vec<Vec<f64>> = run
            .spectra
            .iter()
            .map(|s| {
                s.intensities()
                    .iter()
                    .map(|&v| v * config.input_scale)
                    .collect()
            })
            .collect();
        let windows =
            sliding_windows(&experimental, &run.reference, config.lstm_timesteps).map_err(e)?;
        Ok((
            Dataset::new(sequences.inputs_f32(), sequences.targets_f32()).map_err(e)?,
            Dataset::new(windows.inputs_f32(), windows.targets_f32()).map_err(e)?,
        ))
    });
    let (lstm_train, lstm_validation) = lstm_data?;
    let mut lstm = NmrPipeline::lstm_spec(config.lstm_timesteps)
        .build(config.seed ^ 0x5A5A)
        .map_err(e)?;
    let (fit, lstm_t) = tracer.time("neural.train.lstm", p, || {
        Trainer::new(train_config(config.lstm_epochs)).fit(
            &mut lstm,
            &lstm_train,
            Some(&lstm_validation),
        )
    });
    let lstm_history = fit.map_err(e)?;
    let (lstm_mse, _) = tracer.time("nmr.evaluate_lstm", p, || {
        f64::from(lstm_validation.evaluate(&mut lstm, Loss::Mse))
    });
    let analyzer = IhmAnalyzer::new(lithiation_components(), *run.spectra[0].axis()).map_err(e)?;
    let limit = config.ihm_max_spectra.unwrap_or(run.len()).min(run.len());
    let step = (run.len() as f64 / limit as f64).max(1.0);
    let mut ihm_fit_s = Vec::with_capacity(limit);
    for i in 0..limit {
        let index = ((i as f64 * step) as usize).min(run.len() - 1);
        let (fit, t) = tracer.time("chemometrics.ihm_fit", p, || {
            analyzer.fit(&run.spectra[index])
        });
        fit.map_err(e)?;
        ihm_fit_s.push(t.as_secs_f64());
    }
    let root_id = root.id;
    let wall = tracer.end(root).as_secs_f64();
    Ok(NmrFlow {
        wall_s: wall,
        cpu_s: host::process_cpu_s() - cpu,
        lstm_mse,
        acquire_s: acquire_t.as_secs_f64(),
        augment_s: augment_t.as_secs_f64(),
        augmented: synthetic.len(),
        cnn_train_s: cnn_t.as_secs_f64(),
        cnn_samples: cnn_train.len() * cnn_history.train_loss.len(),
        lstm_train_s: lstm_t.as_secs_f64(),
        lstm_samples: lstm_train.len() * lstm_history.train_loss.len(),
        ihm_fit_s,
        stage_self_s: crate::trace::stage_self_time(&tracer.spans(), root_id),
    })
}

//! The paper's preliminary architecture study (§III.A.2): "a broad set
//! of ANN topologies ... included Multi-Layer Perceptron (MLP) networks,
//! the ResNet and Highway network architectures, and Convolutional
//! Neural Networks (CNN). The preliminary investigations showed that
//! CNNs represent a good compromise between performance and effort in
//! training and inference."
//!
//! This harness reruns that comparison on the MS task: equal training
//! budget, then accuracy vs parameter count vs inference cost.

#![forbid(unsafe_code)]

use std::time::Instant;

use bench::{TraceSession, banner, pct, pick, write_csv};
use chem::fragmentation::GasLibrary;
use ms_sim::campaign::{run_calibration_campaign, MS_TASK_SUBSTANCES};
use ms_sim::characterize::Characterizer;
use ms_sim::instrument::default_axis;
use ms_sim::prototype::MmsPrototype;
use ms_sim::simulate::TrainingSimulator;
use neural::optim::OptimizerSpec;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Activation, Loss};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};

fn candidates(input_len: usize, outputs: usize) -> Vec<(&'static str, NetworkSpec)> {
    vec![
        (
            "MLP",
            NetworkSpec::new(input_len)
                .layer(LayerSpec::Dense {
                    units: 64,
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Dense {
                    units: 32,
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Dense {
                    units: outputs,
                    activation: Activation::Softmax,
                }),
        ),
        (
            "Highway",
            NetworkSpec::new(input_len)
                .layer(LayerSpec::Dense {
                    units: 64,
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Highway {
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Highway {
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Dense {
                    units: outputs,
                    activation: Activation::Softmax,
                }),
        ),
        (
            "ResNet",
            NetworkSpec::new(input_len)
                .layer(LayerSpec::Dense {
                    units: 64,
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::ResidualDense {
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::ResidualDense {
                    activation: Activation::Selu,
                })
                .layer(LayerSpec::Dense {
                    units: outputs,
                    activation: Activation::Softmax,
                }),
        ),
        (
            "CNN",
            MsPipeline::table1_spec(input_len, outputs, ActivationChoice::paper_best()),
        ),
    ]
}

fn main() {
    banner(
        "Architecture exploration — MLP vs Highway vs ResNet vs CNN",
        "Fricke et al. 2021, §III.A.2 preliminary study",
    );
    let _trace = TraceSession::from_args();
    let training_spectra = pick(2_000, 12_000);
    let epochs = pick(8, 16);
    let seed = 42u64;
    let axis = default_axis();

    // Shared simulated dataset (validation on held-out simulated data —
    // this is the *preliminary* study, before measured data existed).
    let mut prototype = MmsPrototype::new(seed);
    let calibration = run_calibration_campaign(&mut prototype, pick(25, 100))
        .expect("calibration campaign");
    let characterization = Characterizer::new(GasLibrary::standard(), Some("He".into()))
        .characterize(&calibration)
        .expect("characterization");
    let simulator = TrainingSimulator::new(
        characterization.model,
        GasLibrary::standard(),
        MS_TASK_SUBSTANCES.iter().map(|&s| s.to_string()).collect(),
        axis,
    )
    .expect("simulator");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let simulated = simulator
        .generate_dataset(training_spectra, &mut rng)
        .expect("training data");
    let dataset = Dataset::new(simulated.inputs_f32(), simulated.labels_f32()).expect("dataset");
    let (train, validation) = dataset.split(0.8).expect("split");

    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>14}",
        "arch", "params", "sim MAE", "train s", "us/inference"
    );
    let mut rows = Vec::new();
    for (name, spec) in candidates(axis.len(), MS_TASK_SUBSTANCES.len()) {
        let mut network = spec.build(seed).expect("network");
        let config = TrainConfig {
            epochs,
            batch_size: 16,
            optimizer: OptimizerSpec::Adam { lr: 2e-3 },
            loss: Loss::Mae,
            shuffle: true,
            seed,
            restore_best: true,
            stop_at_val_loss: None,
        };
        let start = Instant::now();
        Trainer::new(config)
            .fit(&mut network, &train, Some(&validation))
            .expect("training");
        let train_seconds = start.elapsed().as_secs_f64();
        let per = validation.per_output_mae(&mut network);
        let sim_mae = per.iter().sum::<f64>() / per.len() as f64;
        // Inference timing.
        let probe = train.input(0).expect("a training sample");
        let start = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(network.predict(std::hint::black_box(probe)));
        }
        let us_per = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        println!(
            "{name:<10} {:>10} {:>10} {:>12.1} {:>14.1}",
            network.param_count(),
            pct(sim_mae),
            train_seconds,
            us_per
        );
        rows.push(format!(
            "{name},{},{sim_mae:.6},{train_seconds:.2},{us_per:.2}",
            network.param_count()
        ));
    }
    let path = write_csv(
        "arch_explore.csv",
        "architecture,parameters,sim_mae,train_seconds,us_per_inference",
        &rows,
    );
    println!("\nseries written to {}", path.display());
    println!(
        "paper conclusion to reproduce: the CNN is the best accuracy/effort \
         compromise (dense families need far more parameters for comparable error)."
    );
}

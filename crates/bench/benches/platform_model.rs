//! Table 2 regenerated as a Criterion benchmark: the analytical platform
//! model evaluated for the four Jetson targets for a freshly built
//! Table 1 network, plus the cost of building that network.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ms_sim::campaign::MS_TASK_SUBSTANCES;
use platform::{estimate, Device, Workload};
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};

fn platform_estimates(c: &mut Criterion) {
    let network = MsPipeline::table1_spec(397, MS_TASK_SUBSTANCES.len(), ActivationChoice::paper_best())
        .build(0)
        .expect("network");
    let workload = Workload::new("table1", network.macs_per_inference(), network.param_count());

    let mut group = c.benchmark_group("table2_model");
    for device in Device::jetson_presets() {
        let label = device.name.replace([' ', '(', ')'], "_");
        group.bench_function(label, |b| {
            b.iter(|| black_box(estimate(black_box(&device), black_box(&workload), 21_600)))
        });
    }
    group.finish();
}

fn network_build(c: &mut Criterion) {
    c.bench_function("table1_network_build", |b| {
        b.iter(|| {
            let spec = MsPipeline::table1_spec(
                397,
                MS_TASK_SUBSTANCES.len(),
                ActivationChoice::paper_best(),
            );
            black_box(spec.build(0).expect("build"))
        })
    });
}

criterion_group!(benches, platform_estimates, network_build);
criterion_main!(benches);

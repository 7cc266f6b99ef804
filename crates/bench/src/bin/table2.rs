//! Table 2: execution time, power and energy of running the complete
//! 21 600-sample dataset through the Table 1 network on Jetson Nano and
//! Jetson TX2, CPU vs GPU.
//!
//! Our numbers come from the analytical platform model (`platform`
//! crate) driven by the MAC count of the *actually built* network —
//! see DESIGN.md §2 for the hardware-substitution rationale. The paper's
//! measured values are printed alongside for comparison.

#![forbid(unsafe_code)]

use bench::{TraceSession, banner, write_csv};
use ms_sim::campaign::MS_TASK_SUBSTANCES;
use platform::{estimate, Device, Workload};
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};

/// The paper's measured values: (device, seconds, watts, joules).
const PAPER: [(&str, f64, f64, f64); 4] = [
    ("Jetson Nano (CPU)", 30.19, 5.03, 151.86),
    ("Jetson Nano (GPU)", 6.34, 4.77, 30.24),
    ("Jetson TX2 (CPU)", 21.64, 5.92, 128.11),
    ("Jetson TX2 (GPU)", 3.03, 6.68, 20.24),
];

fn main() {
    banner("Table 2 — embedded execution study", "Fricke et al. 2021, Table 2");
    let _trace = TraceSession::from_args();
    let samples = 21_600u64;
    let network = MsPipeline::table1_spec(397, MS_TASK_SUBSTANCES.len(), ActivationChoice::paper_best())
        .build(0)
        .expect("network");
    let workload = Workload::new(
        "table1-net",
        network.macs_per_inference(),
        network.param_count(),
    );
    println!(
        "workload: {} parameters, {:.3} M MACs/inference, {} samples\n",
        workload.parameters,
        workload.macs_per_inference as f64 / 1e6,
        samples
    );

    println!(
        "{:<20} {:>10} {:>9} {:>10}   {:>10} {:>9} {:>10}",
        "platform", "time/s", "power/W", "energy/J", "paper t/s", "paper W", "paper J"
    );
    let mut rows = Vec::new();
    for (device, paper) in Device::jetson_presets().iter().zip(PAPER) {
        let run = estimate(device, &workload, samples);
        println!(
            "{:<20} {:>10.2} {:>9.2} {:>10.2}   {:>10.2} {:>9.2} {:>10.2}",
            device.name, run.seconds, run.power_watts, run.energy_joules, paper.1, paper.2, paper.3
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            device.name, run.seconds, run.power_watts, run.energy_joules, paper.1, paper.2, paper.3
        ));
    }

    // The paper's derived claims.
    let nano_cpu = estimate(&Device::jetson_nano_cpu(), &workload, samples);
    let nano_gpu = estimate(&Device::jetson_nano_gpu(), &workload, samples);
    let tx2_cpu = estimate(&Device::jetson_tx2_cpu(), &workload, samples);
    let tx2_gpu = estimate(&Device::jetson_tx2_gpu(), &workload, samples);
    println!("\nderived claims (paper in brackets):");
    println!(
        "  GPU speedup:        Nano {:.1}x, TX2 {:.1}x   [4.8x - 7.1x]",
        nano_cpu.seconds / nano_gpu.seconds,
        tx2_cpu.seconds / tx2_gpu.seconds
    );
    println!(
        "  GPU energy factor:  Nano {:.1}x, TX2 {:.1}x   [5.0x - 6.3x]",
        nano_cpu.energy_joules / nano_gpu.energy_joules,
        tx2_cpu.energy_joules / tx2_gpu.energy_joules
    );
    println!(
        "  2x CUDA cores:      {:.1}x faster, {:.1}x less energy   [2.1x, 1.5x]",
        nano_gpu.seconds / tx2_gpu.seconds,
        nano_gpu.energy_joules / tx2_gpu.energy_joules
    );

    let path = write_csv(
        "table2_platforms.csv",
        "platform,model_s,model_w,model_j,paper_s,paper_w,paper_j",
        &rows,
    );
    println!("\nseries written to {}", path.display());
}

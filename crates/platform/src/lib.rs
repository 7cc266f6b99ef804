//! Embedded-platform performance/energy model.
//!
//! Substitutes for the paper's NVIDIA Jetson Nano / TX2 measurement
//! hardware (Table 2) and the Intel i7-8565U used for the NMR timing
//! claims. The model is analytical: a device is characterized by its
//! arithmetic peak (cores × FLOPs/cycle × clock), an empirical efficiency
//! factor for small-batch ANN inference, a framework dispatch overhead
//! per sample, and an active power draw. Execution estimates follow
//!
//! ```text
//! time   = n · (2 · MACs / (peak · efficiency) + overhead)
//! energy = time · active_power
//! ```
//!
//! Peak figures come from the public device specs; efficiency and power
//! constants are calibrated so the *shape* of the paper's Table 2 (GPU
//! 4.8–7.1× faster than CPU, 5.0–6.3× less energy, ~5–7 W, TX2-GPU ≈
//! 2.1× Nano-GPU) is reproduced. This is a documented model, not silicon
//! (DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use platform::{estimate, Device, Workload};
//!
//! let workload = Workload::new("table1-net", 2_262_000, 29_298);
//! let cpu = estimate(&Device::jetson_nano_cpu(), &workload, 21_600);
//! let gpu = estimate(&Device::jetson_nano_gpu(), &workload, 21_600);
//! assert!(cpu.seconds > gpu.seconds);
//! assert!(cpu.energy_joules > gpu.energy_joules);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod overlay;

use serde::{Deserialize, Serialize};

/// Whether a device is a CPU or a GPU (affects nothing but reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A general-purpose CPU.
    Cpu,
    /// A SIMT GPU.
    Gpu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => f.write_str("CPU"),
            DeviceKind::Gpu => f.write_str("GPU"),
        }
    }
}

/// An execution-platform description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Display name, e.g. `"Jetson Nano"`.
    pub name: String,
    /// CPU or GPU.
    pub kind: DeviceKind,
    /// Number of cores (CPU cores or CUDA cores).
    pub cores: u32,
    /// FLOPs per core per cycle (FMA counts as 2).
    pub flops_per_core_per_cycle: f64,
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
    /// Fraction of peak sustained on small-batch ANN inference.
    pub efficiency: f64,
    /// Per-sample framework dispatch overhead in seconds.
    pub overhead_s: f64,
    /// Average power draw under this workload, in watts.
    pub active_power_w: f64,
}

impl Device {
    /// Creates a device description.
    ///
    /// # Panics
    ///
    /// Panics if any quantity is non-positive or non-finite (presets are
    /// static data; invalid values are programming errors).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        cores: u32,
        flops_per_core_per_cycle: f64,
        frequency_hz: f64,
        efficiency: f64,
        overhead_s: f64,
        active_power_w: f64,
    ) -> Self {
        assert!(cores > 0, "cores must be positive");
        for (label, v) in [
            ("flops/cycle", flops_per_core_per_cycle),
            ("frequency", frequency_hz),
            ("efficiency", efficiency),
            ("power", active_power_w),
        ] {
            assert!(v.is_finite() && v > 0.0, "{label} must be positive, got {v}");
        }
        assert!(overhead_s >= 0.0 && overhead_s.is_finite(), "overhead");
        Self {
            name: name.into(),
            kind,
            cores,
            flops_per_core_per_cycle,
            frequency_hz,
            efficiency,
            overhead_s,
            active_power_w,
        }
    }

    /// Theoretical peak in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.cores as f64 * self.flops_per_core_per_cycle * self.frequency_hz
    }

    /// Sustained throughput in MAC/s under the efficiency factor.
    pub fn sustained_macs_per_sec(&self) -> f64 {
        self.peak_flops() * self.efficiency / 2.0
    }

    /// The quad-core Cortex-A57 CPU of the Jetson Nano.
    pub fn jetson_nano_cpu() -> Self {
        Self::new(
            "Jetson Nano (CPU)",
            DeviceKind::Cpu,
            4,
            8.0,
            1.43e9,
            0.0705,
            1e-5,
            5.03,
        )
    }

    /// The 128-CUDA-core Maxwell GPU of the Jetson Nano.
    pub fn jetson_nano_gpu() -> Self {
        Self::new(
            "Jetson Nano (GPU)",
            DeviceKind::Gpu,
            128,
            2.0,
            0.9216e9,
            0.068,
            1e-5,
            4.77,
        )
    }

    /// The quad-core Cortex-A57 (+ Denver 2) CPU of the Jetson TX2.
    pub fn jetson_tx2_cpu() -> Self {
        Self::new(
            "Jetson TX2 (CPU)",
            DeviceKind::Cpu,
            6,
            8.0,
            2.0e9,
            0.047,
            1e-5,
            5.92,
        )
    }

    /// The 256-CUDA-core Pascal GPU of the Jetson TX2.
    pub fn jetson_tx2_gpu() -> Self {
        Self::new(
            "Jetson TX2 (GPU)",
            DeviceKind::Gpu,
            256,
            2.0,
            1.3e9,
            0.052,
            1e-5,
            6.68,
        )
    }

    /// The Intel i7-8565U laptop CPU of the paper's NMR timing study
    /// (1.8 GHz base, AVX2). The large per-sample overhead models the
    /// Keras/TensorFlow dispatch cost that dominates tiny networks —
    /// the paper's 0.9 ms per spectrum.
    pub fn desktop_i7_cpu() -> Self {
        Self::new(
            "Intel i7-8565U (CPU)",
            DeviceKind::Cpu,
            4,
            32.0,
            1.8e9,
            0.10,
            8.5e-4,
            15.0,
        )
    }

    /// All four Jetson presets in Table 2 order:
    /// Nano CPU, Nano GPU, TX2 CPU, TX2 GPU.
    pub fn jetson_presets() -> Vec<Device> {
        vec![
            Self::jetson_nano_cpu(),
            Self::jetson_nano_gpu(),
            Self::jetson_tx2_cpu(),
            Self::jetson_tx2_gpu(),
        ]
    }
}

/// An inference workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Multiply–accumulate operations per inference.
    pub macs_per_inference: u64,
    /// Parameter count (memory footprint proxy).
    pub parameters: usize,
}

impl Workload {
    /// Creates a workload description.
    pub fn new(name: impl Into<String>, macs_per_inference: u64, parameters: usize) -> Self {
        Self {
            name: name.into(),
            macs_per_inference,
            parameters,
        }
    }
}

/// The result of an execution estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// Wall-clock time in seconds.
    pub seconds: f64,
    /// Average power draw in watts.
    pub power_watts: f64,
    /// Energy in joules.
    pub energy_joules: f64,
}

/// Estimates executing `n_samples` inferences of `workload` on `device`.
pub fn estimate(device: &Device, workload: &Workload, n_samples: u64) -> Execution {
    let compute = 2.0 * workload.macs_per_inference as f64 / (device.peak_flops() * device.efficiency);
    let seconds = n_samples as f64 * (compute + device.overhead_s);
    Execution {
        seconds,
        power_watts: device.active_power_w,
        energy_joules: seconds * device.active_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1 network workload: ~2.26 M MACs, 29 298 params.
    fn table1_workload() -> Workload {
        Workload::new("table1", 2_262_000, 29_298)
    }

    #[test]
    fn table2_shape_gpu_speedup_in_paper_range() {
        let w = table1_workload();
        let n = 21_600;
        let nano_cpu = estimate(&Device::jetson_nano_cpu(), &w, n);
        let nano_gpu = estimate(&Device::jetson_nano_gpu(), &w, n);
        let tx2_cpu = estimate(&Device::jetson_tx2_cpu(), &w, n);
        let tx2_gpu = estimate(&Device::jetson_tx2_gpu(), &w, n);
        // Paper: 4.8x - 7.1x execution-time improvement GPU vs CPU.
        let nano_speedup = nano_cpu.seconds / nano_gpu.seconds;
        let tx2_speedup = tx2_cpu.seconds / tx2_gpu.seconds;
        assert!(
            (4.0..8.0).contains(&nano_speedup),
            "nano speedup {nano_speedup}"
        );
        assert!((4.0..8.5).contains(&tx2_speedup), "tx2 speedup {tx2_speedup}");
    }

    #[test]
    fn table2_shape_energy_improvement() {
        let w = table1_workload();
        let n = 21_600;
        for (cpu, gpu) in [
            (Device::jetson_nano_cpu(), Device::jetson_nano_gpu()),
            (Device::jetson_tx2_cpu(), Device::jetson_tx2_gpu()),
        ] {
            let c = estimate(&cpu, &w, n);
            let g = estimate(&gpu, &w, n);
            let ratio = c.energy_joules / g.energy_joules;
            // Paper: 5.0x - 6.3x energy improvement.
            assert!((3.5..8.0).contains(&ratio), "energy ratio {ratio}");
        }
    }

    #[test]
    fn table2_absolute_times_are_in_paper_ballpark() {
        let w = table1_workload();
        let n = 21_600;
        let cases = [
            (Device::jetson_nano_cpu(), 30.19),
            (Device::jetson_nano_gpu(), 6.34),
            (Device::jetson_tx2_cpu(), 21.64),
            (Device::jetson_tx2_gpu(), 3.03),
        ];
        for (device, paper_seconds) in cases {
            let run = estimate(&device, &w, n);
            let ratio = run.seconds / paper_seconds;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: model {:.2}s vs paper {paper_seconds}s",
                device.name,
                run.seconds
            );
        }
    }

    #[test]
    fn tx2_gpu_scales_roughly_2x_over_nano_gpu() {
        let w = table1_workload();
        let nano = estimate(&Device::jetson_nano_gpu(), &w, 21_600);
        let tx2 = estimate(&Device::jetson_tx2_gpu(), &w, 21_600);
        let scale = nano.seconds / tx2.seconds;
        // Paper: doubling CUDA cores improves performance 2.1x.
        assert!((1.5..2.8).contains(&scale), "scale {scale}");
    }

    #[test]
    fn power_levels_are_around_5w() {
        for device in Device::jetson_presets() {
            let w = table1_workload();
            let run = estimate(&device, &w, 100);
            assert!(
                (4.0..7.5).contains(&run.power_watts),
                "{} power {}",
                device.name,
                run.power_watts
            );
        }
    }

    #[test]
    fn time_scales_linearly_with_samples() {
        let w = table1_workload();
        let d = Device::jetson_nano_cpu();
        let one = estimate(&d, &w, 1_000);
        let ten = estimate(&d, &w, 10_000);
        assert!((ten.seconds / one.seconds - 10.0).abs() < 1e-9);
    }

    #[test]
    fn i7_overhead_dominates_tiny_networks() {
        // The paper's 10 532-parameter NMR CNN takes ~0.9 ms per spectrum
        // on the i7 under Keras: dispatch overhead, not arithmetic.
        let cnn = Workload::new("nmr-cnn", 10_532, 10_532);
        let run = estimate(&Device::desktop_i7_cpu(), &cnn, 1);
        assert!(
            (5e-4..1.5e-3).contains(&run.seconds),
            "per-spectrum {}",
            run.seconds
        );
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn zero_cores_panics() {
        let _ = Device::new("bad", DeviceKind::Cpu, 0, 1.0, 1.0, 1.0, 0.0, 1.0);
    }

    #[test]
    fn peak_flops_formula() {
        let d = Device::new("x", DeviceKind::Cpu, 2, 4.0, 1e9, 0.5, 0.0, 1.0);
        assert_eq!(d.peak_flops(), 8e9);
        assert_eq!(d.sustained_macs_per_sec(), 2e9);
    }
}

//! FPGA overlay architectures for embedded process control (paper §IV).
//!
//! The paper's discussion section argues that FPGAs suit ML-assisted
//! embedded process control, but that raw FPGA design is too expensive —
//! overlay architectures close the gap:
//!
//! * **VCGRA** — a parameterizable coarse-grained reconfigurable array
//!   whose processing elements and interconnect are tailored per
//!   application (Fricke et al., IPDPSW 2019);
//! * **soft GPGPU (FGPU)** — a soft GPU synthesized on the FPGA,
//!   achieving "an average 4.2× speedup for different workloads over an
//!   embedded ARM core with NEON support"; "further specializing
//!   increases the speedup numbers by 100×" (paper §IV refs [18]–[20]).
//!
//! Like the Jetson presets, these are documented analytical models: they
//! reproduce the *ratios* the paper reports, driven by the same
//! [`Workload`] abstraction.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Device, DeviceKind, Execution, Workload};

/// The embedded ARM baseline of the paper's overlay comparison: a
/// Cortex-A9-class core with NEON (Zynq PS-side), the reference for the
/// 4.2× soft-GPU speedup.
pub fn arm_neon_baseline() -> Device {
    Device::new(
        "ARM Cortex-A9 + NEON",
        DeviceKind::Cpu,
        1,
        4.0, // 128-bit NEON, fp32 MAC
        0.667e9,
        0.20,
        0.0,
        1.5,
    )
}

/// A parameterizable CGRA overlay (VCGRA-style): a `rows × cols` grid of
/// processing elements, each sustaining one MAC per cycle when mapped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgraOverlay {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Overlay clock on the FPGA fabric (Hz).
    pub frequency_hz: f64,
    /// Fraction of PEs a mapped ANN layer keeps busy (placement and
    /// routing losses).
    pub utilization: f64,
    /// Board power draw in watts.
    pub power_w: f64,
}

impl CgraOverlay {
    /// The default VCGRA configuration used in the workspace: an 8×8 PE
    /// grid at a typical 150 MHz fabric clock.
    pub fn vcgra_default() -> Self {
        Self {
            rows: 8,
            cols: 8,
            frequency_hz: 150e6,
            utilization: 0.75,
            power_w: 2.5,
        }
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// Sustained MAC/s of the mapped overlay.
    pub fn sustained_macs_per_sec(&self) -> f64 {
        self.pe_count() as f64 * self.frequency_hz * self.utilization
    }

    /// Estimates executing `n_samples` inferences of `workload`.
    pub fn estimate(&self, workload: &Workload, n_samples: u64) -> Execution {
        let seconds =
            n_samples as f64 * workload.macs_per_inference as f64 / self.sustained_macs_per_sec();
        Execution {
            seconds,
            power_watts: self.power_w,
            energy_joules: seconds * self.power_w,
        }
    }

    /// The overlay as a generic [`Device`] (for uniform reporting).
    pub fn as_device(&self) -> Device {
        Device::new(
            format!("VCGRA {}x{}", self.rows, self.cols),
            DeviceKind::Gpu,
            self.pe_count(),
            2.0,
            self.frequency_hz,
            self.utilization,
            0.0,
            self.power_w,
        )
    }
}

/// Specialization level of a soft GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SoftGpuSpecialization {
    /// The general-purpose FGPU bitstream.
    General,
    /// A bitstream specialized for persistent deep-learning kernels
    /// (paper ref [19]).
    PersistentDeepLearning,
}

/// A soft GPGPU synthesized on the FPGA fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftGpu {
    /// Number of compute units.
    pub compute_units: u32,
    /// Processing elements per compute unit.
    pub pes_per_cu: u32,
    /// Fabric clock (Hz).
    pub frequency_hz: f64,
    /// Sustained fraction of peak for ANN kernels.
    pub efficiency: f64,
    /// Specialization level.
    pub specialization: SoftGpuSpecialization,
    /// Board power draw in watts.
    pub power_w: f64,
}

impl SoftGpu {
    /// The general-purpose FGPU configuration: calibrated to the paper's
    /// "average 4.2× speedup ... over an embedded ARM core with NEON".
    pub fn fgpu_general() -> Self {
        Self {
            compute_units: 8,
            pes_per_cu: 8,
            frequency_hz: 250e6,
            efficiency: 0.07,
            specialization: SoftGpuSpecialization::General,
            power_w: 3.0,
        }
    }

    /// The persistent-deep-learning specialization: "further specializing
    /// increases the speedup numbers by 100×" — a two-orders-of-magnitude
    /// gain from datapath and memory specialization.
    pub fn fgpu_specialized() -> Self {
        Self {
            compute_units: 32,
            pes_per_cu: 16,
            frequency_hz: 300e6,
            efficiency: 0.70,
            specialization: SoftGpuSpecialization::PersistentDeepLearning,
            power_w: 6.0,
        }
    }

    /// Sustained MAC/s.
    pub fn sustained_macs_per_sec(&self) -> f64 {
        self.compute_units as f64 * self.pes_per_cu as f64 * self.frequency_hz * self.efficiency
    }

    /// Estimates executing `n_samples` inferences of `workload`.
    pub fn estimate(&self, workload: &Workload, n_samples: u64) -> Execution {
        let seconds =
            n_samples as f64 * workload.macs_per_inference as f64 / self.sustained_macs_per_sec();
        Execution {
            seconds,
            power_watts: self.power_w,
            energy_joules: seconds * self.power_w,
        }
    }

    /// Speedup of this soft GPU over the ARM+NEON baseline on `workload`.
    pub fn speedup_over_arm(&self, workload: &Workload) -> f64 {
        let arm = crate::estimate(&arm_neon_baseline(), workload, 1_000);
        let this = self.estimate(workload, 1_000);
        arm.seconds / this.seconds
    }
}

/// Why a spectral fit could not be computed. Produced at the boundary so
/// downstream consumers (e.g. a drift detector averaging fit scores) never
/// see a NaN or a division by a zero-area window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FitError {
    /// One of the spectra has no samples.
    Empty,
    /// Modelled and measured spectra have different lengths.
    LengthMismatch {
        /// Samples in the modelled spectrum.
        modelled: usize,
        /// Samples in the measured spectrum.
        measured: usize,
    },
    /// A spectrum contains a NaN or infinite intensity.
    NonFinite {
        /// Index of the first offending sample.
        index: usize,
    },
    /// A spectrum window has (numerically) zero total area, so it cannot
    /// be normalized — e.g. an all-zero window from a sensor blackout.
    ZeroVariance,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Empty => write!(f, "spectral fit: empty spectrum"),
            FitError::LengthMismatch { modelled, measured } => write!(
                f,
                "spectral fit: length mismatch (modelled {modelled}, measured {measured})"
            ),
            FitError::NonFinite { index } => {
                write!(f, "spectral fit: non-finite intensity at index {index}")
            }
            FitError::ZeroVariance => {
                write!(f, "spectral fit: zero-area window cannot be normalized")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// How well a measured spectrum matches the modelled (noiseless) render
/// of the same mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralFit {
    /// Total-variation distance between the two area-normalized spectra,
    /// in `[0, 1]`. `0` is a perfect shape match, `1` fully disjoint.
    pub distance: f64,
    /// `1 - distance` — a fit score where `1` is perfect.
    pub score: f64,
}

/// Compares a measured spectrum against a modelled render of the same
/// mixture on the same axis, by total-variation distance between the
/// area-normalized intensity vectors.
///
/// Area normalization cancels global gain drift (detector sensitivity,
/// sample amount), so the distance responds only to *shape* changes —
/// peak broadening, mass-axis offset, attenuation-law steepening — which
/// is exactly what instrument re-characterization can repair.
///
/// Every degenerate input is rejected with a [`FitError`] instead of
/// leaking a NaN into downstream statistics.
pub fn spectral_fit(modelled: &[f64], measured: &[f64]) -> Result<SpectralFit, FitError> {
    if modelled.is_empty() || measured.is_empty() {
        return Err(FitError::Empty);
    }
    if modelled.len() != measured.len() {
        return Err(FitError::LengthMismatch {
            modelled: modelled.len(),
            measured: measured.len(),
        });
    }
    for (index, value) in modelled.iter().chain(measured.iter()).enumerate() {
        if !value.is_finite() {
            return Err(FitError::NonFinite {
                index: index % modelled.len(),
            });
        }
    }
    // Clamp sub-zero noise excursions to zero before normalizing: a
    // probability-style vector keeps the TV distance inside [0, 1].
    let area = |spectrum: &[f64]| -> f64 { spectrum.iter().map(|v| v.max(0.0)).sum() };
    let modelled_area = area(modelled);
    let measured_area = area(measured);
    if modelled_area <= f64::EPSILON || measured_area <= f64::EPSILON {
        return Err(FitError::ZeroVariance);
    }
    let distance: f64 = modelled
        .iter()
        .zip(measured.iter())
        .map(|(m, x)| (m.max(0.0) / modelled_area - x.max(0.0) / measured_area).abs())
        .sum::<f64>()
        / 2.0;
    let distance = distance.clamp(0.0, 1.0);
    Ok(SpectralFit {
        distance,
        score: 1.0 - distance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_workload() -> Workload {
        // A representative matrix-multiplication kernel (64x64x64).
        Workload::new("matmul64", 64 * 64 * 64, 0)
    }

    #[test]
    fn fgpu_general_hits_paper_speedup() {
        let speedup = SoftGpu::fgpu_general().speedup_over_arm(&matmul_workload());
        // Paper: average 4.2x over ARM + NEON.
        assert!((3.5..5.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn specialization_reaches_two_orders_of_magnitude() {
        let general = SoftGpu::fgpu_general().speedup_over_arm(&matmul_workload());
        let special = SoftGpu::fgpu_specialized().speedup_over_arm(&matmul_workload());
        let gain = special / general;
        // Paper: "further specializing increases the speedup numbers by 100x".
        assert!((50.0..200.0).contains(&gain), "gain {gain}");
    }

    #[test]
    fn vcgra_beats_arm_on_ann_workloads() {
        let overlay = CgraOverlay::vcgra_default();
        let workload = matmul_workload();
        let arm = crate::estimate(&arm_neon_baseline(), &workload, 1_000);
        let cgra = overlay.estimate(&workload, 1_000);
        assert!(
            cgra.seconds < arm.seconds,
            "cgra {} vs arm {}",
            cgra.seconds,
            arm.seconds
        );
    }

    #[test]
    fn vcgra_device_view_is_consistent() {
        let overlay = CgraOverlay::vcgra_default();
        let device = overlay.as_device();
        assert_eq!(device.cores, overlay.pe_count());
        let ratio = device.sustained_macs_per_sec() / overlay.sustained_macs_per_sec();
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn pe_count_and_throughput_scale() {
        let small = CgraOverlay {
            rows: 4,
            cols: 4,
            ..CgraOverlay::vcgra_default()
        };
        let large = CgraOverlay::vcgra_default();
        assert_eq!(small.pe_count(), 16);
        let ratio = large.sustained_macs_per_sec() / small.sustained_macs_per_sec();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spectral_fit_rejects_empty_spectra() {
        assert_eq!(spectral_fit(&[], &[]), Err(FitError::Empty));
        assert_eq!(spectral_fit(&[1.0], &[]), Err(FitError::Empty));
        assert_eq!(spectral_fit(&[], &[1.0]), Err(FitError::Empty));
    }

    #[test]
    fn spectral_fit_rejects_length_mismatch() {
        assert_eq!(
            spectral_fit(&[1.0, 2.0], &[1.0]),
            Err(FitError::LengthMismatch {
                modelled: 2,
                measured: 1
            })
        );
    }

    #[test]
    fn spectral_fit_rejects_nan_and_infinite_measurements() {
        let modelled = [1.0, 2.0, 3.0];
        assert_eq!(
            spectral_fit(&modelled, &[1.0, f64::NAN, 3.0]),
            Err(FitError::NonFinite { index: 1 })
        );
        assert_eq!(
            spectral_fit(&modelled, &[f64::INFINITY, 2.0, 3.0]),
            Err(FitError::NonFinite { index: 0 })
        );
        assert_eq!(
            spectral_fit(&[1.0, 2.0, f64::NAN], &[1.0, 2.0, 3.0]),
            Err(FitError::NonFinite { index: 2 })
        );
    }

    #[test]
    fn spectral_fit_rejects_zero_variance_windows() {
        let modelled = [1.0, 2.0, 3.0];
        // All-zero window — e.g. a sensor blackout frame.
        assert_eq!(
            spectral_fit(&modelled, &[0.0, 0.0, 0.0]),
            Err(FitError::ZeroVariance)
        );
        // All-negative noise clamps to zero area too.
        assert_eq!(
            spectral_fit(&modelled, &[-1.0, -0.5, -2.0]),
            Err(FitError::ZeroVariance)
        );
        assert_eq!(
            spectral_fit(&[0.0, 0.0, 0.0], &modelled),
            Err(FitError::ZeroVariance)
        );
    }

    #[test]
    fn spectral_fit_is_gain_invariant_and_bounded() {
        let modelled = [0.0, 1.0, 4.0, 1.0, 0.0];
        let scaled: Vec<f64> = modelled.iter().map(|v| v * 37.5).collect();
        let fit = spectral_fit(&modelled, &scaled).unwrap();
        assert!(fit.distance < 1e-12, "distance {}", fit.distance);
        assert!((fit.score - 1.0).abs() < 1e-12);

        // Fully disjoint shapes sit at the top of the range.
        let disjoint = spectral_fit(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert!((disjoint.distance - 1.0).abs() < 1e-12);
        assert!(disjoint.score.abs() < 1e-12);

        // A moderate shape change lands strictly inside (0, 1).
        let shifted = spectral_fit(&[0.0, 1.0, 4.0, 1.0, 0.0], &[0.0, 0.5, 3.0, 2.5, 0.0]).unwrap();
        assert!(shifted.distance > 0.0 && shifted.distance < 1.0);
    }

    #[test]
    fn estimates_scale_linearly() {
        let overlay = CgraOverlay::vcgra_default();
        let w = matmul_workload();
        let one = overlay.estimate(&w, 100);
        let ten = overlay.estimate(&w, 1_000);
        assert!((ten.seconds / one.seconds - 10.0).abs() < 1e-9);
        assert!(ten.energy_joules > one.energy_joules);
    }
}

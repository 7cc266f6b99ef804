//! Peak-memory gate for one NMR pipeline run at ten times spectrobench's
//! augmentation, where the augmented set dominates the resident set.
//!
//! Augmentation streams each synthetic spectrum into one flat `f32` row
//! buffer, the CNN trains on those rows, the LSTM's plateau-repeat rows are
//! gathered from them, and each buffer is dropped after its last reader.
//! Holding the set as `f64` rows and copying it into nested and then flat
//! `f32` rows again, all kept to the end of the run, would raise the
//! peak resident set by about three copies of the set (one `f32` copy of
//! 2,000 spectra is 13 MiB). This binary holds one test so that it runs
//! alone in its process and `/proc/self/status`'s `VmHWM` (the peak
//! resident set) measures that run and nothing else.

use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};

/// Upper bound on the process's peak resident set, in MiB. On a 2-vCPU
/// x86-64-v3 Linux host this binary peaked at 61.7 MiB (release and dev)
/// with the augmented set held as `f64` rows plus two `f32` copies, and
/// at 22.9 MiB (release and dev) with one `f32` copy dropped after the
/// LSTM rows are gathered; the bound sits halfway.
const PEAK_RSS_BOUND_MIB: f64 = 42.3;

/// The process's peak resident set in MiB, or `None` off Linux.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
fn nmr_run_at_2000_augmented_spectra_peak_rss_stays_under_bound() {
    if vm_hwm_mib().is_none() {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    }
    let config = NmrPipelineConfig {
        augmented_spectra: 2_000,
        cnn_epochs: 1,
        lstm_epochs: 1,
        lstm_windows: 200,
        run_ihm: false,
        seed: 42,
        ..NmrPipelineConfig::default()
    };
    let report = NmrPipeline::new(config).unwrap().run().unwrap();
    assert!(report.lstm.mse.is_finite());
    let peak = vm_hwm_mib().unwrap_or(f64::NAN);
    println!("VmHWM after one 2,000-spectrum NMR run: {peak:.1} MiB");
    assert!(
        peak < PEAK_RSS_BOUND_MIB,
        "peak resident set {peak:.1} MiB exceeds the {PEAK_RSS_BOUND_MIB} MiB bound"
    );
}

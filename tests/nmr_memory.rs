//! Peak-memory gate for one NMR pipeline run.
//!
//! The LSTM datasets hold each experimental and plateau-repeat spectrum
//! once, as a row of one flat buffer, and a window is a view of five
//! consecutive rows. Copying every spectrum into each of its windows
//! again (first as `f64`, then as `f32`) would more than double the peak
//! resident set of a run at spectrobench's toolflow scale. This binary
//! holds one test so that it runs alone in its process and
//! `/proc/self/status`'s `VmHWM` (the peak resident set) measures that
//! run and nothing else.

use spectroai::pipeline::nmr::{NmrPipeline, NmrPipelineConfig};

/// Upper bound on the process's peak resident set, in MiB. On a 2-vCPU
/// x86-64-v3 Linux host this binary peaked at 53.4 MiB (release) and
/// 53.6 MiB (dev) with every window copied out of its spectra, and at
/// 20.0 MiB (release) and 20.2 MiB (dev) with windows as views; the bound
/// sits halfway.
const PEAK_RSS_BOUND_MIB: f64 = 36.8;

/// The process's peak resident set in MiB, or `None` off Linux.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
fn nmr_toolflow_run_peak_rss_stays_under_bound() {
    if vm_hwm_mib().is_none() {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    }
    // spectrobench's toolflow configuration.
    let config = NmrPipelineConfig {
        augmented_spectra: 200,
        cnn_epochs: 3,
        lstm_epochs: 1,
        lstm_windows: 30,
        run_ihm: true,
        ihm_max_spectra: Some(2),
        seed: 42,
        ..NmrPipelineConfig::default()
    };
    let report = NmrPipeline::new(config).unwrap().run().unwrap();
    assert!(report.lstm.mse.is_finite());
    let peak = vm_hwm_mib().unwrap_or(f64::NAN);
    println!("VmHWM after one toolflow-scale NMR run: {peak:.1} MiB");
    assert!(
        peak < PEAK_RSS_BOUND_MIB,
        "peak resident set {peak:.1} MiB exceeds the {PEAK_RSS_BOUND_MIB} MiB bound"
    );
}

//! Shared helpers for the experiment-harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4). All harnesses run at a CI-friendly scale by default and
//! switch to paper-scale workloads when the environment variable
//! `SPECTROAI_FULL=1` is set.

#![forbid(unsafe_code)]

pub mod arrival;

use std::io::Write;
use std::path::{Path, PathBuf};

/// Returns `true` when paper-scale workloads were requested via
/// `SPECTROAI_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("SPECTROAI_FULL").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Picks `quick` or `full` depending on [`full_scale`].
pub fn pick<T>(quick: T, full: T) -> T {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// The directory experiment outputs (CSV series) are written to:
/// `target/experiments/`.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes a CSV file into [`experiments_dir`] and returns its path.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(name);
    let mut file = std::fs::File::create(&path).expect("create csv");
    writeln!(file, "{header}").expect("write header");
    for row in rows {
        writeln!(file, "{row}").expect("write row");
    }
    path
}

/// Merges the top-level entries of `sections` into the JSON object
/// stored at `path` and writes it back pretty-printed. Entries of the
/// file that `sections` does not name survive, so `serve_load` and
/// `monitor_loop` can publish into the same `BENCH_serve.json` in either
/// order. A missing file, or one that is not a JSON object, starts a
/// fresh object.
///
/// # Panics
///
/// Panics if `sections` is not a JSON object, or on I/O failure (harness
/// binaries want loud failures).
pub fn merge_into_bench_json(path: &Path, sections: serde_json::Value) {
    let serde_json::Value::Object(sections) = sections else {
        panic!("BENCH sections must be a JSON object");
    };
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|value| match value {
            serde_json::Value::Object(map) => Some(map),
            _ => None,
        })
        .unwrap_or_default();
    doc.extend(sections);
    let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
        .expect("serialize merged report");
    std::fs::write(path, pretty).expect("write BENCH report");
}

/// Prints a banner naming the experiment and its scale.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}  —  reproduces {paper_ref}");
    println!(
        "scale: {} (set SPECTROAI_FULL=1 for paper-scale workloads)",
        if full_scale() { "FULL" } else { "quick" }
    );
    println!("================================================================");
}

/// Formats a fraction as percent with two decimals (the paper reports
/// MAE in percent).
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// `--trace <out.json>` support for harness binaries: installs an
/// `obs::Collector` for the run and writes a chrome-trace JSON profile
/// (loadable in `about://tracing` / Perfetto) on [`TraceSession::finish`].
///
/// Constructed from CLI args; when `--trace` is absent nothing is
/// installed and instrumented code stays on the disabled fast path.
#[derive(Debug, Default)]
pub struct TraceSession {
    active: Option<(PathBuf, obs::InstallGuard)>,
}

impl TraceSession {
    /// Journal capacity for harness traces — sized for full-scale runs
    /// (20k requests → ~40k span/gauge records) with headroom.
    const JOURNAL_CAPACITY: usize = 1 << 18;

    /// Parses `--trace <path>` out of the process arguments and, when
    /// present, installs a collector for the rest of the run.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        while let Some(arg) = args.next() {
            if arg == "--trace" {
                let Some(path) = args.next() else {
                    eprintln!("--trace requires an output path; tracing disabled");
                    return Self::default();
                };
                let guard = obs::install(
                    obs::Collector::new().with_journal_capacity(Self::JOURNAL_CAPACITY),
                );
                println!("tracing:    chrome-trace profile -> {path}");
                return Self {
                    active: Some((PathBuf::from(path), guard)),
                };
            }
        }
        Self::default()
    }

    /// Writes the chrome-trace JSON (if tracing) and uninstalls the
    /// collector. Returns the output path when a profile was written.
    ///
    /// Binaries that don't need the path can rely on `Drop`, which does
    /// the same thing (minus the panic on I/O failure).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (harness binaries want loud failures).
    pub fn finish(mut self) -> Option<PathBuf> {
        self.active.take().map(|(path, guard)| {
            write_profile(&path, &guard).expect("write chrome trace");
            path
        })
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if let Some((path, guard)) = self.active.take() {
            if let Err(err) = write_profile(&path, &guard) {
                eprintln!("trace: failed to write {}: {err}", path.display());
            }
        }
    }
}

/// Serializes the collector's journal as chrome-trace JSON to `path`.
fn write_profile(path: &Path, guard: &obs::InstallGuard) -> std::io::Result<()> {
    let json = guard.collector().chrome_trace();
    let dropped = guard.collector().journal_dropped();
    std::fs::write(path, json)?;
    if dropped > 0 {
        eprintln!("trace: {dropped} events dropped under journal contention");
    }
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_percent() {
        assert_eq!(pct(0.015), "1.50%");
    }

    #[test]
    fn pick_respects_scale() {
        // Cannot portably set env vars in parallel tests; just check the
        // quick path (CI never sets SPECTROAI_FULL).
        if !full_scale() {
            assert_eq!(pick(1, 2), 1);
        }
    }

    #[test]
    fn merge_into_bench_json_keeps_other_sections() {
        let path = std::env::temp_dir().join(format!("bench-merge-{}.json", std::process::id()));
        std::fs::write(&path, "[1]").unwrap();
        merge_into_bench_json(&path, serde_json::json!({ "a": 1, "b": 2 }));
        merge_into_bench_json(&path, serde_json::json!({ "b": 3, "c": 4 }));
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc, serde_json::json!({ "a": 1, "b": 3, "c": 4 }));
    }

    #[test]
    fn experiments_dir_is_creatable() {
        let dir = experiments_dir();
        assert!(dir.exists());
    }
}

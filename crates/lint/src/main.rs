//! spectro-lint CLI:
//! `cargo run -p lint --release -- [--deny] [--json] [--stats] [--codegen]
//! [--lock-dot PATH] [--sarif PATH]`.
//!
//! Exit codes: 0 on success (or findings without `--deny`), 1 when
//! `--deny` is set and non-baselined findings or stale suppressions
//! exist, 2 on usage/config/IO errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use lint::{Analysis, LintConfig, Report};

struct Options {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    deny: bool,
    stats: bool,
    codegen: bool,
    lock_dot: Option<PathBuf>,
    sarif: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: PathBuf::from("."),
        config: None,
        json: false,
        deny: false,
        stats: false,
        codegen: false,
        lock_dot: None,
        sarif: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => options.deny = true,
            "--json" => options.json = true,
            "--stats" => options.stats = true,
            "--codegen" => options.codegen = true,
            "--root" => {
                options.root = PathBuf::from(
                    args.next().ok_or_else(|| "--root needs a path".to_string())?,
                );
            }
            "--config" => {
                options.config = Some(PathBuf::from(
                    args.next().ok_or_else(|| "--config needs a path".to_string())?,
                ));
            }
            "--lock-dot" => {
                options.lock_dot = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--lock-dot needs a path".to_string())?,
                ));
            }
            "--sarif" => {
                options.sarif = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--sarif needs a path".to_string())?,
                ));
            }
            "--help" | "-h" => {
                println!(
                    "spectro-lint: workspace static analysis\n\n\
                     USAGE: lint [--root PATH] [--config PATH] [--json] [--deny] [--stats] \
                     [--codegen] [--lock-dot PATH] [--sarif PATH]\n\n\
                     --root PATH      workspace root to scan (default: .)\n\
                     --config PATH    lint.toml to use (default: <root>/lint.toml)\n\
                     --json           machine-readable report on stdout\n\
                     --deny           exit non-zero on any non-baselined finding or stale\n\
                     \x20                suppression (CI mode)\n\
                     --stats          print symbol-graph size and resolved-call ratio (and\n\
                     \x20                the per-symbol codegen coverage table with --codegen)\n\
                     --codegen        audit the emitted release assembly of the configured\n\
                     \x20                kernels (lint.toml [codegen]): vectorization,\n\
                     \x20                panic-freedom and alloc-freedom at instruction level\n\
                     \x20                (x86-64 hosts only; elsewhere exits 2)\n\
                     --lock-dot PATH  write the lock acquisition graph as GraphViz DOT\n\
                     --sarif PATH     write active findings as SARIF 2.1.0 (PR annotations)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn print_human(report: &Report, options: &Options) {
    for finding in &report.findings {
        println!("{finding}");
    }
    for stale in &report.stale_suppressions {
        println!("lint.toml: error: {stale}");
    }
    if options.stats {
        println!("spectro-lint: {}", report.stats);
    }
    println!(
        "spectro-lint: {} file(s) scanned, {} finding(s), {} baselined, {} stale suppression(s)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.stale_suppressions.len()
    );
    if options.deny && !(report.findings.is_empty() && report.stale_suppressions.is_empty()) {
        println!(
            "spectro-lint: failing (--deny): fix the findings or baseline them in lint.toml \
             with a reason, and delete stale suppressions"
        );
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("spectro-lint: {message}");
            return ExitCode::from(2);
        }
    };
    let config_path = options
        .config
        .clone()
        .unwrap_or_else(|| options.root.join("lint.toml"));
    let config = match LintConfig::load(&config_path) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("spectro-lint: bad config {}: {message}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let Analysis { mut report, lock_dot } = match lint::run_full(&options.root, &config) {
        Ok(analysis) => analysis,
        Err(error) => {
            eprintln!("spectro-lint: {error}");
            return ExitCode::from(2);
        }
    };
    if options.codegen {
        match lint::codegen::run_audit(&options.root, &config) {
            Ok(audit) => {
                if options.stats {
                    // Human mode prints the table inline; JSON mode keeps
                    // stdout machine-readable and reports on stderr.
                    if options.json {
                        eprint!("{}", audit.summary_table());
                    } else {
                        print!("{}", audit.summary_table());
                    }
                }
                lint::codegen::merge_into(&mut report, &audit);
            }
            Err(message) => {
                eprintln!("spectro-lint: codegen audit: {message}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(dot_path) = &options.lock_dot {
        if let Err(error) = std::fs::write(dot_path, &lock_dot) {
            eprintln!("spectro-lint: writing {}: {error}", dot_path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(sarif_path) = &options.sarif {
        let sarif = lint::sarif::to_sarif_string(&report);
        if let Err(error) = std::fs::write(sarif_path, sarif) {
            eprintln!("spectro-lint: writing {}: {error}", sarif_path.display());
            return ExitCode::from(2);
        }
    }
    if options.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(error) => {
                eprintln!("spectro-lint: serialization failed: {error}");
                return ExitCode::from(2);
            }
        }
        if options.stats {
            eprintln!("spectro-lint: {}", report.stats);
        }
    } else {
        print_human(&report, &options);
    }
    if options.deny && !(report.findings.is_empty() && report.stale_suppressions.is_empty()) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

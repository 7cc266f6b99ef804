//! Load-drives the `serve` inference tier with the Table-1 MS network.
//!
//! Deploys a trained-shape network through the core deploy stage into a
//! datastore, loads it into a `serve::ModelRegistry`, then fires a
//! synthetic request stream at a `serve::Router`. Compares throughput
//! against the single-thread sequential baseline and the analytical
//! platform model, and writes the numbers to `BENCH_serve.json` (+ a CSV
//! series in `target/experiments/`).
//!
//! Sequential `Network::predict` is the one forward reference: every
//! served output must stay within `1e-4` max-abs-error of it. Per-layer
//! kernel timings from an instrumented single-thread probe batch of 32
//! land in the JSON as `kernel_timings`; their per-sample sum against the
//! per-sample sequential time is `kernel_speedup`, which must stay ≥ 4×.
//!
//! `--smoke` runs a small request count for CI and skips the
//! speedup-vs-sequential assertion (shared runners have unpredictable
//! scheduling); the default and `SPECTROAI_FULL=1` scales assert that
//! the tier beats the sequential baseline.
//!
//! `--shards N` spreads the tier over N supervised shards (default one;
//! supervisor, admission control, failover); `--chaos`
//! additionally injects a worker panic and a batch stall mid-run via
//! `faultsim` and asserts the tier loses no request: the supervisor
//! fails the shard over, restarts it, and every submission reaches a
//! terminal outcome (conservation). The JSON gains the per-shard and
//! failover counters.
//!
//! `--arrival <poisson|bursty|diurnal>` switches the driver from the
//! closed loop (front-load everything, then wait) to an *open-loop*
//! arrival process (`bench::arrival`): requests are submitted on a
//! seeded schedule independent of completions, so backpressure and
//! admission control face a workload that does not politely slow down.
//! Shed submissions (queue-full / admission rejections) are counted, and
//! the conservation check becomes offered = served + shed.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::arrival::ArrivalProcess;
use bench::{banner, pick, write_csv, TraceSession};
use datastore::Store;
use faultsim::FaultPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use neural::kernels::{max_abs_divergence, Scratch};
use serve::{
    ModelRegistry, Request, RetryPolicy, Router, RouterConfig, ServeConfig, SubmitError,
    SupervisorConfig, Ticket,
};
use spectroai::pipeline::deploy::deploy_network;
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};

const INPUT_LEN: usize = 397;
const OUTPUTS: usize = 8;
/// Max-abs-error every served output must stay within of sequential
/// `Network::predict`.
const TOLERANCE: f32 = 1e-4;
/// Samples per batch in the single-thread kernel timing probe.
const PROBE_BATCH: usize = 32;

/// `--shards N` from argv, if present.
fn shards_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
}

/// `--arrival <kind>` from argv, if present.
fn arrival_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--arrival")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--gate-baseline <path>` from argv: a committed `BENCH_serve.json`
/// to regression-gate this run against. Loaded before the run starts
/// (this binary overwrites `BENCH_serve.json` on exit, so the baseline
/// must be read first — CI stashes the checked-out copy).
fn gate_baseline_arg() -> Option<(PathBuf, serde_json::Value)> {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--gate-baseline")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)?;
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("--gate-baseline {}: {e}", path.display());
        std::process::exit(2);
    });
    let doc = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("--gate-baseline {}: invalid JSON: {e}", path.display());
        std::process::exit(2);
    });
    Some((path, doc))
}

/// The BENCH regression gate: served throughput must stay within 25%
/// of the committed baseline. Raw req/s is compared only when the
/// baseline ran the same scale and shard count (smoke vs full differ in
/// request count and therefore warm-up share); across mismatched modes
/// the gate falls back to `kernel_speedup` (single-thread batch-32
/// kernels vs sequential `Network::predict`, both per sample, so host
/// speed *and* core count normalize away), then to `speedup`
/// (served/sequential) when the baseline predates that field.
fn bench_regression_gate(
    baseline: &(PathBuf, serde_json::Value),
    smoke: bool,
    shards: usize,
    served_rps: f64,
    speedup: f64,
    kernel_speedup: f64,
) {
    const MAX_DROP: f64 = 0.25;
    let (path, doc) = baseline;
    let same_mode = doc["smoke"].as_bool() == Some(smoke)
        && doc["shards"].as_u64() == Some(shards as u64)
        && doc["chaos"].as_bool() == Some(false)
        && doc["arrival"].is_null();
    let (metric, current, committed) = if same_mode {
        ("served_rps", served_rps, doc["served_rps"].as_f64())
    } else if let Some(committed) = doc["kernel_speedup"].as_f64() {
        ("kernel_speedup", kernel_speedup, Some(committed))
    } else {
        ("speedup", speedup, doc["speedup"].as_f64())
    };
    let Some(committed) = committed else {
        eprintln!(
            "--gate-baseline {}: no {metric} field; skipping regression gate",
            path.display()
        );
        return;
    };
    let ratio = current / committed;
    println!(
        "gate:       {metric} {current:.2} vs committed {committed:.2} \
         (ratio {ratio:.3}, floor {:.3}{})",
        1.0 - MAX_DROP,
        if same_mode { "" } else { ", mode-normalized" }
    );
    assert!(
        ratio >= 1.0 - MAX_DROP,
        "BENCH regression gate: {metric} dropped more than {:.0}% vs {} \
         ({current:.2} vs {committed:.2}, ratio {ratio:.3})",
        MAX_DROP * 100.0,
        path.display()
    );
}

/// Builds the requested open-loop process at a rate the serving tier can
/// sustain (anchored to the measured sequential baseline, so quick and
/// full scales both finish promptly).
fn arrival_process(kind: &str, sequential_rps: f64, n_requests: usize) -> ArrivalProcess {
    let base = (sequential_rps * 0.6).max(500.0);
    match kind {
        "poisson" => ArrivalProcess::poisson(97, base),
        "bursty" => ArrivalProcess::bursty(97, base * 0.4, 6.0, 40.0, 80.0),
        "diurnal" => {
            // Two full cycles across the run's nominal span.
            let span_us = n_requests as f64 / base * 1e6;
            ArrivalProcess::diurnal(97, base * 0.4, 4.0, (span_us / 2.0).max(10_000.0))
        }
        other => {
            eprintln!("unknown --arrival kind {other:?}; expected poisson|bursty|diurnal");
            std::process::exit(2);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let arrival = arrival_arg();
    // Read the committed baseline up front — this run overwrites it.
    let gate_baseline = gate_baseline_arg();
    let shards = shards_arg().unwrap_or(if chaos { 4 } else { 1 });
    banner(
        "serve_load — batched inference serving on the Table-1 MS network",
        "paper §III.A.2 Table 1 (deployed via Tool 4)",
    );

    let n_requests: usize = if smoke { 200 } else { pick(2_000, 20_000) };
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 1024,
        max_batch: 32,
        max_linger: std::time::Duration::from_micros(200),
        // The driver front-loads the whole stream before waiting, so
        // queue residency is measured in seconds, not the serving
        // default's interactive budget.
        default_deadline: std::time::Duration::from_secs(120),
    };

    // Tool-4 hand-off: deploy the network into a datastore, then load the
    // registry from it — the exact path a serving node would take.
    let spec = MsPipeline::table1_spec(INPUT_LEN, OUTPUTS, ActivationChoice::paper_best());
    let mut network = spec.build(42).expect("build table-1 network");
    let store = Store::in_memory();
    let receipt = deploy_network(&store, "deployed_models", "table1-ms", spec, &network, [])
        .expect("deploy table-1 network");
    println!(
        "deployed {} v{} ({} parameters) as {}",
        receipt.name, receipt.version, receipt.parameter_count, receipt.document
    );
    let registry = Arc::new(ModelRegistry::new());
    let loaded = registry
        .load_from_store(&store, "deployed_models")
        .expect("load registry from store");
    assert_eq!(loaded, 1, "registry should load exactly the deployed model");

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let inputs: Vec<Vec<f32>> = (0..n_requests)
        .map(|_| (0..INPUT_LEN).map(|_| rng.gen_range(0.0f32..1.0)).collect())
        .collect();

    // Single-thread sequential baseline — also the tolerance oracle.
    let started = Instant::now();
    let expected: Vec<Vec<f32>> = inputs.iter().map(|x| network.predict(x)).collect();
    let sequential_seconds = started.elapsed().as_secs_f64();
    let sequential_rps = n_requests as f64 / sequential_seconds;
    println!(
        "sequential: {n_requests} predictions in {sequential_seconds:.3}s ({sequential_rps:.0} req/s)"
    );

    // Trace-overhead gate: with no collector installed, a span-wrapped
    // predict must stay within 5% of the bare call — the disabled fast
    // path is one relaxed atomic load. Runs before any `--trace`
    // collector is installed.
    overhead_gate(&mut network, &inputs);

    // Per-layer kernel timings from an instrumented probe batch; the
    // plan itself is wall-clock-free, the Instants live here.
    let (_, plan) = registry
        .resolve("table1-ms", None)
        .expect("resolve deployed plan");
    let kernel_timings = kernel_timing_probe(&plan, &inputs);
    println!("kernels:    per-layer probe (batch {PROBE_BATCH}, mean of 10 reps):");
    println!(
        "            {:<20} {:>9} {:>12} {:>8}",
        "op", "mean_us", "MACs/batch", "GMAC/s"
    );
    for t in &kernel_timings {
        let gmacs = t["gmac_per_s"].as_f64().unwrap_or(0.0);
        println!(
            "            {:<20} {:>9.1} {:>12} {:>8}",
            t["op"].as_str().unwrap_or("?"),
            t["mean_us"].as_f64().unwrap_or(0.0),
            t["macs_per_batch"].as_u64().unwrap_or(0),
            if gmacs > 0.0 {
                format!("{gmacs:.2}")
            } else {
                "-".to_string()
            },
        );
    }

    // Kernel speedup gate: single-thread batched kernels against
    // single-thread sequential `Network::predict`, both per sample and
    // both measured in this process, so the ratio is independent of
    // worker count and host speed.
    let sequential_us_per_sample = sequential_seconds * 1e6 / n_requests as f64;
    let kernel_us_per_sample = kernel_timings
        .iter()
        .map(|t| t["mean_us"].as_f64().unwrap_or(0.0))
        .sum::<f64>()
        / PROBE_BATCH as f64;
    let kernel_speedup = sequential_us_per_sample / kernel_us_per_sample;
    println!(
        "kernels:    batch-{PROBE_BATCH} kernels {kernel_us_per_sample:.1}us/sample vs sequential \
         predict {sequential_us_per_sample:.1}us/sample ({kernel_speedup:.2}x)"
    );
    assert!(
        kernel_speedup >= 4.0,
        "vectorized kernels must hold at least 4x over sequential Network::predict \
         (got {kernel_speedup:.2}x)"
    );

    let retry = RetryPolicy {
        max_attempts: 64,
        base_delay_ms: 1,
        backoff: 1.5,
    };

    // `--trace <out.json>`: collect a chrome-trace profile of the serving
    // run (spans + queue-depth gauge from the engine's obs hooks).
    let trace = TraceSession::from_args();

    let process = arrival
        .as_deref()
        .map(|kind| arrival_process(kind, sequential_rps, n_requests));
    if let Some(kind) = &arrival {
        println!("arrival:    open-loop {kind} process (seeded, rate anchored to baseline)");
    }
    let outcome = serve_tier(
        &registry, &inputs, &expected, &config, shards, chaos, retry, process,
    );
    if let Some(trace_path) = trace.finish() {
        validate_trace(&trace_path);
    }
    let served_seconds = outcome.served_seconds;
    let served_rps = n_requests as f64 / served_seconds;
    let report = outcome.report;

    assert_eq!(
        outcome.mismatches, 0,
        "served outputs must stay within {TOLERANCE:e} max-abs-error of sequential \
         Network::predict (observed max {:e})",
        outcome.max_err
    );
    println!(
        "tolerance:  served outputs within {:e} of sequential predict (gate {TOLERANCE:e})",
        outcome.max_err
    );
    let speedup = served_rps / sequential_rps;
    println!(
        "served:     {n_requests} predictions in {served_seconds:.3}s ({served_rps:.0} req/s, \
         {speedup:.2}x sequential)"
    );
    if let Some(baseline) = &gate_baseline {
        bench_regression_gate(baseline, smoke, shards, served_rps, speedup, kernel_speedup);
    }
    println!(
        "batching:   {} batches, mean size {:.2}, largest {}, queue high-water {}",
        report.batches, report.mean_batch_size, outcome.max_batch_seen, report.queue_depth_high_water
    );
    println!(
        "latency:    mean {:.0}us  p50<={}us  p95<={}us  p99<={}us  max {}us",
        report.latency_mean_us,
        report.latency_p50_us,
        report.latency_p95_us,
        report.latency_p99_us,
        report.latency_max_us
    );
    let router = &outcome.router;
    println!(
        "tier:       {} shards, {} failovers, {} restarts, {} re-routed, {} shed, {} crash-resolved",
        router.shards.len(),
        router.failovers,
        router.restarts,
        router.rerouted,
        router.shed,
        outcome.crashed,
    );
    if let Some(kind) = &arrival {
        // Open-loop gates: every offered request reached a terminal fate
        // (served or explicitly shed — never silently lost), and the
        // driver kept to its schedule.
        assert_eq!(
            outcome.offered,
            n_requests,
            "open-loop driver must offer the whole schedule"
        );
        assert_eq!(
            outcome.served + outcome.shed + outcome.crashed,
            outcome.offered,
            "open-loop conservation: served {} + shed {} + crashed {} != offered {}",
            outcome.served,
            outcome.shed,
            outcome.crashed,
            outcome.offered
        );
        println!(
            "open-loop:  {kind} offered {} served {} shed {} (max schedule lag {:.0}us)",
            outcome.offered, outcome.served, outcome.shed, outcome.behind_max_us
        );
    }
    if chaos {
        // The chaos acceptance gates: zero lost requests (conservation),
        // the supervisor actually failed over and restarted the shard,
        // and the log-linear histogram resolves the tail (p50 < p99).
        let terminal = report.requests_completed
            + report.requests_failed
            + report.requests_timed_out
            + report.requests_drained;
        assert_eq!(
            report.requests_submitted, terminal,
            "conservation violated under chaos: {report:?}"
        );
        assert!(router.failovers >= 1, "chaos run must fail over: {router:?}");
        assert!(router.restarts >= 1, "failed shard must restart: {router:?}");
        assert!(
            report.latency_p50_us < report.latency_p99_us,
            "latency histogram saturated: p50 {} == p99 {}",
            report.latency_p50_us,
            report.latency_p99_us
        );
        println!("chaos:      conservation holds ({terminal}/{} terminal)", report.requests_submitted);
    }
    if !smoke && !chaos && arrival.is_none() {
        assert!(
            speedup > 1.0,
            "multi-worker batched serving should beat the sequential baseline \
             (got {served_rps:.0} vs {sequential_rps:.0} req/s)"
        );
    }

    // Close the loop against the analytical platform model.
    let workload = platform::Workload::from_network("table1-ms", &network);
    let device = platform::Device::desktop_i7_cpu();
    let fit = platform::overlay::compare_measured(
        &device,
        &workload,
        n_requests as u64,
        served_seconds,
    );
    println!(
        "model fit:  modelled {:.3}s vs measured {:.3}s on {} — ratio {:.2}",
        fit.modelled_seconds, fit.measured_seconds, device.name, fit.ratio
    );

    let router_json = serde_json::to_value(router).expect("serialize router report");
    let json = serde_json::json!({
        "bench": "serve_load",
        "smoke": smoke,
        "shards": shards,
        "chaos": chaos,
        "arrival": arrival,
        "offered": outcome.offered,
        "served": outcome.served,
        "shed": outcome.shed,
        "failovers": router.failovers,
        "restarts": router.restarts,
        "router": router_json,
        "model": "table1-ms",
        "input_len": INPUT_LEN,
        "outputs": OUTPUTS,
        "requests": n_requests,
        "workers": config.workers,
        "max_batch": config.max_batch,
        "max_linger_us": config.max_linger.as_micros() as u64,
        "sequential_seconds": sequential_seconds,
        "sequential_rps": sequential_rps,
        "served_seconds": served_seconds,
        "served_rps": served_rps,
        "speedup": speedup,
        "sequential_us_per_sample": sequential_us_per_sample,
        "kernel_us_per_sample": kernel_us_per_sample,
        "kernel_speedup": kernel_speedup,
        "max_abs_error": outcome.max_err,
        "tolerance": TOLERANCE,
        "kernel_timings": kernel_timings,
        "metrics": report,
        "model_fit": fit,
    });
    let out = repo_root().join("BENCH_serve.json");
    // Carry a monitor_loop section forward if that bench wrote first, so
    // the two publishers can run in either order.
    let mut json = json;
    let previous = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|doc| match doc {
            serde_json::Value::Object(mut map) => map.remove("monitor_loop"),
            _ => None,
        });
    if let (Some(section), serde_json::Value::Object(map)) = (previous, &mut json) {
        map.insert("monitor_loop".to_string(), section);
    }
    let pretty = serde_json::to_string_pretty(&json).expect("serialize report");
    std::fs::write(&out, pretty).expect("write BENCH_serve.json");
    println!("wrote {}", out.display());

    let csv = write_csv(
        "serve_load.csv",
        "requests,workers,max_batch,shards,sequential_rps,served_rps,speedup,\
         kernel_speedup,p50_us,p95_us,p99_us,mean_batch",
        &[format!(
            "{n_requests},{},{},{shards},{sequential_rps:.1},{served_rps:.1},{speedup:.3},\
             {kernel_speedup:.3},{},{},{},{:.2}",
            config.workers,
            config.max_batch,
            report.latency_p50_us,
            report.latency_p95_us,
            report.latency_p99_us,
            report.mean_batch_size
        )],
    );
    println!("wrote {}", csv.display());
}

/// What one serving run produced, regardless of which tier served it.
struct RunOutcome {
    served_seconds: f64,
    report: serve::MetricsReport,
    max_batch_seen: usize,
    mismatches: usize,
    /// Worst observed max-abs-error vs sequential predict.
    max_err: f32,
    /// Requests resolved with `WorkerCrashed` (chaos runs only).
    crashed: usize,
    router: serve::RouterReport,
    /// Requests the driver offered (== the full schedule).
    offered: usize,
    /// Requests that completed with a prediction.
    served: usize,
    /// Open-loop submissions rejected by backpressure/admission control.
    shed: usize,
    /// Worst lag of the open-loop driver behind its schedule (µs).
    behind_max_us: f64,
}

/// What the open-loop pacing stage produced: accepted tickets tagged
/// with their input index, plus shed/lag accounting.
struct OpenLoopDrive {
    tickets: Vec<(usize, Ticket)>,
    shed: usize,
    behind_max_us: f64,
}

/// Replays a seeded arrival schedule against the wall clock, submitting
/// each request at its scheduled instant regardless of completions.
/// Backpressure rejections are shed (counted, not retried) — the open
/// loop never slows down for the server.
fn drive_open_loop(
    submit: &dyn Fn(Request) -> Result<Ticket, SubmitError>,
    inputs: &[Vec<f32>],
    mut process: ArrivalProcess,
) -> OpenLoopDrive {
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(inputs.len());
    let mut shed = 0usize;
    let mut behind_max_us = 0f64;
    for (index, x) in inputs.iter().enumerate() {
        let due_us = process.next_arrival_us();
        loop {
            let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
            if elapsed_us >= due_us {
                behind_max_us = behind_max_us.max(elapsed_us - due_us);
                break;
            }
            let gap_us = due_us - elapsed_us;
            if gap_us > 300.0 {
                std::thread::sleep(Duration::from_micros((gap_us - 200.0) as u64));
            } else {
                std::hint::spin_loop();
            }
        }
        match submit(Request::new("table1-ms", x.clone())) {
            Ok(ticket) => tickets.push((index, ticket)),
            Err(
                SubmitError::QueueFull { .. }
                | SubmitError::Overloaded { .. }
                | SubmitError::WouldMissDeadline { .. }
                | SubmitError::NoHealthyShard,
            ) => shed += 1,
            Err(err) => panic!("open-loop submit must not fail structurally: {err}"),
        }
    }
    OpenLoopDrive {
        tickets,
        shed,
        behind_max_us,
    }
}

/// Times each batched kernel of `plan` on an instrumented 32-sample
/// probe batch: wall-clock deltas between the per-kernel observer
/// callbacks, meaned over several reps after a warm-up (the plan stays
/// wall-clock-free for determinism; the `Instant`s live here). The
/// observer index aligns with the plan's op order, so each timing is
/// paired with [`FrozenPlan::macs_per_op`] into an achieved-GMAC/s
/// figure per layer (0-MAC shape ops report no rate).
fn kernel_timing_probe(
    plan: &neural::plan::FrozenPlan,
    inputs: &[Vec<f32>],
) -> Vec<serde_json::Value> {
    const REPS: u32 = 10;
    let mut block = Vec::with_capacity(PROBE_BATCH * INPUT_LEN);
    for x in inputs.iter().cycle().take(PROBE_BATCH) {
        block.extend_from_slice(x);
    }
    let mut scratch = Scratch::new();
    let mut outputs = Vec::new();
    for _ in 0..3 {
        outputs.clear();
        plan.predict_batch_scratch(&block, &mut outputs, &mut scratch, &mut |_, _| {})
            .expect("warm-up probe batch");
    }
    let mut names: Vec<&'static str> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for _ in 0..REPS {
        outputs.clear();
        let mut last = Instant::now();
        plan.predict_batch_scratch(&block, &mut outputs, &mut scratch, &mut |i, name| {
            let now = Instant::now();
            if i == names.len() {
                names.push(name);
                totals.push(0.0);
            }
            totals[i] += (now - last).as_secs_f64();
            last = now;
        })
        .expect("timed probe batch");
    }
    let macs_per_sample = plan.macs_per_op();
    assert_eq!(
        macs_per_sample.len(),
        names.len(),
        "macs_per_op must align with the kernel observer indices"
    );
    names
        .iter()
        .zip(&totals)
        .zip(&macs_per_sample)
        .map(|((name, total), &macs)| {
            let mean_us = total / f64::from(REPS) * 1e6;
            let macs_per_batch = macs * PROBE_BATCH as u64;
            let gmac_per_s = if mean_us > 0.0 {
                macs_per_batch as f64 / (mean_us * 1e-6) / 1e9
            } else {
                0.0
            };
            serde_json::json!({
                "op": name,
                "mean_us": mean_us,
                "macs_per_batch": macs_per_batch,
                "gmac_per_s": gmac_per_s,
            })
        })
        .collect()
}

/// The serving tier: N supervised shards behind the `Router`. With
/// `chaos`, a deterministic fault plan panics a worker in shard 0 and
/// stalls a batch in shard 1 mid-run; the supervisor must fail both
/// shards over and restart them while every ticket still resolves.
#[allow(clippy::too_many_arguments)]
fn serve_tier(
    registry: &Arc<ModelRegistry>,
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
    config: &ServeConfig,
    shards: usize,
    chaos: bool,
    retry: RetryPolicy,
    arrival: Option<ArrivalProcess>,
) -> RunOutcome {
    let router_config = RouterConfig {
        shards,
        engine: config.clone(),
        supervisor: SupervisorConfig {
            tick: Duration::from_millis(10),
            // Wide enough that a slow-but-honest batch on a loaded CI
            // runner is not mistaken for a wedge; the injected stall
            // (800ms) still trips it decisively.
            stall_deadline: Duration::from_millis(250),
            restart_backoff_base: Duration::from_millis(20),
            max_restart_backoff: Duration::from_millis(200),
            ..SupervisorConfig::default()
        },
        ..RouterConfig::default()
    };
    let faults = chaos.then(|| {
        let mut plan = FaultPlan::new().with_worker_panic(0, 1);
        if shards > 1 {
            plan = plan.with_stall_batch(1, 1, 800);
        }
        Arc::new(plan)
    });
    let router = Router::start_with_faults(Arc::clone(registry), router_config, faults)
        .expect("start sharded router");

    let started = Instant::now();
    let (tickets, shed, behind_max_us) = match arrival {
        Some(process) => {
            let drive = drive_open_loop(&|req| router.submit(req), inputs, process);
            (drive.tickets, drive.shed, drive.behind_max_us)
        }
        None => (
            inputs
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    (
                        i,
                        router
                            .submit_with_retry(Request::new("table1-ms", x.clone()), retry)
                            .expect("submission should succeed within the retry budget"),
                    )
                })
                .collect::<Vec<(usize, Ticket)>>(),
            0,
            0.0,
        ),
    };
    let mut mismatches = 0usize;
    let mut max_batch_seen = 0usize;
    let mut crashed = 0usize;
    let mut served = 0usize;
    let mut max_err = 0.0f32;
    for (index, ticket) in tickets {
        match ticket.wait() {
            Ok(prediction) => {
                let err = max_abs_divergence(&prediction.output, &expected[index]);
                max_err = max_err.max(err);
                if err > TOLERANCE {
                    mismatches += 1;
                }
                max_batch_seen = max_batch_seen.max(prediction.batch_size);
                served += 1;
            }
            Err(serve::ServeError::WorkerCrashed) if chaos => crashed += 1,
            Err(err) => panic!("request must not fail outside injected faults: {err}"),
        }
    }
    let served_seconds = started.elapsed().as_secs_f64();

    // Let the tier quiesce (detached stalled workers finish late, the
    // supervisor restarts failed shards) before taking the final report.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let report = router.report();
        let total = &report.total;
        let terminal = total.requests_completed
            + total.requests_failed
            + total.requests_timed_out
            + total.requests_drained;
        let quiesced = terminal == total.requests_submitted
            && (!chaos || (report.failovers >= 1 && report.restarts >= 1));
        if quiesced || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = router.report();
    let total = report.total.clone();
    router.shutdown();
    RunOutcome {
        served_seconds,
        report: total,
        max_batch_seen,
        mismatches,
        max_err,
        crashed,
        router: report,
        offered: inputs.len(),
        served,
        shed,
        behind_max_us,
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Asserts that span-wrapped `Network::predict` with no collector
/// installed stays within 5% of the bare call. Each trial times the same
/// predicts both ways, one input at a time and alternating which side
/// goes first, so scheduler noise lands on both sides alike; the gate is
/// the median of the per-trial spanned/plain ratios, so a trial the
/// scheduler interrupts cannot fail it on its own.
fn overhead_gate(network: &mut neural::Network, inputs: &[Vec<f32>]) {
    const TRIALS: usize = 21;
    let sample = &inputs[..inputs.len().min(64)];
    let mut ratios = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let (mut plain, mut spanned) = (0.0, 0.0);
        for (i, x) in sample.iter().enumerate() {
            let spanned_first = (trial + i) % 2 == 1;
            if spanned_first {
                spanned += time_predict(network, x, true);
            }
            plain += time_predict(network, x, false);
            if !spanned_first {
                spanned += time_predict(network, x, true);
            }
        }
        ratios.push(spanned / plain);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[TRIALS / 2];
    println!(
        "overhead:   disabled-span/bare predict ratio median {ratio:.4} (min {:.4}, max {:.4}) \
         over {TRIALS} interleaved trials of {} inputs",
        ratios[0],
        ratios[TRIALS - 1],
        sample.len()
    );
    assert!(
        ratio <= 1.05,
        "disabled-path span overhead must stay within 5% of the bare predict \
         (median ratio {ratio:.4} over {TRIALS} trials)"
    );
}

/// Seconds for one `Network::predict` of `x`, wrapped in a span if
/// `spanned`.
fn time_predict(network: &mut neural::Network, x: &[f32], spanned: bool) -> f64 {
    let started = Instant::now();
    if spanned {
        let _span = obs::span!("bench.predict");
        std::hint::black_box(network.predict(x));
    } else {
        std::hint::black_box(network.predict(x));
    }
    started.elapsed().as_secs_f64()
}

/// Parses the written chrome-trace JSON and asserts the serving spans
/// landed with correct nesting: at least one `serve.request` inside a
/// `serve.batch` on the same worker thread.
fn validate_trace(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace must be valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let spans = |name: &str| -> Vec<(i64, f64, f64)> {
        events
            .iter()
            .filter(|e| e["ph"] == "X" && e["name"] == name)
            .map(|e| {
                (
                    e["tid"].as_i64().expect("tid"),
                    e["ts"].as_f64().expect("ts"),
                    e["dur"].as_f64().expect("dur"),
                )
            })
            .collect()
    };
    let batches = spans("serve.batch");
    let requests = spans("serve.request");
    assert!(!batches.is_empty(), "trace must contain serve.batch spans");
    assert!(
        !requests.is_empty(),
        "trace must contain serve.request spans"
    );
    let nested = requests.iter().any(|&(tid, ts, dur)| {
        batches
            .iter()
            .any(|&(btid, bts, bdur)| btid == tid && bts <= ts && ts + dur <= bts + bdur + 1e-6)
    });
    assert!(
        nested,
        "at least one serve.request span must nest inside a serve.batch span"
    );
    println!(
        "trace:      {} events ({} serve.batch, {} serve.request, nesting verified)",
        events.len(),
        batches.len(),
        requests.len()
    );
}

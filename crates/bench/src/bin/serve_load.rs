//! Load-drives the `serve` inference tier with the Table-1 MS network
//! and hosts the serving tier's CI gates.
//!
//! Deploys a trained-shape network through the core deploy stage into a
//! datastore, loads it into a `serve::ModelRegistry`, then submits a
//! synthetic request stream to a `serve::Router` and writes the numbers
//! to `BENCH_serve.json`. The gates, each of which fails the run:
//!
//! * every served output stays within `1e-4` max-abs-error of
//!   sequential `Network::predict`, the one forward reference;
//! * `kernel_speedup` — the per-sample sum of per-layer kernel timings
//!   from an instrumented single-thread probe batch of 32, against the
//!   per-sample sequential time of the median 25-request chunk — stays
//!   ≥ 4×; each layer also reports its GMAC/s as a `roofline_frac` of
//!   the host's measured one-core FMA peak (`fma_peak_gmac_s`);
//! * a span-wrapped predict with no collector installed stays within 5%
//!   of the bare call (median of 21 interleaved trials);
//! * `--gate-baseline PATH`: the run drops no more than 25% against a
//!   committed `BENCH_serve.json`;
//! * `--trace PATH`: the chrome-trace profile nests `serve.request`
//!   spans inside `serve.batch` spans.
//!
//! `--smoke` runs a small request count for CI and skips the
//! speedup-vs-sequential assertion (shared runners have unpredictable
//! scheduling); the default and `SPECTROAI_FULL=1` scales assert that
//! the tier beats the sequential baseline.
//!
//! `--shards N` spreads the tier over N supervised shards (default one);
//! `--chaos` additionally injects a worker panic and a batch stall
//! mid-run via `faultsim` and asserts the tier loses no request: the
//! supervisor fails the shard over, restarts it, and every submission
//! reaches a terminal outcome (conservation). Any other argument exits 2.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{banner, merge_into_bench_json, pick, TraceSession};
use datastore::Store;
use faultsim::FaultPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use neural::kernels::{max_abs_divergence, Scratch};
use serve::{
    ModelRegistry, Request, RetryPolicy, Router, RouterConfig, ServeConfig, SupervisorConfig,
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
/// Requests per timed chunk of the sequential baseline; `kernel_speedup`
/// divides the median chunk's per-sample time.
const SEQUENTIAL_CHUNK: usize = 25;

/// The command line. `--trace PATH` is accepted here and read by
/// [`TraceSession::from_args`].
struct Args {
    smoke: bool,
    chaos: bool,
    shards: Option<usize>,
    gate_baseline: Option<PathBuf>,
}

/// Parses argv, exiting 2 on any argument not listed in the module doc
/// so that a stale invocation cannot run a different experiment than
/// its caller asked for.
fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        chaos: false,
        shards: None,
        gate_baseline: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{arg} requires a value")))
        };
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--chaos" => args.chaos = true,
            "--shards" => {
                let n = value();
                match n.parse() {
                    Ok(shards) if shards > 0 => args.shards = Some(shards),
                    _ => usage(&format!("--shards {n:?}: expected a count >= 1")),
                }
            }
            "--gate-baseline" => args.gate_baseline = Some(PathBuf::from(value())),
            "--trace" => {
                value();
            }
            _ => usage(&format!("unknown argument {arg:?}")),
        }
    }
    args
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "serve_load: {problem}\n\
         usage: serve_load [--smoke] [--chaos] [--shards N] [--gate-baseline PATH] [--trace PATH]"
    );
    std::process::exit(2);
}

/// The figure the BENCH regression gate compares against, read from a
/// committed `BENCH_serve.json`.
struct Baseline {
    path: PathBuf,
    /// Whether the baseline ran the same scale and shard count, without
    /// chaos.
    same_mode: bool,
    committed: f64,
}

/// The field the gate compares: raw `served_rps` in the same mode,
/// `kernel_speedup` across modes.
fn gate_metric(same_mode: bool) -> &'static str {
    if same_mode {
        "served_rps"
    } else {
        "kernel_speedup"
    }
}

/// Reads the `--gate-baseline` file before the run starts (this binary
/// overwrites `BENCH_serve.json` on exit, so CI stashes the checked-out
/// copy). Raw req/s is only comparable at the same scale and shard
/// count (smoke vs full differ in request count and therefore warm-up
/// share); across modes the gate uses `kernel_speedup` (single-thread
/// batch-32 kernels vs sequential `Network::predict`, both per sample,
/// so host speed *and* core count normalize away). Exits 2 when the
/// file is unreadable, not JSON, or lacks the figure.
fn load_baseline(path: PathBuf, smoke: bool, shards: usize) -> Baseline {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("--gate-baseline {}: {e}", path.display());
        std::process::exit(2);
    });
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("--gate-baseline {}: invalid JSON: {e}", path.display());
        std::process::exit(2);
    });
    let same_mode = doc["smoke"].as_bool() == Some(smoke)
        && doc["shards"].as_u64() == Some(shards as u64)
        && doc["chaos"].as_bool() == Some(false);
    let metric = gate_metric(same_mode);
    let Some(committed) = doc[metric].as_f64() else {
        eprintln!("--gate-baseline {}: no {metric} field to gate on", path.display());
        std::process::exit(2);
    };
    Baseline {
        path,
        same_mode,
        committed,
    }
}

/// The BENCH regression gate: the baseline's figure must not drop by
/// more than 25%.
fn bench_regression_gate(baseline: &Baseline, served_rps: f64, kernel_speedup: f64) {
    const MAX_DROP: f64 = 0.25;
    let (metric, committed) = (gate_metric(baseline.same_mode), baseline.committed);
    let current = if baseline.same_mode {
        served_rps
    } else {
        kernel_speedup
    };
    let ratio = current / committed;
    println!(
        "gate:       {metric} {current:.2} vs committed {committed:.2} \
         (ratio {ratio:.3}, floor {:.3}{})",
        1.0 - MAX_DROP,
        if baseline.same_mode { "" } else { ", mode-normalized" }
    );
    assert!(
        ratio >= 1.0 - MAX_DROP,
        "BENCH regression gate: {metric} dropped more than {:.0}% vs {} \
         ({current:.2} vs {committed:.2}, ratio {ratio:.3})",
        MAX_DROP * 100.0,
        baseline.path.display()
    );
}

fn main() {
    let args = parse_args();
    let (smoke, chaos) = (args.smoke, args.chaos);
    let shards = args.shards.unwrap_or(if chaos { 4 } else { 1 });
    // Read the committed baseline up front — this run overwrites it.
    let gate_baseline = args
        .gate_baseline
        .map(|path| load_baseline(path, smoke, shards));
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

    // Single-thread sequential baseline — also the tolerance oracle —
    // timed in fixed-size chunks so that one descheduled stretch moves a
    // chunk, not the median chunk's per-sample time.
    let mut expected: Vec<Vec<f32>> = Vec::with_capacity(n_requests);
    let mut chunk_us_per_sample = Vec::new();
    let started = Instant::now();
    for chunk in inputs.chunks(SEQUENTIAL_CHUNK) {
        let chunk_started = Instant::now();
        expected.extend(chunk.iter().map(|x| network.predict(x)));
        let us = chunk_started.elapsed().as_secs_f64() * 1e6;
        chunk_us_per_sample.push(us / chunk.len() as f64);
    }
    let sequential_seconds = started.elapsed().as_secs_f64();
    chunk_us_per_sample.sort_by(f64::total_cmp);
    let sequential_us_per_sample = chunk_us_per_sample[chunk_us_per_sample.len() / 2];
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
    let fma_peak = fma_peak_gmac_s();
    let kernel_timings = kernel_timing_probe(&plan, &inputs, fma_peak);
    println!(
        "kernels:    per-layer probe (batch {PROBE_BATCH}, median of 11 reps; \
         FMA roofline {fma_peak:.1} GMAC/s on one core):"
    );
    println!(
        "            {:<20} {:>9} {:>12} {:>8} {:>9}",
        "op", "median_us", "MACs/batch", "GMAC/s", "roofline"
    );
    for t in &kernel_timings {
        let gmacs = t["gmac_per_s"].as_f64().unwrap_or(0.0);
        let (rate, frac) = if gmacs > 0.0 {
            (
                format!("{gmacs:.2}"),
                format!("{:.0}%", t["roofline_frac"].as_f64().unwrap_or(0.0) * 100.0),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        println!(
            "            {:<20} {:>9.1} {:>12} {:>8} {:>9}",
            t["op"].as_str().unwrap_or("?"),
            t["median_us"].as_f64().unwrap_or(0.0),
            t["macs_per_batch"].as_u64().unwrap_or(0),
            rate,
            frac,
        );
    }

    // Kernel speedup gate: single-thread batched kernels against
    // single-thread sequential `Network::predict` (the median chunk),
    // both per sample and both measured in this process, so the ratio is
    // independent of worker count and host speed.
    let kernel_us_per_sample = kernel_timings
        .iter()
        .map(|t| t["median_us"].as_f64().unwrap_or(0.0))
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

    let outcome = serve_tier(&registry, &inputs, &expected, &config, shards, chaos, retry);
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
        bench_regression_gate(baseline, served_rps, kernel_speedup);
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
    if !smoke && !chaos {
        assert!(
            speedup > 1.0,
            "multi-worker batched serving should beat the sequential baseline \
             (got {served_rps:.0} vs {sequential_rps:.0} req/s)"
        );
    }

    let router_json = serde_json::to_value(router).expect("serialize router report");
    let json = serde_json::json!({
        "bench": "serve_load",
        "smoke": smoke,
        "shards": shards,
        "chaos": chaos,
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
        "fma_peak_gmac_s": fma_peak,
        "max_abs_error": outcome.max_err,
        "tolerance": TOLERANCE,
        "kernel_timings": kernel_timings,
        "metrics": report,
    });
    let out = repo_root().join("BENCH_serve.json");
    merge_into_bench_json(&out, json);
    println!("wrote {}", out.display());
}

/// What one serving run produced.
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
}

/// This host's single-core `f32` FMA peak in GMAC/s: twelve independent
/// 8-lane `mul_add` chains (enough to cover the FMA latency on both
/// ports), seeded and observed through `black_box` so the optimizer can
/// neither fold nor drop them. Best of seven trials — a peak is what the
/// least disturbed run reaches.
#[inline(never)]
fn fma_peak_gmac_s() -> f64 {
    const CHAINS: usize = 12;
    const LANES: usize = 8;
    const ITERS: usize = 1_000_000;
    let mut best = 0.0f64;
    for _ in 0..7 {
        let scale = black_box([0.999_999f32; LANES]);
        let step = black_box([1e-7f32; LANES]);
        let mut acc = black_box([[1.0f32; LANES]; CHAINS]);
        let started = Instant::now();
        for _ in 0..ITERS {
            for chain in acc.iter_mut() {
                for ((a, &s), &t) in chain.iter_mut().zip(&scale).zip(&step) {
                    *a = a.mul_add(s, t);
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        black_box(&acc);
        if seconds > 0.0 {
            best = best.max((ITERS * CHAINS * LANES) as f64 / seconds / 1e9);
        }
    }
    best
}

/// Times each batched kernel of `plan` on an instrumented 32-sample
/// probe batch: wall-clock deltas between the per-kernel observer
/// callbacks, each layer's median over an odd number of reps after a
/// warm-up, so a rep the scheduler interrupts cannot move it (the plan
/// stays wall-clock-free for determinism; the `Instant`s live here). The
/// observer index aligns with the plan's op order, so each timing is
/// paired with [`neural::plan::FrozenPlan::macs_per_op`] into an achieved-GMAC/s
/// figure per layer (0-MAC shape ops report no rate), and that rate
/// with `fma_peak` (GMAC/s) into the layer's fraction of the roofline.
fn kernel_timing_probe(
    plan: &neural::plan::FrozenPlan,
    inputs: &[Vec<f32>],
    fma_peak: f64,
) -> Vec<serde_json::Value> {
    const REPS: usize = 11;
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
    let mut reps: Vec<Vec<f64>> = Vec::new();
    for _ in 0..REPS {
        outputs.clear();
        let mut last = Instant::now();
        plan.predict_batch_scratch(&block, &mut outputs, &mut scratch, &mut |i, name| {
            let now = Instant::now();
            if i == names.len() {
                names.push(name);
                reps.push(Vec::with_capacity(REPS));
            }
            reps[i].push((now - last).as_secs_f64());
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
        .zip(&mut reps)
        .zip(&macs_per_sample)
        .map(|((name, seconds), &macs)| {
            seconds.sort_by(f64::total_cmp);
            let median_us = seconds[REPS / 2] * 1e6;
            let macs_per_batch = macs * PROBE_BATCH as u64;
            let gmac_per_s = if median_us > 0.0 {
                macs_per_batch as f64 / (median_us * 1e-6) / 1e9
            } else {
                0.0
            };
            let roofline_frac = if fma_peak > 0.0 {
                gmac_per_s / fma_peak
            } else {
                0.0
            };
            serde_json::json!({
                "op": name,
                "median_us": median_us,
                "macs_per_batch": macs_per_batch,
                "gmac_per_s": gmac_per_s,
                "roofline_frac": roofline_frac,
            })
        })
        .collect()
}

/// The serving tier: N supervised shards behind the `Router`. With
/// `chaos`, a deterministic fault plan panics a worker in shard 0 and
/// stalls a batch in shard 1 mid-run; the supervisor must fail both
/// shards over and restart them while every ticket still resolves.
fn serve_tier(
    registry: &Arc<ModelRegistry>,
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
    config: &ServeConfig,
    shards: usize,
    chaos: bool,
    retry: RetryPolicy,
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
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| {
            router
                .submit_with_retry(Request::new("table1-ms", x.clone()), retry)
                .expect("submission should succeed within the retry budget")
        })
        .collect();
    let mut mismatches = 0usize;
    let mut max_batch_seen = 0usize;
    let mut crashed = 0usize;
    let mut max_err = 0.0f32;
    for (ticket, expected) in tickets.into_iter().zip(expected) {
        match ticket.wait() {
            Ok(prediction) => {
                let err = max_abs_divergence(&prediction.output, expected);
                max_err = max_err.max(err);
                if err > TOLERANCE {
                    mismatches += 1;
                }
                max_batch_seen = max_batch_seen.max(prediction.batch_size);
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

//! spectrobench: the spectro-ai benchmark (see README.md beside this
//! crate).
//!
//! `spectrobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every run walks the whole life of a deployment (the paper toolflows,
//! tier set-up, open-loop serving at two fixed rates, and a closed-loop
//! backlog with rolling swaps), so every metric exists in every
//! workload. A workload decides which of those phases gets most of the
//! measured time. The last stdout line is the result object.

mod host;
mod openloop;
mod probes;
mod serving;
mod stats;
mod toolflow;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use openloop::{ms, Outcome, Record, Shed, SplitMix};
use serving::{Inputs, Phase};
use stats::{mean, median, percentile, valid_name};
use trace::Tracer;

/// Open-loop rates in requests per second, fixed for every run and
/// every host. On a 2-vCPU x86-64-v3 host the tier serves about 8000
/// Table-1 requests per second, so `low` keeps batches at 1–2 requests
/// and `high` shows queueing, while both stay far enough from
/// saturation that a slow stretch of a shared host does not tip the
/// tier into collapse.
pub const LOW_RPS: f64 = 1000.0;
pub const HIGH_RPS: f64 = 3000.0;

/// Finite, positive quality bounds a trained model must meet.
const MS_VAL_MAE_BOUND: f64 = 0.2;
const NMR_LSTM_MSE_BOUND: f64 = 1.0;
/// Requests per latency chunk: the fewest that support a p99.
const CHUNK: usize = 1000;
/// Stated share within which stage self-times must add up to the flow.
const RECONCILE_SHARE: f64 = 0.10;

const WORKLOADS: [&str; 3] = ["serve-poisson", "serve-backlog", "toolflow"];

/// End-to-end metrics (reported with `--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("low.cpu_us_per_request", "us"),
    ("high.cpu_us_per_request", "us"),
    ("backlog.cpu_us_per_request", "us"),
    ("served_frac", "fraction"),
    ("nmr_toolflow_s", "s"),
    ("ms_val_mae", "fraction"),
    ("nmr_lstm_mse", "mol2/L2"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`), with units.
const PER_LAYER: [(&str, &str); 48] = [
    ("ms_toolflow_s", "s"),
    ("throughput_rps", "1/s"),
    ("low.latency_p50_ms", "ms"),
    ("low.latency_p99_ms", "ms"),
    ("high.latency_p50_ms", "ms"),
    ("high.latency_p99_ms", "ms"),
    ("swap_s", "s"),
    ("bench.steal_share", "fraction"),
    ("bench.setup_wall_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.poisson_p50_residual_frac", "fraction"),
    ("bench.ms_stage_residual_frac", "fraction"),
    ("bench.nmr_stage_residual_frac", "fraction"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.inner_latency_p50_ms", "ms"),
    ("serve.client_wake_p50_ms", "ms"),
    ("serve.low.batch_mean", "count"),
    ("serve.high.batch_mean", "count"),
    ("serve.backlog.batch_mean", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.shed.queue_full", "count"),
    ("serve.shed.overloaded", "count"),
    ("serve.shed.would_miss_deadline", "count"),
    ("serve.shed.no_healthy_shard", "count"),
    ("serve.first_prediction_ms", "ms"),
    ("registry.publish_ms", "ms"),
    ("registry.load_from_store_ms", "ms"),
    ("datastore.deploy_ms", "ms"),
    ("neural.ms_infer_b1_us", "us"),
    ("neural.ms_infer_b32_us", "us"),
    ("neural.ms_infer_b32_gmac_s", "GMAC/s"),
    ("neural.lstm_infer_b32_us", "us"),
    ("neural.train.ms_samples_per_s", "1/s"),
    ("neural.train.ms_gmac_s", "GMAC/s"),
    ("neural.train.cnn_samples_per_s", "1/s"),
    ("neural.train.lstm_samples_per_s", "1/s"),
    ("ms-sim.calibration_s", "s"),
    ("ms-sim.characterize_s", "s"),
    ("ms-sim.simulate_spectra_per_s", "1/s"),
    ("nmr-sim.acquire_s", "s"),
    ("nmr-sim.augment_spectra_per_s", "1/s"),
    ("chemometrics.ihm_fit_ms", "ms"),
    ("obs.trace_overhead_frac", "fraction"),
    ("bench.ms_toolflow_traced_s", "s"),
    ("bench.nmr_toolflow_traced_s", "s"),
    ("bench.requests", "count"),
    ("bench.swaps", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// How a workload spends a run. Every phase runs in every workload, at
/// least long enough for its figures to settle; the workload's own
/// phase gets the larger share of `--seconds`. The run is cut into
/// rounds that each run every phase, so slow drifts in host speed touch
/// every metric alike instead of whichever phase ran at the time.
struct Plan {
    rounds: usize,
    setup_reps: usize,
    /// Toolflow repetitions per round.
    toolflow_reps: usize,
    /// Phase lengths per round.
    low: Duration,
    high: Duration,
    backlog: Duration,
}

fn plan(workload: &str, seconds: f64) -> Plan {
    const ROUNDS: usize = 3;
    let secs = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let (toolflow_reps, low, high, backlog) = match workload {
        "serve-poisson" => (2, 0.4, 0.4, 0.2),
        "serve-backlog" => (2, 0.2, 0.2, 0.6),
        _ => (4, 0.2, 0.2, 0.2),
    };
    Plan {
        rounds: ROUNDS,
        setup_reps: 7,
        toolflow_reps,
        low: secs(low),
        high: secs(high),
        backlog: secs(backlog),
    }
}

/// Everything one pass measured.
struct Pass {
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    deploy_s: Vec<f64>,
    load_s: Vec<f64>,
    first_prediction_s: Vec<f64>,
    ms: Vec<toolflow::MsFlow>,
    nmr: Vec<toolflow::NmrFlow>,
    /// Traced passes only: per round, the stage self-time sums of a
    /// staged flow over the wall time of the whole-pipeline call made
    /// just before it, for MS and NMR.
    stage_ratios: Vec<(f64, f64)>,
    low: Phase,
    high: Phase,
    backlog: Phase,
}

fn run_pass(args: &Args, inputs: &Inputs, tracer: &Tracer) -> Result<Pass, String> {
    let plan = plan(&args.workload, args.seconds);
    // Set up several times; earlier tiers shut down before the next
    // set-up starts, and the last one serves.
    let mut pass = Pass {
        setup_s: Vec::new(),
        setup_cpu_s: Vec::new(),
        deploy_s: Vec::new(),
        load_s: Vec::new(),
        first_prediction_s: Vec::new(),
        ms: Vec::new(),
        nmr: Vec::new(),
        stage_ratios: Vec::new(),
        low: Phase::default(),
        high: Phase::default(),
        backlog: Phase::default(),
    };
    serve_rounds(&plan, args, inputs, tracer, &mut pass)?;
    Ok(pass)
}

type Rep = (toolflow::MsFlow, toolflow::NmrFlow, Option<(f64, f64)>);

/// One toolflow repetition. Traced, the first repetition of each round
/// also runs the whole pipelines right before the staged flows, so the
/// two are compared on the same stretch of host time.
fn toolflow_rep(rep: usize, tracer: &Tracer) -> Result<Rep, String> {
    if !tracer.enabled() {
        return Ok((
            toolflow::ms_flow(tracer)?,
            toolflow::nmr_flow(tracer)?,
            None,
        ));
    }
    let whole = if rep == 0 {
        let off = Tracer::new(false);
        Some((toolflow::ms_flow(&off)?, toolflow::nmr_flow(&off)?))
    } else {
        None
    };
    let ms = toolflow::ms_flow_staged(tracer)?;
    let nmr = toolflow::nmr_flow_staged(tracer)?;
    let ratio = whole.map(|(wm, wn)| (ms.stage_self_s / wm.wall_s, nmr.stage_self_s / wn.wall_s));
    Ok((ms, nmr, ratio))
}

/// Set-up repetitions, then the rounds: toolflow repetitions, `low`,
/// `high` and the backlog.
fn serve_rounds(
    plan: &Plan,
    args: &Args,
    inputs: &Inputs,
    tracer: &Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let mut tier: Option<serving::Tier> = None;
    for _ in 0..plan.setup_reps {
        if let Some(previous) = tier.take() {
            previous.router.shutdown();
        }
        let t = serving::setup(inputs, tracer)?;
        pass.setup_s.push(t.setup_s);
        pass.setup_cpu_s.push(t.setup_cpu_s);
        pass.deploy_s.push(t.deploy_s);
        pass.load_s.push(t.load_s);
        pass.first_prediction_s.push(t.first_prediction_s);
        tier = Some(t);
    }
    let tier = tier.ok_or("no tier was set up")?;
    let mut rng = SplitMix::new(args.seed ^ 0x5eed);
    for _ in 0..plan.rounds {
        for rep in 0..plan.toolflow_reps {
            let (ms, nmr, ratio) = toolflow_rep(rep, tracer)?;
            pass.ms.push(ms);
            pass.nmr.push(nmr);
            pass.stage_ratios.extend(ratio);
        }
        pass.low.absorb(serving::poisson(
            &tier, inputs, LOW_RPS, plan.low, &mut rng, tracer,
        ));
        pass.high.absorb(serving::poisson(
            &tier, inputs, HIGH_RPS, plan.high, &mut rng, tracer,
        ));
        pass.backlog.absorb(serving::backlog(
            &tier,
            inputs,
            plan.backlog,
            &mut rng,
            tracer,
        ));
    }
    tier.router.shutdown();
    Ok(())
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records.iter().map(Record::latency_ms).collect()
}

/// A latency percentile as the median, over consecutive chunks of
/// [`CHUNK`] requests (in due order), of each chunk's percentile, so a
/// host hiccup moves one chunk rather than the whole figure.
fn latency_chunked(phase: &Phase, q: f64) -> Result<f64, String> {
    let mut records: Vec<&Record> = phase.records.iter().collect();
    records.sort_by_key(|r| r.due);

    let per_chunk: Vec<f64> = records
        .chunks_exact(CHUNK)
        .filter_map(|c| percentile(&c.iter().map(|r| r.latency_ms()).collect::<Vec<_>>(), q))
        .map(|p| if p.is_finite() { p } else { phase.wall_s * 1e3 })
        .collect();
    med(per_chunk, "latency chunks")
}

fn med(values: impl IntoIterator<Item = f64>, what: &str) -> Result<f64, String> {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).ok_or_else(|| format!("no samples for {what}"))
}

fn serve_phases(pass: &Pass) -> [&Phase; 3] {
    [&pass.low, &pass.high, &pass.backlog]
}

/// Correctness checks shared by both passes.
fn check(pass: &Pass) -> Vec<String> {
    let mut v: Vec<String> = serve_phases(pass)
        .iter()
        .flat_map(|p| p.violations.clone())
        .collect();
    for m in &pass.ms {
        if !(m.val_mae.is_finite() && m.val_mae > 0.0 && m.val_mae < MS_VAL_MAE_BOUND) {
            v.push(format!(
                "ms_val_mae {} outside (0, {MS_VAL_MAE_BOUND})",
                m.val_mae
            ));
        }
    }
    for n in &pass.nmr {
        if !(n.lstm_mse.is_finite() && n.lstm_mse > 0.0 && n.lstm_mse < NMR_LSTM_MSE_BOUND) {
            v.push(format!(
                "nmr_lstm_mse {} outside (0, {NMR_LSTM_MSE_BOUND})",
                n.lstm_mse
            ));
        }
    }
    // Seeded flows repeat exactly.
    if pass.ms.windows(2).any(|w| w[0].val_mae != w[1].val_mae)
        || pass.nmr.windows(2).any(|w| w[0].lstm_mse != w[1].lstm_mse)
    {
        v.push("seeded toolflow repeats gave different model quality".into());
    }
    if pass.backlog.swap_s.is_empty() {
        v.push("no rolling swap completed under load".into());
    }
    v
}

/// Process CPU microseconds per request served in a phase.
fn cpu_us_per_request(phase: &Phase) -> f64 {
    phase.cpu_s * 1e6 / phase.completed().max(1) as f64
}

fn end_to_end(pass: &Pass) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", med(pass.setup_cpu_s.iter().copied(), "setup")?);
    m.insert("low.cpu_us_per_request", cpu_us_per_request(&pass.low));
    m.insert("high.cpu_us_per_request", cpu_us_per_request(&pass.high));
    m.insert(
        "backlog.cpu_us_per_request",
        cpu_us_per_request(&pass.backlog),
    );
    let offered: usize = serve_phases(pass).iter().map(|p| p.records.len()).sum();
    let served: usize = serve_phases(pass).iter().map(|p| p.completed()).sum();
    m.insert("served_frac", served as f64 / offered.max(1) as f64);
    m.insert(
        "nmr_toolflow_s",
        med(pass.nmr.iter().map(|f| f.cpu_s), "nmr flow")?,
    );
    m.insert("ms_val_mae", pass.ms.last().ok_or("no ms flow")?.val_mae);
    m.insert(
        "nmr_lstm_mse",
        pass.nmr.last().ok_or("no nmr flow")?.lstm_mse,
    );
    m.insert(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("VmHWM unavailable")?,
    );
    Ok(m)
}

/// The workload's headline end-to-end figure, oriented so that larger
/// means slower; the traced/untraced ratio of it is the trace overhead.
fn headline(workload: &str, e2e: &BTreeMap<&'static str, f64>) -> f64 {
    match workload {
        "serve-poisson" => e2e["low.cpu_us_per_request"],
        "serve-backlog" => e2e["backlog.cpu_us_per_request"],
        _ => e2e["nmr_toolflow_s"],
    }
}

fn per_layer(
    traced: &Pass,
    neural: &probes::Neural,
    overhead: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    // CPU time of the MS flow: recorded without a bound, because on a
    // shared host its conv training moves by up to a third between
    // repetitions of the same seeded work.
    m.insert(
        "ms_toolflow_s",
        med(traced.ms.iter().map(|f| f.cpu_s), "ms flow")?,
    );
    // Completions per second of the time the host left the tier's CPUs
    // to it: wall time less the CPU time stolen, spread over cores.
    let b = &traced.backlog;
    let unstolen = b.wall_s - b.stolen_s / serving::cores() as f64;
    m.insert("throughput_rps", b.completed() as f64 / unstolen);
    // Wall-clock latencies, swap times and throughput are recorded per
    // run without a bound: on a shared host they follow how long the
    // hypervisor preempts a virtual CPU and how busy the sibling
    // hyperthreads are.
    m.insert("low.latency_p50_ms", latency_chunked(&traced.low, 0.50)?);
    m.insert("low.latency_p99_ms", latency_chunked(&traced.low, 0.99)?);
    m.insert("high.latency_p50_ms", latency_chunked(&traced.high, 0.50)?);
    m.insert("high.latency_p99_ms", latency_chunked(&traced.high, 0.99)?);
    m.insert(
        "swap_s",
        med(traced.backlog.swap_s.iter().copied(), "swaps")?,
    );
    let phases = serve_phases(traced);
    let stolen: f64 = phases.iter().map(|p| p.stolen_s).sum();
    let wall: f64 = phases.iter().map(|p| p.wall_s).sum();
    m.insert(
        "bench.steal_share",
        stolen / (wall * serving::cores() as f64),
    );
    m.insert(
        "bench.setup_wall_s",
        med(traced.setup_s.iter().copied(), "setup")?,
    );
    let poisson: Vec<&Record> = traced
        .low
        .records
        .iter()
        .chain(&traced.high.records)
        .collect();
    let lag: Vec<f64> = poisson.iter().map(|r| r.lag_ms()).collect();
    let submit_us: Vec<f64> = poisson
        .iter()
        .map(|r| ms(r.submitted - r.sent) * 1e3)
        .collect();
    m.insert(
        "bench.gen_lag_p99_ms",
        percentile(&lag, 0.99).ok_or("too few requests for lag p99")?,
    );
    m.insert(
        "serve.submit_p50_us",
        percentile(&submit_us, 0.50).ok_or("too few submits")?,
    );
    m.insert(
        "serve.submit_p99_us",
        percentile(&submit_us, 0.99).ok_or("too few submits")?,
    );
    // Low-rate decomposition of the median request: over the requests
    // whose latency lies between p45 and p55, the mean pacer lag, submit,
    // tier and wake-up times should add up to the p50.
    let low: Vec<(&Record, std::time::Instant, Duration)> = traced
        .low
        .records
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Served { done, inner, .. } => Some((r, done, inner)),
            _ => None,
        })
        .collect();
    let inner: Vec<f64> = low.iter().map(|(_, _, i)| ms(*i)).collect();
    let wake_of = |(r, done, i): &(&Record, std::time::Instant, Duration)| {
        ms(done.saturating_duration_since(r.submitted + *i))
    };
    let wake: Vec<f64> = low.iter().map(wake_of).collect();
    let low_latencies = latencies(&traced.low.records);
    let band = (
        percentile(&low_latencies, 0.45).ok_or("too few low-rate requests")?,
        percentile(&low_latencies, 0.55).ok_or("too few low-rate requests")?,
    );
    let parts: Vec<f64> = low
        .iter()
        .filter(|(r, ..)| (band.0..=band.1).contains(&r.latency_ms()))
        .map(|x| x.0.lag_ms() + ms(x.0.submitted - x.0.sent) + ms(x.2) + wake_of(x))
        .collect();
    let whole = percentile(&low_latencies, 0.50).ok_or("too few low-rate requests")?;
    let parts = mean(&parts).ok_or("no requests near the low-rate median")?;
    m.insert(
        "serve.inner_latency_p50_ms",
        med(inner.iter().copied(), "inner")?,
    );
    m.insert(
        "serve.client_wake_p50_ms",
        med(wake.iter().copied(), "wake")?,
    );
    m.insert("bench.poisson_p50_residual_frac", parts / whole - 1.0);
    m.insert("serve.low.batch_mean", traced.low.batch_mean());
    m.insert("serve.high.batch_mean", traced.high.batch_mean());
    m.insert("serve.backlog.batch_mean", traced.backlog.batch_mean());
    m.insert(
        "serve.queue_high_water",
        serve_phases(traced)
            .iter()
            .map(|p| p.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    let shed = |kind: Shed| {
        serve_phases(traced)
            .iter()
            .flat_map(|p| &p.records)
            .filter(|r| r.outcome == Outcome::Refused(kind))
            .count() as f64
    };
    m.insert("serve.shed.queue_full", shed(Shed::QueueFull));
    m.insert("serve.shed.overloaded", shed(Shed::Overloaded));
    m.insert(
        "serve.shed.would_miss_deadline",
        shed(Shed::WouldMissDeadline),
    );
    m.insert("serve.shed.no_healthy_shard", shed(Shed::NoHealthyShard));
    let firsts = traced
        .first_prediction_s
        .iter()
        .chain(traced.ms.iter().map(|f| &f.first_prediction_s));
    m.insert(
        "serve.first_prediction_ms",
        med(firsts.map(|s| s * 1e3), "first predictions")?,
    );
    let publish = traced
        .backlog
        .publish_s
        .iter()
        .map(|s| s * 1e3)
        .chain([neural.publish_ms]);
    m.insert("registry.publish_ms", med(publish, "publishes")?);
    let loads = traced
        .load_s
        .iter()
        .chain(traced.ms.iter().map(|f| &f.load_s));
    m.insert(
        "registry.load_from_store_ms",
        med(loads.map(|s| s * 1e3), "loads")?,
    );
    let deploys = traced
        .deploy_s
        .iter()
        .chain(traced.ms.iter().map(|f| &f.deploy_s));
    m.insert(
        "datastore.deploy_ms",
        med(deploys.map(|s| s * 1e3), "deploys")?,
    );
    m.insert("neural.ms_infer_b1_us", neural.ms_b1_us);
    m.insert("neural.ms_infer_b32_us", neural.ms_b32_us);
    m.insert("neural.ms_infer_b32_gmac_s", neural.ms_b32_gmac_s);
    m.insert("neural.lstm_infer_b32_us", neural.lstm_b32_us);
    let msf = traced.ms.iter();
    m.insert(
        "neural.train.ms_samples_per_s",
        med(
            msf.clone()
                .map(|f| (f.train_samples * f.train_epochs) as f64 / f.train_s),
            "ms training",
        )?,
    );
    // Forward + backward is counted as three forward passes of MACs.
    m.insert(
        "neural.train.ms_gmac_s",
        med(
            msf.clone().map(|f| {
                3.0 * f.macs_per_inference as f64 * (f.train_samples * f.train_epochs) as f64
                    / f.train_s
                    / 1e9
            }),
            "ms training",
        )?,
    );
    let nmr = traced.nmr.iter();
    m.insert(
        "neural.train.cnn_samples_per_s",
        med(
            nmr.clone().map(|f| f.cnn_samples as f64 / f.cnn_train_s),
            "cnn",
        )?,
    );
    m.insert(
        "neural.train.lstm_samples_per_s",
        med(
            nmr.clone().map(|f| f.lstm_samples as f64 / f.lstm_train_s),
            "lstm",
        )?,
    );
    m.insert(
        "ms-sim.calibration_s",
        med(msf.clone().map(|f| f.calibration_s), "calibration")?,
    );
    m.insert(
        "ms-sim.characterize_s",
        med(msf.clone().map(|f| f.characterize_s), "characterize")?,
    );
    let spectra = toolflow::ms_config().training_spectra as f64;
    m.insert(
        "ms-sim.simulate_spectra_per_s",
        med(msf.clone().map(|f| spectra / f.simulate_s), "simulate")?,
    );
    m.insert(
        "nmr-sim.acquire_s",
        med(nmr.clone().map(|f| f.acquire_s), "acquire")?,
    );
    m.insert(
        "nmr-sim.augment_spectra_per_s",
        med(
            nmr.clone().map(|f| f.augmented as f64 / f.augment_s),
            "augment",
        )?,
    );
    let fits: Vec<f64> = nmr
        .clone()
        .flat_map(|f| f.ihm_fit_s.iter().map(|s| s * 1e3))
        .collect();
    m.insert("chemometrics.ihm_fit_ms", med(fits, "ihm fits")?);
    m.insert("obs.trace_overhead_frac", overhead);
    let ms_traced = med(msf.clone().map(|f| f.wall_s), "ms flow")?;
    let nmr_traced = med(nmr.clone().map(|f| f.wall_s), "nmr flow")?;
    m.insert("bench.ms_toolflow_traced_s", ms_traced);
    m.insert("bench.nmr_toolflow_traced_s", nmr_traced);
    // Stage self-times of the staged flows against the wall time of the
    // whole-pipeline calls made just before them.
    let ratios = &traced.stage_ratios;
    m.insert(
        "bench.ms_stage_residual_frac",
        med(ratios.iter().map(|r| r.0), "ms stage ratios")? - 1.0,
    );
    m.insert(
        "bench.nmr_stage_residual_frac",
        med(ratios.iter().map(|r| r.1), "nmr stage ratios")? - 1.0,
    );
    let requests: usize = serve_phases(traced).iter().map(|p| p.records.len()).sum();
    m.insert("bench.requests", requests as f64);
    m.insert("bench.swaps", traced.backlog.swap_s.len() as f64);
    Ok(m)
}

fn metrics_json(
    values: &BTreeMap<&'static str, f64>,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if values.len() != names.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            values.len(),
            names.len()
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Prints a phase summary line to stderr, for people reading the log.
fn describe(pass: &Pass, label: &str) {
    for (name, p) in [
        ("low", &pass.low),
        ("high", &pass.high),
        ("backlog", &pass.backlog),
    ] {
        let l = latencies(&p.records);
        eprintln!(
            "[{label}] {name}: {} requests in {:.2}s, {} served, p50 {:.3} ms, mean batch {:.2}, mean lag {:.3} ms",
            p.records.len(),
            p.wall_s,
            p.completed(),
            percentile(&l, 0.5).unwrap_or(f64::NAN),
            p.batch_mean(),
            mean(&p.records.iter().map(Record::lag_ms).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        );
    }
}

fn run(args: &Args) -> Result<(bool, usize, usize, String), String> {
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name}"));
        }
    }
    let inputs = Inputs::generate(args.seed)?;
    let untraced = run_pass(args, &inputs, &Tracer::new(false))?;
    describe(&untraced, "untraced");
    let e2e = end_to_end(&untraced)?;
    let mut violations = check(&untraced);
    let mut passes = vec![&untraced];
    let traced_pass;
    let json = if args.trace {
        let tracer = Tracer::new(true);
        traced_pass = run_pass(args, &inputs, &tracer)?;
        describe(&traced_pass, "traced");
        violations.extend(check(&traced_pass));
        let neural = probes::neural(&inputs, &tracer)?;
        let traced_e2e = end_to_end(&traced_pass)?;
        let overhead = headline(&args.workload, &traced_e2e) / headline(&args.workload, &e2e) - 1.0;
        let layers = per_layer(&traced_pass, &neural, overhead)?;
        for key in [
            "bench.ms_stage_residual_frac",
            "bench.nmr_stage_residual_frac",
        ] {
            if layers[key].abs() > RECONCILE_SHARE {
                eprintln!(
                    "warning: {key} = {:.3} exceeds the stated share {RECONCILE_SHARE}",
                    layers[key]
                );
            }
        }
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json()).map_err(|e| e.to_string())?;
        eprintln!("spans written to {}", path.display());
        passes.push(&traced_pass);
        metrics_json(&layers, &PER_LAYER)?
    } else {
        metrics_json(&e2e, &END_TO_END)?
    };
    let mut attempted = 0;
    let mut failed = 0;
    for pass in passes {
        for p in serve_phases(pass) {
            attempted += p.records.len();
            failed += p.records.len() - p.completed();
        }
        attempted += pass.ms.len() + pass.nmr.len() + pass.setup_s.len();
    }
    for v in &violations {
        eprintln!("violation: {v}");
    }
    Ok((violations.is_empty(), attempted, failed, json))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(err) => {
            eprintln!("spectrobench: {err}");
            std::process::exit(2);
        }
    };
    println!("{}", host::facts_json(serving::cores()));
    let (started, stolen) = (std::time::Instant::now(), host::stolen_s());
    let result = run(&args);
    let share =
        (host::stolen_s() - stolen) / (started.elapsed().as_secs_f64() * serving::cores() as f64);
    println!("{{\"host_load\": {{\"steal_share\": {share:.4}}}}}");
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("spectrobench: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_workload_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| n))
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} should have unit {unit}");
        }
    }

    #[test]
    fn every_workload_has_a_plan_that_runs_every_phase() {
        for w in WORKLOADS {
            let p = plan(w, 15.0);
            assert!(p.rounds > 0 && p.toolflow_reps > 0 && p.setup_reps > 0);
            assert!(
                p.low > Duration::ZERO && p.high > Duration::ZERO && p.backlog > Duration::ZERO
            );
            // Enough requests per round for a chunked p99.
            assert!(p.low.as_secs_f64() * LOW_RPS >= CHUNK as f64, "{w}");
        }
    }
}

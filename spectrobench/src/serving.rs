//! The serving tier under load: set-up (build → deploy → load → start),
//! open-loop Poisson phases, and the closed-loop backlog with rolling
//! swaps. Every served output is checked against `Network::predict`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serve::{
    ModelRegistry, Prediction, Request, Router, RouterConfig, ServeConfig, ServeError, SubmitError,
    Ticket,
};
use spectroai::chem::fragmentation::GasLibrary;
use spectroai::datastore::Store;
use spectroai::ms_sim::campaign::MS_TASK_SUBSTANCES;
use spectroai::ms_sim::instrument::{default_axis, nominal_instrument};
use spectroai::ms_sim::simulate::TrainingSimulator;
use spectroai::neural::export::ExportedNetwork;
use spectroai::neural::spec::NetworkSpec;
use spectroai::neural::Network;
use spectroai::nmr_sim::augment::{AugmentationConfig, SpectraAugmenter};
use spectroai::nmr_sim::sequence::plateau_training_sequences;
use spectroai::pipeline::deploy::deploy_network;
use spectroai::pipeline::ms::{ActivationChoice, MsPipeline};
use spectroai::pipeline::nmr::NmrPipeline;

use crate::host;
use crate::openloop::{pace, poisson_schedule, Outcome, Record, Shed, SplitMix};
use crate::trace::Tracer;

type Res<T> = Result<T, String>;

pub const MS_MODEL: &str = "table1-ms";
pub const LSTM_MODEL: &str = "nmr-lstm";
pub const COLLECTION: &str = "deployed_models";
/// The tier's accuracy gate: served outputs within this max-abs error of
/// `Network::predict`.
pub const TOLERANCE: f32 = 1e-4;
/// Fixed weight seeds: odd MS versions carry weights A, even ones B.
const MS_WEIGHTS: [u64; 2] = [11, 12];
const LSTM_WEIGHTS: u64 = 21;
const LSTM_TIMESTEPS: usize = 5;
/// NMR inputs are scaled to O(1) as the NMR pipeline does.
const NMR_INPUT_SCALE: f64 = 0.02;
const MS_POOL: usize = 128;
const LSTM_POOL: usize = 24;

fn e<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            if x.is_finite() && y.is_finite() {
                (x - y).abs()
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The tier shape: one shard per core, one worker per shard, the
/// engine's default batching and deadline.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        shards: cores(),
        engine: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ..RouterConfig::default()
    }
}

fn ms_spec() -> NetworkSpec {
    MsPipeline::table1_spec(
        default_axis().len(),
        MS_TASK_SUBSTANCES.len(),
        ActivationChoice::paper_best(),
    )
}

fn lstm_spec() -> NetworkSpec {
    NmrPipeline::lstm_spec(LSTM_TIMESTEPS)
}

/// Seeded request inputs and the reference outputs they must produce.
pub struct Inputs {
    pub ms: Vec<Vec<f32>>,
    pub lstm: Vec<Vec<f32>>,
    /// `expected_ms[w][i]`: `Network::predict` of weights `w` on `ms[i]`.
    expected_ms: [Vec<Vec<f32>>; 2],
    expected_lstm: Vec<Vec<f32>>,
    /// Export of the MS weights, for publishing new versions.
    pub ms_exports: [ExportedNetwork; 2],
    pub lstm_export: ExportedNetwork,
}

impl Inputs {
    /// Simulated Table-1 MS spectra and NMR LSTM windows drawn from
    /// `seed`, with reference outputs from `Network::predict`.
    pub fn generate(seed: u64) -> Res<Self> {
        let simulator = TrainingSimulator::new(
            nominal_instrument(),
            GasLibrary::standard(),
            MS_TASK_SUBSTANCES.iter().map(|&s| s.to_string()).collect(),
            default_axis(),
        )
        .map_err(e)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ms = simulator
            .generate_dataset(MS_POOL, &mut rng)
            .map_err(e)?
            .inputs_f32();
        let augmenter = SpectraAugmenter::new(AugmentationConfig::default()).map_err(e)?;
        let mut nmr = augmenter
            .generate(LSTM_POOL * 2, seed ^ 0x6e6d72)
            .map_err(e)?;
        for row in &mut nmr.inputs {
            for v in row.iter_mut() {
                *v *= NMR_INPUT_SCALE;
            }
        }
        let lstm = plateau_training_sequences(&nmr, LSTM_TIMESTEPS, LSTM_POOL, seed ^ 0x6c73)
            .map_err(e)?
            .inputs_f32();
        let mut nets = [
            build(&ms_spec(), MS_WEIGHTS[0])?,
            build(&ms_spec(), MS_WEIGHTS[1])?,
        ];
        let expected_ms = [
            predict_all(&mut nets[0], &ms),
            predict_all(&mut nets[1], &ms),
        ];
        let mut lstm_net = build(&lstm_spec(), LSTM_WEIGHTS)?;
        let expected_lstm = predict_all(&mut lstm_net, &lstm);
        let ms_exports = [
            ExportedNetwork::from_network(ms_spec(), &nets[0], MS_MODEL),
            ExportedNetwork::from_network(ms_spec(), &nets[1], MS_MODEL),
        ];
        let lstm_export = ExportedNetwork::from_network(lstm_spec(), &lstm_net, LSTM_MODEL);
        Ok(Self {
            ms,
            lstm,
            expected_ms,
            expected_lstm,
            ms_exports,
            lstm_export,
        })
    }

    fn expected(&self, kind: Kind, index: usize, version: u32) -> &[f32] {
        match kind {
            Kind::Ms => &self.expected_ms[(version as usize + 1) % 2][index],
            Kind::Lstm => &self.expected_lstm[index],
        }
    }

    fn request(&self, kind: Kind, index: usize) -> Request {
        match kind {
            Kind::Ms => Request::new(MS_MODEL, self.ms[index].clone()),
            Kind::Lstm => Request::new(LSTM_MODEL, self.lstm[index].clone()),
        }
    }
}

fn build(spec: &NetworkSpec, seed: u64) -> Res<Network> {
    spec.build(seed).map_err(e)
}

fn predict_all(net: &mut Network, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    inputs.iter().map(|x| net.predict(x)).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ms,
    Lstm,
}

/// A started tier plus what its set-up cost.
pub struct Tier {
    pub router: Router,
    pub registry: Arc<ModelRegistry>,
    /// The MS version every shard is pinned to between swaps.
    pinned: AtomicU32,
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    pub deploy_s: f64,
    pub load_s: f64,
    pub first_prediction_s: f64,
}

/// Builds both networks, deploys them, loads a fresh registry from the
/// store, starts the tier, pins every shard to MS v1 (so later
/// publications only go live through a rolling swap), and serves one
/// prediction per model.
pub fn setup(inputs: &Inputs, tracer: &Tracer) -> Res<Tier> {
    let cpu = host::process_cpu_s();
    let root = tracer.begin("serve.setup", None);
    let p = Some(root.id);
    let ms_net = build(&ms_spec(), MS_WEIGHTS[0])?;
    let lstm_net = build(&lstm_spec(), LSTM_WEIGHTS)?;
    let store = Store::in_memory();
    let (deployed, deploy) = tracer.time("datastore.deploy", p, || -> Res<()> {
        deploy_network(&store, COLLECTION, MS_MODEL, ms_spec(), &ms_net, []).map_err(e)?;
        deploy_network(&store, COLLECTION, LSTM_MODEL, lstm_spec(), &lstm_net, []).map_err(e)?;
        Ok(())
    });
    deployed?;
    let registry = Arc::new(ModelRegistry::new());
    let (loaded, load) = tracer.time("registry.load_from_store", p, || {
        registry.load_from_store(&store, COLLECTION)
    });
    if loaded.map_err(e)? != 2 {
        return Err("set-up: registry did not load both deployed models".into());
    }
    let (router, _) = tracer.time("serve.start", p, || -> Res<Router> {
        let router = Router::start(Arc::clone(&registry), router_config()).map_err(e)?;
        router.rolling_swap(MS_MODEL, 1).map_err(e)?;
        Ok(router)
    });
    let router = router?;
    let (first, first_t) = tracer.time("serve.first_prediction", p, || -> Res<()> {
        for kind in [Kind::Ms, Kind::Lstm] {
            let served = router
                .submit(inputs.request(kind, 0))
                .map_err(e)?
                .wait()
                .map_err(e)?;
            check_output(inputs, kind, 0, &served, 1)?;
        }
        Ok(())
    });
    first?;
    let setup = tracer.end(root);
    let setup_cpu_s = host::process_cpu_s() - cpu;
    Ok(Tier {
        router,
        registry,
        pinned: AtomicU32::new(1),
        setup_s: setup.as_secs_f64(),
        setup_cpu_s,
        deploy_s: deploy.as_secs_f64() / 2.0,
        load_s: load.as_secs_f64(),
        first_prediction_s: first_t.as_secs_f64() / 2.0,
    })
}

fn check_output(
    inputs: &Inputs,
    kind: Kind,
    index: usize,
    served: &Prediction,
    version: u32,
) -> Res<()> {
    if served.model_version != version {
        return Err(format!(
            "served v{} where v{version} was pinned",
            served.model_version
        ));
    }
    let err = max_abs_diff(&served.output, inputs.expected(kind, index, version));
    if err > TOLERANCE {
        return Err(format!(
            "served output differs from Network::predict by {err}"
        ));
    }
    Ok(())
}

fn shed_kind(err: &SubmitError) -> Shed {
    match err {
        SubmitError::QueueFull { .. } => Shed::QueueFull,
        SubmitError::Overloaded { .. } => Shed::Overloaded,
        SubmitError::WouldMissDeadline { .. } => Shed::WouldMissDeadline,
        SubmitError::NoHealthyShard => Shed::NoHealthyShard,
        _ => Shed::Other,
    }
}

fn outcome(result: Result<Prediction, ServeError>, done: Instant) -> (Outcome, Option<Prediction>) {
    match result {
        Ok(p) => (
            Outcome::Served {
                done,
                inner: p.latency,
                batch_size: p.batch_size,
                version: p.model_version,
            },
            Some(p),
        ),
        Err(ServeError::DeadlineExceeded) => (Outcome::TimedOut, None),
        Err(_) => (Outcome::Failed, None),
    }
}

/// What a load phase saw, possibly over several rounds. `violations`
/// lists correctness failures.
#[derive(Debug, Default)]
pub struct Phase {
    pub records: Vec<Record>,
    pub wall_s: f64,
    /// Batches the tier ran, and the requests they completed.
    batches: u64,
    batched: u64,
    pub queue_high_water: u64,
    pub violations: Vec<String>,
    pub swap_s: Vec<f64>,
    pub publish_s: Vec<f64>,
    /// Process CPU time spent during the phase, and CPU time the host
    /// stole from this machine's virtual CPUs meanwhile.
    pub cpu_s: f64,
    pub stolen_s: f64,
}

impl Phase {
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Served { .. }))
            .count()
    }

    pub fn batch_mean(&self) -> f64 {
        self.batched as f64 / self.batches.max(1) as f64
    }

    /// Folds a later round of the same phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.records.extend(other.records);
        self.wall_s += other.wall_s;
        self.batches += other.batches;
        self.batched += other.batched;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.violations.extend(other.violations);
        self.swap_s.extend(other.swap_s);
        self.publish_s.extend(other.publish_s);
        self.cpu_s += other.cpu_s;
        self.stolen_s += other.stolen_s;
    }
}

/// Tier counters a phase is judged by.
struct Counters {
    submitted: u64,
    terminal: u64,
    completed: u64,
    batches: u64,
}

fn counters(router: &Router) -> Counters {
    let t = router.report().total;
    Counters {
        submitted: t.requests_submitted,
        terminal: t.requests_completed
            + t.requests_failed
            + t.requests_timed_out
            + t.requests_drained,
        completed: t.requests_completed,
        batches: t.batches,
    }
}

/// Closes a phase: batch mean from the tier's counter deltas, and the
/// tier-side conservation check (every admitted request reached exactly
/// one terminal outcome).
fn finish(phase: &mut Phase, router: &Router, before: &Counters) {
    let after = counters(router);
    phase.batches = after.batches - before.batches;
    phase.batched = after.completed - before.completed;
    phase.queue_high_water = router.report().total.queue_depth_high_water;
    if after.submitted - before.submitted != after.terminal - before.terminal {
        phase.violations.push(format!(
            "tier conservation: {} admitted, {} terminal",
            after.submitted - before.submitted,
            after.terminal - before.terminal
        ));
    }
}

struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// Open-loop Poisson arrivals of MS requests at `rate_per_s` for
/// `window`. One pacer thread sends; `cores() - 1` (at least one)
/// waiter threads block on tickets and time completions.
pub fn poisson(
    tier: &Tier,
    inputs: &Inputs,
    rate_per_s: f64,
    window: Duration,
    rng: &mut SplitMix,
    tracer: &Tracer,
) -> Phase {
    let due = poisson_schedule(rng, rate_per_s, window);
    let picks: Vec<usize> = due.iter().map(|_| rng.below(inputs.ms.len())).collect();
    let before = counters(&tier.router);
    let version = tier.pinned.load(Ordering::SeqCst);
    let waiters = cores().saturating_sub(1).max(1);
    let (cpu0, stolen0) = (host::process_cpu_s(), host::stolen_s());
    let started = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(waiters);
        let mut handles = Vec::with_capacity(waiters);
        for _ in 0..waiters {
            let (tx, rx) = mpsc::channel::<InFlight>();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut records = Vec::new();
                let mut violations = Vec::new();
                for f in rx {
                    let result = f.ticket.wait();
                    let done = Instant::now();
                    let (outcome, served) = outcome(result, done);
                    if let Some(p) = &served {
                        if let Err(v) = check_output(inputs, Kind::Ms, f.index, p, version) {
                            violations.push(v);
                        }
                    }
                    let record = Record {
                        due: f.due,
                        sent: f.sent,
                        submitted: f.submitted,
                        outcome,
                    };
                    trace_request(tracer, &record);
                    records.push(record);
                }
                (records, violations)
            }));
        }
        let mut phase = Phase::default();
        let mut next = 0usize;
        pace(started, &due, |i, at| {
            let sent = Instant::now();
            let submitted = tier.router.submit(inputs.request(Kind::Ms, picks[i]));
            let returned = Instant::now();
            match submitted {
                Ok(ticket) => {
                    let f = InFlight {
                        index: picks[i],
                        due: at,
                        sent,
                        submitted: returned,
                        ticket,
                    };
                    if senders[next % waiters].send(f).is_err() {
                        phase.violations.push("waiter thread exited early".into());
                    }
                    next += 1;
                }
                Err(err) => phase.records.push(Record {
                    due: at,
                    sent,
                    submitted: returned,
                    outcome: Outcome::Refused(shed_kind(&err)),
                }),
            }
        });
        drop(senders);
        for handle in handles {
            match handle.join() {
                Ok((records, violations)) => {
                    phase.records.extend(records);
                    phase.violations.extend(violations);
                }
                Err(_) => phase.violations.push("waiter thread panicked".into()),
            }
        }
        phase
    });
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_s = host::process_cpu_s() - cpu0;
    phase.stolen_s = host::stolen_s() - stolen0;
    if phase.records.len() != due.len() {
        phase.violations.push(format!(
            "conservation: {} offered, {} recorded",
            due.len(),
            phase.records.len()
        ));
    }
    finish(&mut phase, &tier.router, &before);
    phase
}

/// Records a served request as spans: the whole request from its due
/// time, with pacer lag, submit, the tier's own time and the wake-up as
/// children.
fn trace_request(tracer: &Tracer, r: &Record) {
    if !tracer.enabled() {
        return;
    }
    let Outcome::Served { done, inner, .. } = r.outcome else {
        return;
    };
    let id = tracer.fresh_id();
    // One request in TRACE_ONE_IN keeps its spans, which bounds the
    // trace file; the others still paid for taking an id.
    if !id.is_multiple_of(TRACE_ONE_IN) {
        return;
    }
    tracer.record("bench.request", id, None, r.due, done);
    tracer.record(
        "bench.pacer_lag",
        tracer.fresh_id(),
        Some(id),
        r.due,
        r.sent,
    );
    tracer.record(
        "serve.submit",
        tracer.fresh_id(),
        Some(id),
        r.sent,
        r.submitted,
    );
    let tier_end = (r.submitted + inner).min(done);
    tracer.record(
        "serve.inner",
        tracer.fresh_id(),
        Some(id),
        r.submitted,
        tier_end,
    );
    tracer.record("bench.wake", tracer.fresh_id(), Some(id), tier_end, done);
}

const TRACE_ONE_IN: u64 = 16;

/// Requests a backlog client keeps outstanding: enough to fill every
/// shard's batch twice over.
fn backlog_window() -> usize {
    2 * cores() * ServeConfig::default().max_batch
}

/// Every this many requests the backlog publishes a new MS version and
/// rolls the tier onto it.
pub const SWAP_EVERY: usize = 2000;
/// One LSTM window per this many requests; the rest are MS spectra.
const LSTM_ONE_IN: usize = 4;

struct Pending {
    kind: Kind,
    index: usize,
    /// Lowest and highest version the request may legally run on.
    versions: (u32, u32),
    flight: InFlight,
}

/// Closed loop: one client keeps [`backlog_window`] requests outstanding
/// for `window`, mixing MS spectra and LSTM windows, while a swapper
/// thread publishes a new MS version and runs `Router::rolling_swap`
/// every [`SWAP_EVERY`] requests.
pub fn backlog(
    tier: &Tier,
    inputs: &Inputs,
    window: Duration,
    rng: &mut SplitMix,
    tracer: &Tracer,
) -> Phase {
    let before = counters(&tier.router);
    // Versions whose swap has started / finished. A request submitted
    // between two swaps must run on the finished version; one that
    // overlaps a swap may run on either side of it.
    let pinned = tier.pinned.load(Ordering::SeqCst);
    let started_v = AtomicU32::new(pinned);
    let finished_v = AtomicU32::new(pinned);
    let (cpu0, stolen0) = (host::process_cpu_s(), host::stolen_s());
    let started = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let (swap_tx, swap_rx) = mpsc::channel::<u32>();
        let swapper = scope.spawn(|| {
            let mut swap_s = Vec::new();
            let mut publish_s = Vec::new();
            let mut violations = Vec::new();
            for version in swap_rx {
                let export = &inputs.ms_exports[(version as usize + 1) % 2];
                let t = Instant::now();
                if let Err(err) = tier.registry.publish(MS_MODEL, version, export) {
                    violations.push(format!("publish v{version}: {err}"));
                    continue;
                }
                publish_s.push(t.elapsed().as_secs_f64());
                started_v.store(version, Ordering::SeqCst);
                let t = Instant::now();
                match tier.router.rolling_swap(MS_MODEL, version) {
                    Ok(_) => swap_s.push(t.elapsed().as_secs_f64()),
                    Err(err) => violations.push(format!("rolling swap to v{version}: {err}")),
                }
                finished_v.store(version, Ordering::SeqCst);
            }
            (swap_s, publish_s, violations)
        });
        let mut phase = Phase::default();
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut offered = 0usize;
        let mut next_version = pinned + 1;
        let limit = backlog_window();
        let settle = |p: Pending, phase: &mut Phase| {
            let result = p.flight.ticket.wait();
            let done = Instant::now();
            let (outcome, served) = outcome(result, done);
            if let Some(s) = &served {
                let (lo, hi) = p.versions;
                if s.model_version < lo || s.model_version > hi {
                    phase.violations.push(format!(
                        "request served by v{} outside the pinned range v{lo}..=v{hi}",
                        s.model_version
                    ));
                } else if let Err(v) = check_output(inputs, p.kind, p.index, s, s.model_version) {
                    phase.violations.push(v);
                }
            }
            let record = Record {
                due: p.flight.due,
                sent: p.flight.sent,
                submitted: p.flight.submitted,
                outcome,
            };
            trace_request(tracer, &record);
            phase.records.push(record);
        };
        while started.elapsed() < window {
            while queue.len() < limit {
                let kind = if rng.below(LSTM_ONE_IN) == 0 {
                    Kind::Lstm
                } else {
                    Kind::Ms
                };
                let index = match kind {
                    Kind::Ms => rng.below(inputs.ms.len()),
                    Kind::Lstm => rng.below(inputs.lstm.len()),
                };
                let lo = finished_v.load(Ordering::SeqCst);
                let sent = Instant::now();
                let result = tier.router.submit(inputs.request(kind, index));
                let returned = Instant::now();
                let hi = started_v.load(Ordering::SeqCst);
                offered += 1;
                let versions = match kind {
                    Kind::Ms => (lo, hi),
                    Kind::Lstm => (1, 1),
                };
                match result {
                    Ok(ticket) => queue.push_back(Pending {
                        kind,
                        index,
                        versions,
                        flight: InFlight {
                            index,
                            due: sent,
                            sent,
                            submitted: returned,
                            ticket,
                        },
                    }),
                    Err(err) => phase.records.push(Record {
                        due: sent,
                        sent,
                        submitted: returned,
                        outcome: Outcome::Refused(shed_kind(&err)),
                    }),
                }
                if offered.is_multiple_of(SWAP_EVERY) {
                    let _ = swap_tx.send(next_version);
                    next_version += 1;
                }
            }
            if let Some(p) = queue.pop_front() {
                settle(p, &mut phase);
            }
        }
        while let Some(p) = queue.pop_front() {
            settle(p, &mut phase);
        }
        // Throughput counts the loaded time only, not swaps still queued.
        phase.wall_s = started.elapsed().as_secs_f64();
        phase.cpu_s = host::process_cpu_s() - cpu0;
        phase.stolen_s = host::stolen_s() - stolen0;
        drop(swap_tx);
        match swapper.join() {
            Ok((swap_s, publish_s, violations)) => {
                phase.swap_s = swap_s;
                phase.publish_s = publish_s;
                phase.violations.extend(violations);
            }
            Err(_) => phase.violations.push("swapper thread panicked".into()),
        }
        tier.pinned
            .store(finished_v.load(Ordering::SeqCst), Ordering::SeqCst);
        if phase.records.len() != offered {
            phase.violations.push(format!(
                "conservation: {offered} offered, {} recorded",
                phase.records.len()
            ));
        }
        phase
    });
    finish(&mut phase, &tier.router, &before);
    phase
}

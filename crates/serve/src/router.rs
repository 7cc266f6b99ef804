//! Sharded serving tier: routing, admission control, shard supervision,
//! and zero-drop rolling upgrades (DESIGN.md §12).
//!
//! A [`Router`] runs N independent shards — each a bounded queue drained
//! by its own worker pool — over one shared [`ModelRegistry`].
//! Submissions hash by model name (plus a rotation counter for spread)
//! onto healthy shards; a supervisor thread watches each shard for dead
//! workers (panics) and stalled batches, fails the shard over —
//! re-routing its queued requests to healthy siblings — and restarts it
//! with exponential backoff.
//!
//! The conservation invariant the chaos tests pin down: every admitted
//! request reaches exactly one terminal outcome (completed, failed,
//! timed out, or drained) on the metrics of the shard that admitted it,
//! no matter how many panics, stalls, re-routes, or restarts happen in
//! between.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faultsim::FaultPlan;
use obs::Histogram;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::engine::{Request, RetryPolicy, ServeConfig, Ticket};
use crate::health::HealthState;
use crate::metrics::MetricsReport;
use crate::registry::ModelRegistry;
use crate::shard::Shard;
use crate::{ServeError, SubmitError};

/// Longest a rolling swap waits for one shard's in-flight requests to
/// drain before aborting the upgrade; also the canary's deadline.
const SWAP_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Admission-control limits applied before a request reaches any queue.
///
/// Admission is always deadline-aware: a request whose estimated
/// queue-plus-execution time on a shard already exceeds its deadline
/// skips that shard, and is rejected with
/// [`SubmitError::WouldMissDeadline`] if no shard can make it, instead
/// of timing out in queue.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Cap on requests in flight across all shards; beyond it
    /// submissions shed with [`SubmitError::Overloaded`].
    pub max_in_flight: u64,
    /// Per-shard in-flight cap; a shard at its cap is skipped in favour
    /// of siblings.
    pub max_shard_in_flight: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 100_000,
            max_shard_in_flight: 50_000,
        }
    }
}

/// Supervisor tuning: detection cadence, stall threshold, restart
/// backoff, and the per-shard circuit breaker.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Supervision loop cadence.
    pub tick: Duration,
    /// A worker busy on a single batch longer than this is stalled; the
    /// shard fails over.
    pub stall_deadline: Duration,
    /// Delay before the first restart attempt of a failed shard.
    pub restart_backoff_base: Duration,
    /// Ceiling for the exponential restart backoff.
    pub max_restart_backoff: Duration,
    /// Consecutive failure-carrying ticks before the circuit breaker
    /// opens and the shard sheds traffic to siblings.
    pub circuit_threshold: u32,
    /// How long an opened circuit holds traffic away from the shard.
    pub circuit_cooldown: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(20),
            stall_deadline: Duration::from_millis(500),
            restart_backoff_base: Duration::from_millis(50),
            max_restart_backoff: Duration::from_secs(2),
            circuit_threshold: 3,
            circuit_cooldown: Duration::from_millis(250),
        }
    }
}

/// Configuration for a [`Router`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// Per-shard worker-pool, queue and batching configuration.
    pub engine: ServeConfig,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// Supervision and failover tuning.
    pub supervisor: SupervisorConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            engine: ServeConfig::default(),
            admission: AdmissionConfig::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Per-shard slice of a [`RouterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Health state at snapshot time (`healthy`/`degraded`/`down`).
    pub health: String,
    /// Times the supervisor restarted this shard.
    pub restarts: u64,
    /// The shard's own counters (terminal outcomes land on the shard
    /// that admitted the request).
    pub metrics: MetricsReport,
}

/// A point-in-time snapshot of the whole sharded tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterReport {
    /// One entry per shard.
    pub shards: Vec<ShardReport>,
    /// Shards failed over (dead worker or stall detected).
    pub failovers: u64,
    /// Successful supervisor restarts across all shards.
    pub restarts: u64,
    /// Queued requests re-routed from a failed shard to a sibling.
    pub rerouted: u64,
    /// Submissions shed by admission control (overload or predicted
    /// deadline miss).
    pub shed: u64,
    /// Cross-shard aggregate: counters summed, latency percentiles
    /// computed over the merged histogram.
    pub total: MetricsReport,
}

/// Outcome of a completed [`Router::rolling_swap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapReport {
    /// The upgraded model.
    pub model: String,
    /// The version every shard now pins.
    pub version: u32,
    /// Shards cordoned, drained, swapped, canaried, and uncordoned.
    pub shards_swapped: usize,
}

struct RouterInner {
    shards: Vec<Arc<Shard>>,
    registry: Arc<ModelRegistry>,
    config: RouterConfig,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Per-shard model-version pins driving rolling upgrades: a pinned
    /// shard serves `pins[model][shard]` for requests that do not carry
    /// their own version. Lock order: `pins` before the shard's `pool`
    /// (taken inside shard submission).
    pins: RwLock<BTreeMap<String, Vec<Option<u32>>>>,
    /// Serializes rolling swaps. Lock order: `swap_gate` before `pins`.
    swap_gate: Mutex<()>,
    rotation: AtomicUsize,
    stop: AtomicBool,
    failovers: AtomicU64,
    restarts: AtomicU64,
    rerouted: AtomicU64,
    shed: AtomicU64,
}

/// The serving front-end and its one public entry point: per-model hash
/// routing over supervised shards, with admission control and rolling
/// upgrades. A one-shard router is the plain batched server.
pub struct Router {
    inner: Arc<RouterInner>,
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.inner.shards.len())
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Starts `config.shards` shards plus the supervisor thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerSpawn`] if any shard's workers (or the
    /// supervisor thread) cannot be spawned; shards already started are
    /// shut down before returning.
    pub fn start(registry: Arc<ModelRegistry>, config: RouterConfig) -> Result<Self, ServeError> {
        Self::start_with_faults(registry, config, None)
    }

    /// [`Router::start`] with a chaos-injection plan threaded into every
    /// shard (tests and `serve_load --chaos` only): each worker consults
    /// [`FaultPlan::batch_fault`] once per batch.
    ///
    /// # Errors
    ///
    /// Same as [`Router::start`].
    pub fn start_with_faults(
        registry: Arc<ModelRegistry>,
        config: RouterConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, ServeError> {
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            match Shard::start(
                id,
                Arc::clone(&registry),
                config.engine.clone(),
                fault_plan.clone(),
            ) {
                Ok(shard) => shards.push(Arc::new(shard)),
                Err(err) => {
                    for shard in &shards {
                        shard.shutdown();
                    }
                    return Err(err);
                }
            }
        }
        let inner = Arc::new(RouterInner {
            shards,
            registry,
            config,
            fault_plan,
            pins: RwLock::new(BTreeMap::new()),
            swap_gate: Mutex::new(()),
            rotation: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            failovers: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&inner))
        };
        match supervisor {
            Ok(handle) => Ok(Self {
                inner,
                supervisor: Some(handle),
            }),
            Err(err) => {
                for shard in &inner.shards {
                    shard.shutdown();
                }
                Err(ServeError::WorkerSpawn(format!("serve-supervisor: {err}")))
            }
        }
    }

    /// The shared registry all shards resolve models from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Health of shard `shard`, if it exists.
    pub fn shard_health(&self, shard: usize) -> Option<HealthState> {
        self.inner.shards.get(shard).map(|s| s.health.state())
    }

    /// Routes a request onto a healthy shard. Never blocks.
    ///
    /// Admission control runs first: the global in-flight cap
    /// ([`SubmitError::Overloaded`]), then per-shard caps and a
    /// queue-delay estimate against the request deadline
    /// ([`SubmitError::WouldMissDeadline`]). Shard choice starts from a
    /// hash of the model name and rotates; shards that are Down,
    /// cordoned, circuit-broken, at capacity, or predicted to miss the
    /// deadline are skipped in favour of siblings.
    ///
    /// # Errors
    ///
    /// Model errors ([`SubmitError::UnknownModel`],
    /// [`SubmitError::ShapeMismatch`]) return immediately; otherwise the
    /// most specific admission error across the shard sweep.
    pub fn submit(&self, mut request: Request) -> Result<Ticket, SubmitError> {
        self.try_submit(&mut request)
    }

    /// [`Router::submit`] on a borrowed request: the input moves into a
    /// shard queue only on success, so a bounced request is still whole
    /// for the next shard or the next retry.
    fn try_submit(&self, request: &mut Request) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        let admission = &inner.config.admission;
        let in_flight: u64 = inner
            .shards
            .iter()
            .map(|shard| shard.metrics().in_flight())
            .sum();
        if in_flight >= admission.max_in_flight {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                in_flight,
                limit: admission.max_in_flight,
            });
        }
        let deadline_us = u64::try_from(
            request
                .deadline
                .unwrap_or(inner.config.engine.default_deadline)
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        let shard_count = inner.shards.len();
        let start = hash_model(&request.model)
            .wrapping_add(inner.rotation.fetch_add(1, Ordering::Relaxed));
        let mut would_miss: Option<(u64, u64)> = None;
        let mut over_cap: Option<(u64, u64)> = None;
        let mut bounced: Option<SubmitError> = None;
        for k in 0..shard_count {
            let Some(shard) = inner.shards.get((start + k) % shard_count) else {
                continue;
            };
            if !shard.health.accepts_traffic() || shard.is_down() {
                continue;
            }
            let shard_in_flight = shard.metrics().in_flight();
            if shard_in_flight >= admission.max_shard_in_flight {
                over_cap = Some((shard_in_flight, admission.max_shard_in_flight));
                continue;
            }
            let estimated_us = shard.estimate_wait_us();
            if estimated_us > deadline_us {
                would_miss = Some((estimated_us, deadline_us));
                continue;
            }
            let pin = inner
                .pins
                .read()
                .get(&request.model)
                .and_then(|pins| pins.get(shard.id).copied().flatten());
            match shard.submit(request, pin) {
                Ok(ticket) => return Ok(ticket),
                Err(err @ (SubmitError::UnknownModel { .. } | SubmitError::ShapeMismatch { .. })) => {
                    return Err(err)
                }
                // QueueFull / ShuttingDown: transient, try the next shard.
                Err(err) => bounced = Some(err),
            }
        }
        if let Some((estimated_us, deadline_us)) = would_miss {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::WouldMissDeadline {
                estimated_us,
                deadline_us,
            });
        }
        if let Some((in_flight, limit)) = over_cap {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded { in_flight, limit });
        }
        match bounced {
            Some(err) => Err(err),
            None => Err(SubmitError::NoHealthyShard),
        }
    }

    /// [`Router::submit`] with bounded exponential backoff on transient
    /// rejections ([`SubmitError::QueueFull`],
    /// [`SubmitError::Overloaded`], [`SubmitError::NoHealthyShard`] —
    /// a failed shard may restart within the budget).
    ///
    /// # Errors
    ///
    /// The last [`SubmitError`] once the attempt budget is exhausted.
    pub fn submit_with_retry(
        &self,
        mut request: Request,
        policy: RetryPolicy,
    ) -> Result<Ticket, SubmitError> {
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match self.try_submit(&mut request) {
                Ok(ticket) => return Ok(ticket),
                Err(
                    err @ (SubmitError::QueueFull { .. }
                    | SubmitError::Overloaded { .. }
                    | SubmitError::NoHealthyShard),
                ) => {
                    if attempt >= attempts {
                        return Err(err);
                    }
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Zero-drop rolling upgrade: moves every shard's pin for `model`
    /// to `version`, one shard at a time — cordon (router stops picking
    /// the shard), drain (wait for its in-flight count to reach zero),
    /// pin, canary (one real request through the shard must come back
    /// healthy *on the new version*), uncordon. At most one shard is
    /// cordoned at any moment, so capacity never drops by more than one
    /// shard, and no in-flight request is dropped or served by the old
    /// version after its shard completes the swap.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `model`/`version` is not
    /// published; [`ServeError::Store`] if the (injected) registry load
    /// fails; [`ServeError::CanaryFailed`] if a shard does not drain in
    /// five seconds or its canary fails — the shard's pin rolls back and
    /// it is uncordoned, shards already swapped stay on the new version.
    pub fn rolling_swap(&self, model: &str, version: u32) -> Result<SwapReport, ServeError> {
        let inner = &self.inner;
        let _gate = inner.swap_gate.lock();
        if inner
            .fault_plan
            .as_ref()
            .map(|plan| plan.fail_registry_load())
            .unwrap_or(false)
        {
            return Err(ServeError::Store(
                "injected registry load failure during rolling swap".to_string(),
            ));
        }
        let (version, plan) = inner.registry.resolve(model, Some(version))?;
        let input_len = plan.input_len();
        drop(plan);
        let mut swapped = 0;
        for shard in &inner.shards {
            shard.health.cordon();
            if !wait_drained(shard, SWAP_DRAIN_TIMEOUT) {
                shard.health.uncordon();
                return Err(ServeError::CanaryFailed {
                    model: model.to_string(),
                    version,
                    reason: format!(
                        "shard {} did not drain within {:?}",
                        shard.id, SWAP_DRAIN_TIMEOUT
                    ),
                });
            }
            let previous = set_pin(inner, model, shard.id, Some(version));
            let mut canary =
                Request::new(model, vec![0.0; input_len]).with_deadline(SWAP_DRAIN_TIMEOUT);
            let canary_result = shard
                .submit(&mut canary, Some(version))
                .map_err(|err| format!("canary submit: {err}"))
                .and_then(|ticket| ticket.wait().map_err(|err| format!("canary wait: {err}")));
            match canary_result {
                Ok(prediction) if prediction.model_version == version => {
                    shard.health.uncordon();
                    obs::counter_add("serve.swap.shard", 1);
                    swapped += 1;
                }
                Ok(prediction) => {
                    set_pin(inner, model, shard.id, previous);
                    shard.health.uncordon();
                    return Err(ServeError::CanaryFailed {
                        model: model.to_string(),
                        version,
                        reason: format!(
                            "canary served by v{} instead of v{version}",
                            prediction.model_version
                        ),
                    });
                }
                Err(reason) => {
                    set_pin(inner, model, shard.id, previous);
                    shard.health.uncordon();
                    return Err(ServeError::CanaryFailed {
                        model: model.to_string(),
                        version,
                        reason,
                    });
                }
            }
        }
        Ok(SwapReport {
            model: model.to_string(),
            version,
            shards_swapped: swapped,
        })
    }

    /// Snapshot of the whole tier: per-shard reports plus failover
    /// counters and a merged-histogram aggregate.
    pub fn report(&self) -> RouterReport {
        let inner = &self.inner;
        let shards: Vec<ShardReport> = inner
            .shards
            .iter()
            .map(|shard| ShardReport {
                shard: shard.id,
                health: shard.health.state().to_string(),
                restarts: shard.restarts(),
                metrics: shard.metrics().report(),
            })
            .collect();
        let total = merge_reports(inner);
        RouterReport {
            shards,
            failovers: inner.failovers.load(Ordering::Relaxed),
            restarts: inner.restarts.load(Ordering::Relaxed),
            rerouted: inner.rerouted.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            total,
        }
    }

    /// Graceful shutdown: stops the supervisor, then drains and joins
    /// every shard. Queued requests resolve with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.supervisor.take() {
            // Cut the supervisor's tick wait short instead of joining
            // after it.
            handle.thread().unpark();
            let _ = handle.join();
        }
        for shard in &self.inner.shards {
            shard.shutdown();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// FNV-1a over the model name: a stable shard starting point so one
/// model's traffic spreads deterministically.
fn hash_model(model: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in model.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash as usize
}

fn set_pin(inner: &RouterInner, model: &str, shard: usize, version: Option<u32>) -> Option<u32> {
    let mut pins = inner.pins.write();
    let entry = pins
        .entry(model.to_string())
        .or_insert_with(|| vec![None; inner.shards.len()]);
    let previous = entry.get(shard).copied().flatten();
    if let Some(slot) = entry.get_mut(shard) {
        *slot = version;
    }
    previous
}

/// Polls the shard's in-flight count down to zero (drain step of a
/// rolling swap). Counter-derived, so it is exact once the shard
/// quiesces.
fn wait_drained(shard: &Shard, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if shard.metrics().in_flight() == 0 {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Cross-shard aggregate report: counters summed, latency statistics
/// from the merged per-shard histograms (see
/// [`obs::HistogramSnapshot::merge`]).
fn merge_reports(inner: &RouterInner) -> MetricsReport {
    let mut total = MetricsReport::default();
    let mut latency = Histogram::new().snapshot();
    let mut batch_samples = 0.0f64;
    for shard in &inner.shards {
        let report = shard.metrics().report();
        latency.merge(&shard.metrics().latency_snapshot());
        total.requests_submitted += report.requests_submitted;
        total.requests_rejected += report.requests_rejected;
        total.requests_failed += report.requests_failed;
        total.requests_timed_out += report.requests_timed_out;
        total.requests_drained += report.requests_drained;
        total.batches += report.batches;
        batch_samples += report.mean_batch_size * report.batches as f64;
        total.queue_depth_high_water = total
            .queue_depth_high_water
            .max(report.queue_depth_high_water);
    }
    if total.batches > 0 {
        total.mean_batch_size = batch_samples / total.batches as f64;
    }
    total.set_latency(&latency);
    total
}

/// Waits out one supervisor tick, returning early once `stop` is set
/// (`shutdown_inner` unparks the supervisor after setting it). A tick
/// too long to add to the clock waits for `stop` alone.
fn wait_tick(inner: &RouterInner, tick: Duration) {
    let deadline = Instant::now().checked_add(tick);
    while !inner.stop.load(Ordering::Relaxed) {
        match deadline {
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                _ => return,
            },
            None => std::thread::park(),
        }
    }
}

/// Supervisor body: per tick, restart Down shards whose backoff has
/// elapsed, fail over shards with dead or stalled workers (re-routing
/// their queues to healthy siblings), and feed failure deltas into each
/// shard's circuit breaker. Publishes per-shard gauges and tier
/// counters through `obs`.
fn supervisor_loop(inner: &RouterInner) {
    struct Watch {
        restart_at: Option<Instant>,
        streak: u32,
        prev_failed: u64,
    }
    let config = inner.config.supervisor.clone();
    let mut watches: Vec<Watch> = inner
        .shards
        .iter()
        .map(|_| Watch {
            restart_at: None,
            streak: 0,
            prev_failed: 0,
        })
        .collect();
    while !inner.stop.load(Ordering::Relaxed) {
        wait_tick(inner, config.tick);
        for (shard, watch) in inner.shards.iter().zip(watches.iter_mut()) {
            obs::gauge_set(
                &format!("serve.shard{}.queue_depth", shard.id),
                shard.queue_len() as f64,
            );
            obs::gauge_set(
                &format!("serve.shard{}.in_flight", shard.id),
                shard.metrics().in_flight() as f64,
            );
            if shard.is_down() {
                let due = watch
                    .restart_at
                    .map(|at| Instant::now() >= at)
                    .unwrap_or(true);
                if due {
                    match shard.restart() {
                        Ok(()) => {
                            watch.restart_at = None;
                            inner.restarts.fetch_add(1, Ordering::Relaxed);
                            obs::counter_add("serve.restarts", 1);
                        }
                        Err(_) => {
                            watch.streak = watch.streak.saturating_add(1);
                            watch.restart_at =
                                Some(Instant::now() + restart_backoff(&config, watch.streak));
                        }
                    }
                }
                continue;
            }
            let dead = shard.dead_workers();
            let stalled = shard.stalled(config.stall_deadline);
            if dead > 0 || stalled {
                inner.failovers.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("serve.failovers", 1);
                let pending = shard.fail_over();
                let mut rerouted = 0u64;
                for request in pending {
                    let mut displaced = Some(request);
                    for sibling in &inner.shards {
                        if sibling.id == shard.id || !sibling.health.accepts_traffic() {
                            continue;
                        }
                        let Some(request) = displaced.take() else {
                            break;
                        };
                        match sibling.accept_displaced(request) {
                            Ok(()) => rerouted += 1,
                            Err(bounced) => displaced = Some(bounced),
                        }
                    }
                    // A request no sibling could take drops here: its
                    // ticket resolves WorkerCrashed and the origin shard
                    // records the failure — conserved, never lost.
                }
                inner.rerouted.fetch_add(rerouted, Ordering::Relaxed);
                obs::counter_add("serve.rerouted", rerouted);
                watch.streak = watch.streak.saturating_add(1);
                watch.restart_at = Some(Instant::now() + restart_backoff(&config, watch.streak));
                continue;
            }
            let failed = shard.metrics().failed();
            let delta = failed.saturating_sub(watch.prev_failed);
            watch.prev_failed = failed;
            if shard
                .health
                .record_failures(delta, config.circuit_threshold, config.circuit_cooldown)
            {
                obs::counter_add("serve.circuit_open", 1);
            }
            if delta == 0 {
                watch.streak = 0;
            }
        }
    }
}

fn restart_backoff(config: &SupervisorConfig, streak: u32) -> Duration {
    let factor = 1u32 << streak.saturating_sub(1).min(16);
    config
        .restart_backoff_base
        .saturating_mul(factor)
        .min(config.max_restart_backoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::plan::FrozenPlan;
    use neural::spec::{LayerSpec, NetworkSpec};
    use neural::Activation;

    /// A dense plan whose output is constantly `marker` (zero weights,
    /// `marker` bias), so a response reveals which version served it.
    fn marker_plan(marker: f32) -> Arc<FrozenPlan> {
        let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
            units: 2,
            activation: Activation::Linear,
        });
        let weights = vec![vec![vec![0.0; 8], vec![marker; 2]]];
        Arc::new(FrozenPlan::from_spec_weights("marker", &spec, &weights).unwrap())
    }

    fn registry_with_versions(versions: &[(u32, f32)]) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        for &(version, marker) in versions {
            registry.publish_plan("m", version, marker_plan(marker));
        }
        registry
    }

    fn quiet_supervisor() -> SupervisorConfig {
        SupervisorConfig {
            tick: Duration::from_millis(5),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn shutdown_does_not_wait_out_the_supervisor_tick() {
        let registry = registry_with_versions(&[(1, 7.0)]);
        let started = Instant::now();
        let router = Router::start(
            registry,
            RouterConfig {
                supervisor: SupervisorConfig {
                    tick: Duration::from_secs(10),
                    ..SupervisorConfig::default()
                },
                ..RouterConfig::default()
            },
        )
        .unwrap();
        router.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "start + shutdown took {:?} with a 10 s tick",
            started.elapsed()
        );
    }

    #[test]
    fn routes_across_shards_and_aggregates_reports() {
        let registry = registry_with_versions(&[(1, 7.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 3,
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..30)
            .map(|_| router.submit(Request::new("m", vec![0.0; 4])).unwrap())
            .collect();
        for ticket in tickets {
            let prediction = ticket.wait().unwrap();
            assert_eq!(prediction.output, vec![7.0, 7.0]);
            assert_eq!(prediction.model_version, 1);
        }
        let report = router.report();
        assert_eq!(report.total.requests_submitted, 30);
        assert_eq!(report.total.requests_completed, 30);
        assert_eq!(report.shards.len(), 3);
        // Rotation spreads one model's traffic over more than one shard.
        let active = report
            .shards
            .iter()
            .filter(|s| s.metrics.requests_submitted > 0)
            .count();
        assert!(active >= 2, "expected spread, got {report:?}");
        assert!(report.total.latency_p50_us <= report.total.latency_p99_us);
        router.shutdown();
    }

    #[test]
    fn global_in_flight_cap_sheds_with_overloaded() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        // No workers: nothing drains, in-flight grows per submission.
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 2,
                engine: ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                admission: AdmissionConfig {
                    max_in_flight: 3,
                    ..AdmissionConfig::default()
                },
                supervisor: quiet_supervisor(),
            },
        )
        .unwrap();
        for _ in 0..3 {
            router.submit(Request::new("m", vec![0.0; 4])).unwrap();
        }
        let err = router.submit(Request::new("m", vec![0.0; 4])).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Overloaded {
                in_flight: 3,
                limit: 3
            }
        );
        assert_eq!(router.report().shed, 1);
        router.shutdown();
    }

    #[test]
    fn per_shard_cap_spills_to_siblings_then_sheds() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 2,
                engine: ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                admission: AdmissionConfig {
                    max_shard_in_flight: 2,
                    ..AdmissionConfig::default()
                },
                supervisor: quiet_supervisor(),
            },
        )
        .unwrap();
        // Both shards fill to their cap of 2.
        for _ in 0..4 {
            router.submit(Request::new("m", vec![0.0; 4])).unwrap();
        }
        let err = router.submit(Request::new("m", vec![0.0; 4])).unwrap_err();
        assert!(
            matches!(err, SubmitError::Overloaded { limit: 2, .. }),
            "got {err:?}"
        );
        router.shutdown();
    }

    #[test]
    fn deadline_aware_admission_rejects_predicted_misses() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 1,
                engine: ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // Teach the shard that one batch costs ~100ms.
        let shard = Arc::clone(&router.inner.shards[0]);
        shard
            .metrics()
            .record_batch(1, Duration::from_millis(100));
        let err = router
            .submit(Request::new("m", vec![0.0; 4]).with_deadline(Duration::from_millis(10)))
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::WouldMissDeadline { deadline_us: 10_000, .. }),
            "got {err:?}"
        );
        // A roomy deadline still gets through.
        router
            .submit(Request::new("m", vec![0.0; 4]).with_deadline(Duration::from_secs(5)))
            .unwrap();
        router.shutdown();
    }

    #[test]
    fn cordoned_everything_reports_no_healthy_shard() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 2,
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        for shard in &router.inner.shards {
            shard.health.cordon();
        }
        assert_eq!(
            router.submit(Request::new("m", vec![0.0; 4])).unwrap_err(),
            SubmitError::NoHealthyShard
        );
        for shard in &router.inner.shards {
            shard.health.uncordon();
        }
        router.submit(Request::new("m", vec![0.0; 4])).unwrap();
        router.shutdown();
    }

    #[test]
    fn version_pins_override_latest_resolution() {
        let registry = registry_with_versions(&[(1, 1.0), (2, 2.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 1,
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // Unpinned: newest version wins.
        let prediction = router
            .submit(Request::new("m", vec![0.0; 4]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(prediction.model_version, 2);
        // Pin shard 0 back to v1: unversioned requests follow the pin…
        set_pin(&router.inner, "m", 0, Some(1));
        let prediction = router
            .submit(Request::new("m", vec![0.0; 4]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(prediction.model_version, 1);
        assert_eq!(prediction.output, vec![1.0, 1.0]);
        // …but an explicit version still beats the pin.
        let prediction = router
            .submit(Request::new("m", vec![0.0; 4]).with_version(2))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(prediction.model_version, 2);
        router.shutdown();
    }

    #[test]
    fn rolling_swap_moves_every_shard_to_the_new_version() {
        let registry = registry_with_versions(&[(1, 1.0), (2, 2.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 3,
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        // Hold the fleet on v1 first.
        for shard in 0..3 {
            set_pin(&router.inner, "m", shard, Some(1));
        }
        let report = router.rolling_swap("m", 2).unwrap();
        assert_eq!(report.shards_swapped, 3);
        assert_eq!(report.version, 2);
        for _ in 0..12 {
            let prediction = router
                .submit(Request::new("m", vec![0.0; 4]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(prediction.model_version, 2, "stale version after swap");
        }
        // Nobody is left cordoned.
        for shard in &router.inner.shards {
            assert!(shard.health.accepts_traffic());
        }
        router.shutdown();
    }

    #[test]
    fn rolling_swap_to_unknown_version_fails_before_touching_shards() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 2,
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            router.rolling_swap("m", 9),
            Err(ServeError::UnknownModel { .. })
        ));
        for shard in &router.inner.shards {
            assert!(shard.health.accepts_traffic(), "no shard may stay cordoned");
        }
        router.shutdown();
    }

    #[test]
    fn merged_quantile_spans_shard_histograms() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 2,
                engine: ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let empty = router.report().total;
        assert_eq!((empty.latency_p99_us, empty.latency_max_us), (0, 0));
        // Shard 0 sees 99 fast requests, shard 1 one slow one: only the
        // merged histogram knows the slow one is the 100th percentile.
        for _ in 0..99 {
            router.inner.shards[0]
                .metrics()
                .record_completed(Duration::from_micros(100));
        }
        router.inner.shards[1]
            .metrics()
            .record_completed(Duration::from_micros(100_000));
        let total = router.report().total;
        assert_eq!(total.requests_completed, 100);
        assert!(total.latency_p50_us < 200, "{total:?}");
        assert!(total.latency_p99_us < 200, "{total:?}");
        assert_eq!(total.latency_max_us, 100_000);
        assert!(total.latency_p999_us >= 100_000 * 7 / 8, "{total:?}");
        router.shutdown();
    }

    #[test]
    fn submit_with_retry_exhausts_budget_on_persistent_backpressure() {
        let registry = registry_with_versions(&[(1, 1.0)]);
        // One shard, no workers, a one-deep queue: the second
        // submission bounces with QueueFull on every attempt.
        let router = Router::start(
            registry,
            RouterConfig {
                shards: 1,
                engine: ServeConfig {
                    workers: 0,
                    queue_capacity: 1,
                    ..ServeConfig::default()
                },
                supervisor: quiet_supervisor(),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        router.submit(Request::new("m", vec![0.0; 4])).unwrap();
        let started = Instant::now();
        let err = router
            .submit_with_retry(
                Request::new("m", vec![0.0; 4]),
                RetryPolicy {
                    max_attempts: 3,
                    base_delay_ms: 2,
                    backoff: 2.0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::QueueFull { .. }), "got {err:?}");
        // Two backoff sleeps: 2ms + 4ms.
        assert!(started.elapsed() >= Duration::from_millis(6));
        router.shutdown();
    }

    #[test]
    fn restart_backoff_is_exponential_and_capped() {
        let config = SupervisorConfig {
            restart_backoff_base: Duration::from_millis(50),
            max_restart_backoff: Duration::from_millis(400),
            ..SupervisorConfig::default()
        };
        assert_eq!(restart_backoff(&config, 1), Duration::from_millis(50));
        assert_eq!(restart_backoff(&config, 2), Duration::from_millis(100));
        assert_eq!(restart_backoff(&config, 3), Duration::from_millis(200));
        assert_eq!(restart_backoff(&config, 10), Duration::from_millis(400));
    }
}

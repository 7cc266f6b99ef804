//! The serving engine's request path: request and response types, and
//! the worker loop that turns queued requests into micro-batches.
//!
//! Each router shard (see `shard`) owns a bounded queue and a pool of
//! workers running [`worker_loop`]. A worker carries the shard-facing
//! plumbing: a per-worker [`Heartbeat`] the supervisor's stall detector
//! reads, and an optional [`faultsim::FaultPlan`] hook consulted once per
//! batch (test-only chaos injection).

use std::sync::Arc;
use std::time::{Duration, Instant};

use faultsim::{FaultPlan, ServeFault};
use neural::plan::FrozenPlan;
use parking_lot::{Condvar, Mutex};

use crate::health::Heartbeat;
use crate::metrics::ServeMetrics;
use crate::queue::{BoundedQueue, PendingRequest};
use crate::ServeError;

/// Per-shard tuning knobs: worker pool, queue and micro-batching.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads draining the queue. Zero is allowed (nothing
    /// drains — useful for backpressure tests).
    pub workers: usize,
    /// Submission queue capacity; beyond it, submissions are rejected
    /// with [`crate::SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Most samples a worker folds into one micro-batch.
    pub max_batch: usize,
    /// Longest a worker waits for stragglers to join a short batch.
    pub max_linger: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 32,
            max_linger: Duration::from_micros(200),
            default_deadline: Duration::from_secs(1),
        }
    }
}

/// Bounded-retry policy for submissions bounced by backpressure — the
/// same shape as `spectroai::recovery::RetryPolicy`, applied by
/// [`crate::Router::submit_with_retry`] to transient rejections instead
/// of stage failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts including the first (≥ 1).
    pub max_attempts: usize,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Multiplier applied to the delay after each bounced attempt.
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_ms: 1,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry` (1-based).
    pub(crate) fn delay(&self, retry: usize) -> Duration {
        let ms = self.base_delay_ms as f64 * self.backoff.powi(retry as i32 - 1);
        Duration::from_millis(ms as u64)
    }
}

/// One prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Model name to resolve in the registry.
    pub model: String,
    /// Specific version, or `None` for the newest.
    pub version: Option<u32>,
    /// Input spectrum (length must match the model's input).
    pub input: Vec<f32>,
    /// Per-request deadline override.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request for the newest version of `model`.
    pub fn new(model: impl Into<String>, input: Vec<f32>) -> Self {
        Self {
            model: model.into(),
            version: None,
            input,
            deadline: None,
        }
    }

    /// Pins a model version (builder style).
    #[must_use]
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = Some(version);
        self
    }

    /// Sets a per-request deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A completed prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The model output, from the plan's batched kernels: within 1e-4 of
    /// `Network::predict`, and bit-equal to it for an LSTM-only model.
    pub output: Vec<f32>,
    /// Version the request actually executed on.
    pub model_version: u32,
    /// Samples in the micro-batch this request rode in.
    pub batch_size: usize,
    /// Submit-to-completion latency.
    pub latency: Duration,
}

/// Slot lifecycle: completion is sticky. A slot whose result was
/// already taken by the ticket must *not* look pending again, or the
/// crash-completion in [`PendingRequest`]'s drop would re-complete (and
/// re-count) requests that were served normally.
#[derive(Debug, Default)]
enum SlotState {
    #[default]
    Pending,
    Ready(Result<Prediction, ServeError>),
    Taken,
}

/// Rendezvous cell a worker fills and a [`Ticket`] waits on.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    result: Mutex<SlotState>,
    done: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fills the slot if it is still pending. Returns `true` if this
    /// call won the completion (at most one caller ever does, even
    /// after the result has been taken).
    pub(crate) fn complete(&self, result: Result<Prediction, ServeError>) -> bool {
        let mut slot = self.result.lock();
        if matches!(*slot, SlotState::Pending) {
            *slot = SlotState::Ready(result);
            self.done.notify_all();
            true
        } else {
            false
        }
    }

    fn take(&self, slot: &mut SlotState) -> Option<Result<Prediction, ServeError>> {
        if matches!(slot, SlotState::Ready(_)) {
            match std::mem::replace(slot, SlotState::Taken) {
                SlotState::Ready(result) => Some(result),
                _ => None,
            }
        } else {
            None
        }
    }

    #[cfg(test)]
    pub(crate) fn take_result(&self) -> Option<Result<Prediction, ServeError>> {
        let mut slot = self.result.lock();
        self.take(&mut slot)
    }
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the per-request [`ServeError`] (deadline exceeded, model
    /// failure, or shutdown before execution).
    pub fn wait(self) -> Result<Prediction, ServeError> {
        let mut slot = self.slot.result.lock();
        loop {
            if let Some(result) = self.slot.take(&mut slot) {
                return result;
            }
            slot = self.slot.done.wait(slot);
        }
    }
}

/// Shard-facing context a worker thread carries: which shard it serves,
/// the heartbeat slot the supervisor's stall detector reads, and the
/// optional chaos-injection plan consulted once per batch.
pub(crate) struct WorkerCtx {
    pub(crate) queue: Arc<BoundedQueue>,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) max_batch: usize,
    pub(crate) linger: Duration,
    pub(crate) shard: usize,
    pub(crate) index: usize,
    pub(crate) heartbeat: Arc<Heartbeat>,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
}

/// Worker body: pop a same-plan batch, apply any injected fault, drop
/// requests past their deadline, run the rest as one contiguous block,
/// fan results back out.
///
/// An injected [`ServeFault::Panic`] unwinds this thread between the pop
/// and the batch execution: every popped request completes through
/// [`PendingRequest`]'s drop-completion (a terminal
/// [`ServeError::WorkerCrashed`]), and the supervisor sees the finished
/// thread handle and fails the shard over. Terminal request outcomes are
/// recorded on each request's *origin-shard* metrics, so conservation
/// holds even for requests re-routed here from a failed sibling.
pub(crate) fn worker_loop(ctx: WorkerCtx) {
    let mut bufs = WorkerBufs::new();
    loop {
        ctx.heartbeat.mark_idle(ctx.index);
        let Some(batch) = ctx.queue.pop_batch(ctx.max_batch, ctx.linger) else {
            break;
        };
        ctx.heartbeat.mark_busy(ctx.index);
        let fault = ctx
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.batch_fault(ctx.shard));
        if let Some(fault) = &fault {
            // Panic unwinds here; Stall sleeps here, inside the busy
            // window the supervisor's stall detector watches.
            fault.apply_pre();
        }
        run_batch(
            &ctx,
            batch,
            fault.as_ref().and_then(ServeFault::slow_factor),
            &mut bufs,
        );
    }
    ctx.heartbeat.mark_idle(ctx.index);
}

/// Per-worker reusable buffers: the kernel scratch arena plus the
/// contiguous input/output blocks. Allocated once when the worker
/// thread starts and reused for every batch, so the steady-state batch
/// path stops allocating once buffers reach their high-water sizes
/// (proven by the obs-counter test in `tests/stress.rs`). A worker
/// panic (injected or real) tears down only its own arena; replacement
/// workers start fresh ones.
struct WorkerBufs {
    scratch: neural::kernels::Scratch,
    block: Vec<f32>,
    outputs: Vec<f32>,
}

impl WorkerBufs {
    fn new() -> Self {
        Self {
            scratch: neural::kernels::Scratch::new(),
            block: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

fn run_batch(
    ctx: &WorkerCtx,
    batch: Vec<PendingRequest>,
    slow_factor: Option<f64>,
    bufs: &mut WorkerBufs,
) {
    let _batch_span = obs::span("serve.batch");
    let now = Instant::now();
    let mut live: Vec<PendingRequest> = Vec::with_capacity(batch.len());
    for request in batch {
        if request.deadline <= now {
            request.metrics.record_timed_out();
            request.slot.complete(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(request);
        }
    }
    if live.is_empty() {
        return;
    }
    let plan: Arc<FrozenPlan> = Arc::clone(&live[0].plan);
    let batch_size = live.len();
    bufs.block.clear();
    for request in &live {
        bufs.block.extend_from_slice(&request.input);
    }
    bufs.outputs.clear();
    let started = Instant::now();
    let result = plan.predict_batch_scratch(
        &bufs.block,
        &mut bufs.outputs,
        &mut bufs.scratch,
        &mut |_, _| {},
    );
    if let Some(factor) = slow_factor {
        // Injected slow shard: inflate the measured compute time so the
        // slowdown shows up in latency percentiles and the EWMA the
        // admission controller reads.
        let extra = started.elapsed().mul_f64((factor - 1.0).max(0.0));
        std::thread::sleep(extra.max(Duration::from_micros(50)));
    }
    match result {
        Ok(_) => {
            ctx.metrics.record_batch(batch_size, started.elapsed());
            let out_len = plan.output_len();
            for (i, request) in live.into_iter().enumerate() {
                let _req_span = obs::span("serve.request");
                let latency = request.enqueued.elapsed();
                request.metrics.record_completed(latency);
                request.slot.complete(Ok(Prediction {
                    output: bufs.outputs[i * out_len..(i + 1) * out_len].to_vec(),
                    model_version: request.version,
                    batch_size,
                    latency,
                }));
            }
        }
        Err(err) => {
            // Unreachable in practice: shapes are validated at submit
            // time. Fail every rider rather than panicking a worker.
            for request in live {
                request.metrics.record_failed();
                request.slot.complete(Err(ServeError::Neural(err.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelRegistry, Router, RouterConfig, SubmitError};
    use neural::export::ExportedNetwork;
    use neural::spec::{LayerSpec, NetworkSpec};
    use neural::{Activation, Network};

    fn table1_like() -> (NetworkSpec, Network) {
        let spec = NetworkSpec::new(64)
            .layer(LayerSpec::Reshape { channels: 1 })
            .layer(LayerSpec::Conv1d {
                filters: 6,
                kernel: 8,
                stride: 2,
                activation: Activation::Selu,
            })
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense {
                units: 8,
                activation: Activation::Softmax,
            });
        let net = spec.build(42).unwrap();
        (spec, net)
    }

    fn registry_with(name: &str, version: u32) -> (Arc<ModelRegistry>, Network) {
        let (spec, net) = table1_like();
        let exported = ExportedNetwork::from_network(spec, &net, name);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(name, version, &exported).unwrap();
        (registry, net)
    }

    /// The serving tier with one shard: the whole request path (admission,
    /// queue, workers, shutdown) without cross-shard routing.
    fn one_shard(registry: Arc<ModelRegistry>, engine: ServeConfig) -> Router {
        Router::start(
            registry,
            RouterConfig {
                shards: 1,
                engine,
                ..RouterConfig::default()
            },
        )
        .unwrap()
    }

    /// A dense plan whose output is constantly `marker` — weights zero,
    /// bias all `marker` — so a response reveals exactly which version
    /// served it.
    fn marker_plan(marker: f32) -> Arc<FrozenPlan> {
        let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
            units: 8,
            activation: Activation::Linear,
        });
        let weights = vec![vec![vec![0.0; 32], vec![marker; 8]]];
        Arc::new(FrozenPlan::from_spec_weights("marker", &spec, &weights).unwrap())
    }

    #[test]
    fn default_batched_backend_serves_within_tolerance_of_reference() {
        let (registry, mut net) = registry_with("ms", 1);
        let router = one_shard(
            registry,
            ServeConfig {
                workers: 3,
                max_batch: 8,
                max_linger: Duration::from_millis(2),
                ..ServeConfig::default()
            },
        );
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|s| (0..64).map(|i| (((s * 64 + i) as f32) * 0.13).sin()).collect())
            .collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| router.submit(Request::new("ms", x.clone())).unwrap())
            .collect();
        for (ticket, x) in tickets.into_iter().zip(&inputs) {
            let prediction = ticket.wait().unwrap();
            let expected = net.predict(x);
            let err = neural::kernels::max_abs_divergence(&prediction.output, &expected);
            assert!(
                err <= 1e-4,
                "batched serving drifted {err} from the reference output"
            );
            assert_eq!(prediction.model_version, 1);
            assert!(prediction.batch_size >= 1);
        }
        let report = router.report().total;
        assert_eq!(report.requests_completed, 40);
        assert_eq!(report.requests_rejected, 0);
        assert!(report.batches <= 40);
        assert!(report.mean_batch_size >= 1.0);
        router.shutdown();
    }

    #[test]
    fn queue_full_backpressure_is_immediate() {
        let (registry, _) = registry_with("ms", 1);
        // No workers: nothing drains the queue, so capacity is reached
        // deterministically.
        let router = one_shard(
            registry,
            ServeConfig {
                workers: 0,
                queue_capacity: 3,
                ..ServeConfig::default()
            },
        );
        let x = vec![0.5f32; 64];
        for _ in 0..3 {
            router.submit(Request::new("ms", x.clone())).unwrap();
        }
        let started = Instant::now();
        let err = router.submit(Request::new("ms", x.clone())).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, SubmitError::QueueFull { capacity: 3 });
        assert!(
            elapsed < Duration::from_millis(100),
            "queue-full must return promptly, took {elapsed:?}"
        );
        let report = router.report().total;
        assert_eq!(report.requests_submitted, 3);
        assert_eq!(report.requests_rejected, 1);
        assert_eq!(report.queue_depth_high_water, 3);
        router.shutdown();
    }

    #[test]
    fn unknown_model_and_bad_shape_fail_fast() {
        let (registry, _) = registry_with("ms", 1);
        let router = one_shard(registry, ServeConfig::default());
        assert!(matches!(
            router.submit(Request::new("nope", vec![0.0; 64])),
            Err(SubmitError::UnknownModel { .. })
        ));
        assert!(matches!(
            router.submit(Request::new("ms", vec![0.0; 3])),
            Err(SubmitError::ShapeMismatch {
                expected: 64,
                actual: 3
            })
        ));
        router.shutdown();
    }

    #[test]
    fn expired_deadlines_complete_with_timeout_error() {
        let (registry, _) = registry_with("ms", 1);
        // Workers start after a backlog is queued with an already-tiny
        // deadline; by the time one runs, the deadline has passed.
        let router = one_shard(
            registry.clone(),
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let ticket = router
            .submit(Request::new("ms", vec![0.0; 64]).with_deadline(Duration::from_millis(1)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // No worker ever runs it: dropping the router drains the queue,
        // and the expired request still reaches a terminal error.
        drop(router);
        assert!(matches!(
            ticket.wait(),
            Err(ServeError::ShuttingDown | ServeError::DeadlineExceeded)
        ));

        // Now the live-worker variant: a worker that lingers long enough
        // for the deadline to expire before the batch dispatches.
        let router = one_shard(
            registry,
            ServeConfig {
                workers: 1,
                max_batch: 64,
                max_linger: Duration::from_millis(40),
                ..ServeConfig::default()
            },
        );
        // First request opens a lingering batch window longer than the
        // second's deadline; the second expires inside it.
        let _warm = router.submit(Request::new("ms", vec![0.0; 64])).unwrap();
        let doomed = router
            .submit(Request::new("ms", vec![0.0; 64]).with_deadline(Duration::from_millis(1)))
            .unwrap();
        match doomed.wait() {
            Err(ServeError::DeadlineExceeded) => {
                assert!(router.report().total.requests_timed_out >= 1);
            }
            // Scheduling may still beat the deadline — then it must have
            // served normally.
            Ok(prediction) => assert_eq!(prediction.output.len(), 8),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
        router.shutdown();
    }

    #[test]
    fn hot_swap_never_tears_a_model() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish_plan("m", 1, marker_plan(1.0));
        let router = Arc::new(one_shard(
            Arc::clone(&registry),
            ServeConfig {
                workers: 4,
                max_batch: 16,
                max_linger: Duration::from_micros(100),
                queue_capacity: 4096,
                ..ServeConfig::default()
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let swapper = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut marker = 2.0f32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    registry.publish_plan("m", 1, marker_plan(marker));
                    marker += 1.0;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        let mut checked = 0;
        for _ in 0..500 {
            let Ok(ticket) = router.submit(Request::new("m", vec![0.1; 4])) else {
                continue;
            };
            let prediction = ticket.wait().unwrap();
            let first = prediction.output[0];
            assert!(
                prediction.output.iter().all(|&v| v == first),
                "torn model observed: {:?}",
                prediction.output
            );
            checked += 1;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        swapper.join().unwrap();
        assert!(checked > 0);
        if let Ok(router) = Arc::try_unwrap(router) {
            router.shutdown();
        }
    }

    #[test]
    fn shutdown_completes_stranded_requests() {
        let (registry, _) = registry_with("ms", 1);
        let router = one_shard(
            registry,
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let ticket = router.submit(Request::new("ms", vec![0.0; 64])).unwrap();
        router.shutdown();
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn waiters_blocked_on_tickets_resolve_at_shutdown() {
        // Regression: `Ticket::wait` must never block forever. Waiters
        // park on tickets *before* shutdown; the shutdown drain has to
        // resolve every one of them with a terminal error.
        let (registry, _) = registry_with("ms", 1);
        let router = one_shard(
            registry,
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let ticket = router.submit(Request::new("ms", vec![0.0; 64])).unwrap();
                std::thread::spawn(move || ticket.wait())
            })
            .collect();
        // Let the waiters actually park on their condvars.
        std::thread::sleep(Duration::from_millis(20));
        let drained_before = router.report().total.requests_drained;
        assert_eq!(drained_before, 0);
        router.shutdown();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
        }
    }
}

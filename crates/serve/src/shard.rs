//! One supervised shard: a bounded queue drained by a pool of
//! micro-batching workers, plus the health, restart, and failover
//! bookkeeping the router's supervisor drives.
//!
//! The shard owns its [`ServeMetrics`] across worker-pool restarts, so
//! the per-shard conservation invariant (`submitted = completed +
//! failed + timed_out + drained + in-flight`) spans failovers: a request
//! admitted by shard 2, re-routed to shard 0 after shard 2's worker
//! panicked, and completed there still resolves on shard 2's counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faultsim::FaultPlan;
use parking_lot::RwLock;

use crate::engine::{worker_loop, Request, ResponseSlot, Ticket, WorkerCtx};
use crate::health::{HealthState, Heartbeat, ShardHealth};
use crate::metrics::ServeMetrics;
use crate::queue::{BoundedQueue, PendingRequest};
use crate::registry::ModelRegistry;
use crate::{ServeConfig, ServeError, SubmitError};

/// A supervised serving shard. All routing goes through the router; the
/// shard carries per-shard state and the worker-pool swap slot.
pub(crate) struct Shard {
    pub(crate) id: usize,
    registry: Arc<ModelRegistry>,
    config: ServeConfig,
    fault_plan: Option<Arc<FaultPlan>>,
    metrics: Arc<ServeMetrics>,
    /// The live worker pool, or `None` while the shard is down awaiting
    /// restart. Lock order: `pool` is acquired before the registry's
    /// `models` lock (taken inside [`Shard::submit`]).
    pool: RwLock<Option<Pool>>,
    pub(crate) health: ShardHealth,
    restarts: AtomicU64,
}

/// One generation of a shard's workers: the queue they drain, the
/// heartbeat the stall detector reads, and their thread handles. A
/// restart replaces the whole pool.
struct Pool {
    queue: Arc<BoundedQueue>,
    heartbeat: Arc<Heartbeat>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Takes the pool out of service *without joining workers*: the
    /// queue closes, still-queued requests are handed back for
    /// re-routing, and dropping the handles detaches the workers — a
    /// stalled or panicked worker must never block its own failover.
    /// Detached live workers finish their in-flight batch (completing
    /// those requests late) and exit on the closed queue.
    fn decommission(self) -> Vec<PendingRequest> {
        self.queue.close();
        self.queue.drain()
    }

    /// Graceful shutdown: stop accepting work, let workers drain the
    /// queue, join them. Anything still queued after the workers exit
    /// (possible only with zero workers) completes with
    /// [`ServeError::ShuttingDown`].
    fn shutdown(self) {
        self.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        for request in self.queue.drain() {
            // Terminal accounting *before* completion: `in_flight`
            // (submitted minus terminals) must never under-count.
            request.metrics.record_drained();
            request.slot.complete(Err(ServeError::ShuttingDown));
        }
    }
}

impl Shard {
    /// Starts shard `id` with a fresh worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerSpawn`] if the OS refuses a worker thread.
    pub(crate) fn start(
        id: usize,
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, ServeError> {
        let mut shard = Self {
            id,
            registry,
            config,
            fault_plan,
            metrics: Arc::new(ServeMetrics::new()),
            pool: RwLock::new(None),
            health: ShardHealth::new(),
            restarts: AtomicU64::new(0),
        };
        *shard.pool.get_mut() = Some(shard.spawn_pool()?);
        Ok(shard)
    }

    /// Spawns `config.workers` workers over a new queue, all recording
    /// on this shard's metrics and consulting its fault plan (chaos
    /// testing only — every batch asks [`FaultPlan::batch_fault`]).
    /// Workers already started are joined if a later spawn fails, so a
    /// failed start leaks nothing.
    fn spawn_pool(&self) -> Result<Pool, ServeError> {
        let config = &self.config;
        let mut pool = Pool {
            queue: Arc::new(BoundedQueue::new(config.queue_capacity.max(1))),
            heartbeat: Arc::new(Heartbeat::new(config.workers)),
            workers: Vec::with_capacity(config.workers),
        };
        for index in 0..config.workers {
            let ctx = WorkerCtx {
                queue: Arc::clone(&pool.queue),
                metrics: Arc::clone(&self.metrics),
                max_batch: config.max_batch.max(1),
                linger: config.max_linger,
                shard: self.id,
                index,
                heartbeat: Arc::clone(&pool.heartbeat),
                fault_plan: self.fault_plan.clone(),
            };
            let name = format!("serve-{}-worker-{index}", self.id);
            match std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || worker_loop(ctx))
            {
                Ok(handle) => pool.workers.push(handle),
                Err(err) => {
                    pool.shutdown();
                    return Err(ServeError::WorkerSpawn(format!("{name}: {err}")));
                }
            }
        }
        Ok(pool)
    }

    /// Admits a request, resolving its model at its own version or, if
    /// it carries none, at the router's `pin` for this shard. Never
    /// blocks: the model is resolved and the input shape checked up
    /// front, then the request either enters the bounded queue or
    /// bounces. The input moves into the queue; on a bounce it is put
    /// back into `request`, so the router can offer the same request to
    /// the next shard without copying it. A down shard reports
    /// `ShuttingDown`; the router treats that as "try the next shard".
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`], [`SubmitError::ShapeMismatch`],
    /// [`SubmitError::QueueFull`], or [`SubmitError::ShuttingDown`].
    pub(crate) fn submit(
        &self,
        request: &mut Request,
        pin: Option<u32>,
    ) -> Result<Ticket, SubmitError> {
        let pool = self.pool.read();
        let Some(pool) = pool.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let version = request.version.or(pin);
        let (version, plan) = self
            .registry
            .resolve(&request.model, version)
            .map_err(|_| SubmitError::UnknownModel {
                name: request.model.clone(),
                version,
            })?;
        if request.input.len() != plan.input_len() {
            return Err(SubmitError::ShapeMismatch {
                expected: plan.input_len(),
                actual: request.input.len(),
            });
        }
        let now = Instant::now();
        let slot = Arc::new(ResponseSlot::new());
        let pending = PendingRequest {
            plan,
            version,
            input: std::mem::take(&mut request.input),
            enqueued: now,
            deadline: now + request.deadline.unwrap_or(self.config.default_deadline),
            slot: Arc::clone(&slot),
            metrics: Arc::clone(&self.metrics),
        };
        match pool.queue.try_push(pending) {
            Ok(depth) => {
                self.metrics.record_submitted();
                self.metrics.record_queue_depth(depth);
                Ok(Ticket { slot })
            }
            Err((err, mut bounced)) => {
                request.input = std::mem::take(&mut bounced.input);
                bounced.reject();
                self.metrics.record_rejected();
                Err(err)
            }
        }
    }

    pub(crate) fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Current queue depth (admission-control estimate, not hot path).
    pub(crate) fn queue_len(&self) -> usize {
        self.pool.read().as_ref().map_or(0, |pool| pool.queue.len())
    }

    /// Queue-delay estimate for admission control: batches already
    /// queued ahead plus the request's own batch, each at the EWMA batch
    /// wall time. Zero until the shard has executed its first batch.
    pub(crate) fn estimate_wait_us(&self) -> u64 {
        let ewma = self.metrics.batch_ewma_us();
        if ewma == 0 {
            return 0;
        }
        let batches_ahead = (self.queue_len() / self.config.max_batch.max(1)) as u64 + 1;
        batches_ahead.saturating_mul(ewma)
    }

    pub(crate) fn is_down(&self) -> bool {
        self.pool.read().is_none()
    }

    /// Worker threads of the live pool that have exited (panicked, or
    /// returned after the queue closed). Non-zero on a live shard means
    /// a worker died.
    pub(crate) fn dead_workers(&self) -> usize {
        self.pool.read().as_ref().map_or(0, |pool| {
            pool.workers.iter().filter(|w| w.is_finished()).count()
        })
    }

    /// `true` if some worker has been stuck on one batch past
    /// `stall_deadline`.
    pub(crate) fn stalled(&self, stall_deadline: Duration) -> bool {
        self.pool
            .read()
            .as_ref()
            .is_some_and(|pool| pool.heartbeat.longest_busy() > stall_deadline)
    }

    /// Takes the shard out of service: marks it Down, removes the
    /// worker pool, and hands back every still-queued request for
    /// re-routing. Never joins workers (see [`Pool::decommission`]).
    pub(crate) fn fail_over(&self) -> Vec<PendingRequest> {
        self.health.set_state(HealthState::Down);
        let pool = self.pool.write().take();
        pool.map(Pool::decommission).unwrap_or_default()
    }

    /// Restarts a Down shard with a fresh worker pool over the *same*
    /// metrics, so counters (and the conservation invariant) continue
    /// across the restart.
    pub(crate) fn restart(&self) -> Result<(), ServeError> {
        let pool = self.spawn_pool()?;
        *self.pool.write() = Some(pool);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.health.set_state(HealthState::Healthy);
        Ok(())
    }

    /// Accepts a request displaced from a failed sibling. Terminal
    /// accounting stays on the origin shard, which already counted the
    /// admission. Hands the request back if this shard is down or its
    /// queue is full.
    pub(crate) fn accept_displaced(&self, request: PendingRequest) -> Result<(), PendingRequest> {
        match self.pool.read().as_ref() {
            Some(pool) => pool.queue.try_push(request).map(|_| ()).map_err(|(_, r)| r),
            None => Err(request),
        }
    }

    /// Graceful shutdown: drain and join (unlike failover).
    pub(crate) fn shutdown(&self) {
        self.health.set_state(HealthState::Down);
        let pool = self.pool.write().take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("health", &self.health.state())
            .field("restarts", &self.restarts())
            .finish_non_exhaustive()
    }
}

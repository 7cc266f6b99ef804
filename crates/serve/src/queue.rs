//! Bounded submission queue with backpressure and batch-forming pops.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neural::plan::FrozenPlan;
use parking_lot::{Condvar, Mutex};

use crate::engine::ResponseSlot;
use crate::metrics::ServeMetrics;
use crate::{ServeError, SubmitError};

/// One queued prediction request. The plan `Arc` is resolved at submit
/// time, so a hot-swap published after submission never affects this
/// request — it drains on the model it was admitted under.
pub(crate) struct PendingRequest {
    pub plan: Arc<FrozenPlan>,
    pub version: u32,
    pub input: Vec<f32>,
    pub enqueued: Instant,
    pub deadline: Instant,
    pub slot: Arc<ResponseSlot>,
    /// Metrics of the shard that admitted this request. Terminal
    /// outcomes always land here, even if a supervisor re-routes the
    /// request to a sibling shard's queue.
    pub metrics: Arc<ServeMetrics>,
}

impl std::fmt::Debug for PendingRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingRequest")
            .field("version", &self.version)
            .field("input_len", &self.input.len())
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl PendingRequest {
    /// Discards a request that was *rejected before admission*: the
    /// slot completes (no ticket exists, so nobody observes it) without
    /// the crash-completion path recording a spurious failure.
    pub(crate) fn reject(self) {
        self.slot.complete(Err(ServeError::ShuttingDown));
    }
}

impl Drop for PendingRequest {
    /// Last-resort completion: if this request is dropped without a
    /// terminal result — a worker panicked mid-batch and unwound, or a
    /// failed shard's queue could not be re-homed — the waiting
    /// [`crate::Ticket`] still resolves instead of blocking forever.
    fn drop(&mut self) {
        if self.slot.complete(Err(ServeError::WorkerCrashed)) {
            self.metrics.record_failed();
        }
    }
}

struct QueueState {
    requests: VecDeque<PendingRequest>,
    closed: bool,
}

/// A fixed-capacity MPMC queue. Producers never block: a full queue is an
/// immediate [`SubmitError::QueueFull`]. Consumers block until work
/// arrives or the queue closes, and pop *batches* of requests sharing one
/// plan rather than single items.
pub(crate) struct BoundedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                requests: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking push: backpressure instead of waiting. On rejection
    /// the request is handed back so the caller decides its fate
    /// (reject the submission, or re-route to a sibling shard) — it is
    /// never silently dropped into the crash-completion path.
    pub fn try_push(
        &self,
        request: PendingRequest,
    ) -> Result<usize, (SubmitError, PendingRequest)> {
        let mut state = self.state.lock();
        if state.closed {
            return Err((SubmitError::ShuttingDown, request));
        }
        if state.requests.len() >= self.capacity {
            return Err((
                SubmitError::QueueFull {
                    capacity: self.capacity,
                },
                request,
            ));
        }
        state.requests.push_back(request);
        let depth = state.requests.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until at least one request is available (or the queue is
    /// closed *and* drained — then returns `None`), then forms a batch:
    /// the front request plus every queued request resolved to the same
    /// plan, up to `max_batch`. If the batch is still short, waits up to
    /// `linger` for stragglers to coalesce before dispatching.
    ///
    /// Requests for *other* plans keep their FIFO order.
    pub fn pop_batch(&self, max_batch: usize, linger: Duration) -> Option<Vec<PendingRequest>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock();
        loop {
            if let Some(first) = state.requests.pop_front() {
                let mut batch = Vec::with_capacity(max_batch);
                let plan = Arc::clone(&first.plan);
                batch.push(first);
                extract_same_plan(&mut state.requests, &plan, &mut batch, max_batch);
                if batch.len() < max_batch && !linger.is_zero() {
                    let linger_until = Instant::now() + linger;
                    while batch.len() < max_batch && !state.closed {
                        let now = Instant::now();
                        let Some(remaining) = linger_until.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                            break;
                        };
                        let (next, timeout) = self.not_empty.wait_timeout(state, remaining);
                        state = next;
                        extract_same_plan(&mut state.requests, &plan, &mut batch, max_batch);
                        if timeout.timed_out() {
                            break;
                        }
                    }
                }
                // A linger may have absorbed a wake-up meant for a sibling
                // worker; if work remains, pass the signal on.
                if !state.requests.is_empty() {
                    self.not_empty.notify_one();
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }

    /// Closes the queue: future pushes fail, consumers drain what is left
    /// and then see `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything still queued (shutdown cleanup).
    pub fn drain(&self) -> Vec<PendingRequest> {
        self.state.lock().requests.drain(..).collect()
    }

    /// Current queue depth (one brief lock; used by admission control,
    /// not by the worker hot path).
    pub fn len(&self) -> usize {
        self.state.lock().requests.len()
    }
}

/// Moves queued requests sharing `plan` (by `Arc` identity) into `batch`,
/// preserving the relative order of everything left behind.
fn extract_same_plan(
    requests: &mut VecDeque<PendingRequest>,
    plan: &Arc<FrozenPlan>,
    batch: &mut Vec<PendingRequest>,
    max_batch: usize,
) {
    let mut i = 0;
    while i < requests.len() && batch.len() < max_batch {
        if Arc::ptr_eq(&requests[i].plan, plan) {
            if let Some(request) = requests.remove(i) {
                batch.push(request);
            }
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::spec::{LayerSpec, NetworkSpec};
    use neural::Activation;

    fn plan() -> Arc<FrozenPlan> {
        let spec = NetworkSpec::new(2).layer(LayerSpec::Dense {
            units: 1,
            activation: Activation::Linear,
        });
        let net = spec.build(1).unwrap();
        Arc::new(FrozenPlan::from_spec_weights("q", &spec, &net.export_weights()).unwrap())
    }

    fn request(plan: &Arc<FrozenPlan>) -> PendingRequest {
        let now = Instant::now();
        PendingRequest {
            plan: Arc::clone(plan),
            version: 1,
            input: vec![0.0, 0.0],
            enqueued: now,
            deadline: now + Duration::from_secs(60),
            slot: Arc::new(ResponseSlot::new()),
            metrics: Arc::new(ServeMetrics::new()),
        }
    }

    #[test]
    fn dropped_request_resolves_its_ticket_with_a_crash_error() {
        let p = plan();
        let pending = request(&p);
        let slot = Arc::clone(&pending.slot);
        let metrics = Arc::clone(&pending.metrics);
        drop(pending);
        assert_eq!(
            slot.take_result(),
            Some(Err(ServeError::WorkerCrashed)),
            "dropping an unserved request must complete its slot"
        );
        assert_eq!(metrics.report().requests_failed, 1);
    }

    #[test]
    fn full_queue_rejects_promptly_without_blocking() {
        let queue = BoundedQueue::new(2);
        let p = plan();
        queue.try_push(request(&p)).unwrap();
        queue.try_push(request(&p)).unwrap();
        let started = Instant::now();
        let (err, bounced) = queue.try_push(request(&p)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        bounced.reject();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "backpressure must be immediate, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let queue = BoundedQueue::new(4);
        let p = plan();
        queue.try_push(request(&p)).unwrap();
        queue.close();
        assert_eq!(
            queue.try_push(request(&p)).unwrap_err().0,
            SubmitError::ShuttingDown
        );
        let batch = queue.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(queue.pop_batch(8, Duration::ZERO).is_none());
    }

    #[test]
    fn pop_batch_coalesces_same_plan_only() {
        let queue = BoundedQueue::new(8);
        let a = plan();
        let b = plan();
        queue.try_push(request(&a)).unwrap();
        queue.try_push(request(&b)).unwrap();
        queue.try_push(request(&a)).unwrap();
        queue.try_push(request(&a)).unwrap();
        let batch = queue.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| Arc::ptr_eq(&r.plan, &a)));
        let batch = queue.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(Arc::ptr_eq(&batch[0].plan, &b));
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let queue = BoundedQueue::new(8);
        let p = plan();
        for _ in 0..5 {
            queue.try_push(request(&p)).unwrap();
        }
        assert_eq!(queue.pop_batch(2, Duration::ZERO).unwrap().len(), 2);
        assert_eq!(queue.pop_batch(2, Duration::ZERO).unwrap().len(), 2);
        assert_eq!(queue.pop_batch(2, Duration::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn linger_collects_late_arrivals() {
        let queue = Arc::new(BoundedQueue::new(8));
        let p = plan();
        queue.try_push(request(&p)).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                queue.try_push(request(&p)).unwrap();
            })
        };
        let batch = queue.pop_batch(2, Duration::from_millis(500)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch.len(), 2, "linger should have absorbed the late request");
    }
}

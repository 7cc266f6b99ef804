//! Batched, multi-threaded inference serving.
//!
//! The paper's Tool 4 exports trained ANNs for deployment; this crate is
//! the deployment side (DESIGN.md §8): it loads
//! [`neural::export::ExportedNetwork`] artifacts into immutable
//! [`neural::plan::FrozenPlan`]s and serves predictions through one
//! public entry point, the [`Router`].
//!
//! * [`ModelRegistry`] — models keyed by name + version, loadable from a
//!   [`datastore::Store`] collection, hot-swappable: publishing a new
//!   version atomically replaces the plan while requests already in
//!   flight finish on the plan they resolved at submit time (no request
//!   ever observes a torn model).
//! * [`Router`] — the serving tier over N shards. Each shard is a
//!   bounded queue drained by its own pool of worker threads; the router
//!   adds routing, admission control, shard supervision and rolling
//!   upgrades. Submission never blocks: a full queue is an immediate
//!   [`SubmitError::QueueFull`], and [`Router::submit_with_retry`]
//!   layers the same bounded exponential-backoff idiom as
//!   `spectroai::recovery` on top of transient rejections. One shard is
//!   the plain batched server.
//! * micro-batching — each worker coalesces queued requests that resolved
//!   to the same plan into one contiguous input block (bounded by
//!   `max_batch` and a `max_linger` wait) and runs it through the plan's
//!   vectorized batch kernels ([`neural::kernels`]) over a per-worker
//!   scratch arena: no allocation on the steady-state hot path. Served
//!   outputs are tolerance-gated (max-abs-error ≤ 1e-4) against
//!   sequential [`neural::Network::predict`], the one forward reference.
//! * metrics — per-shard atomic counters plus `obs` log-linear
//!   histograms for latency (p50/p95/p99) and batch sizes, snapshotted
//!   into a serializable [`MetricsReport`]; [`Router::report`] merges the
//!   per-shard histograms into one tier-wide report. Workers also emit
//!   `serve.batch`/`serve.request` spans and a `serve.queue_depth` gauge
//!   whenever an `obs::Collector` is installed (see the workspace `obs`
//!   crate and `serve_load --trace`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use neural::export::ExportedNetwork;
//! use neural::spec::{LayerSpec, NetworkSpec};
//! use neural::Activation;
//! use serve::{ModelRegistry, Request, Router, RouterConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = NetworkSpec::new(4).layer(LayerSpec::Dense {
//!     units: 2,
//!     activation: Activation::Softmax,
//! });
//! let mut net = spec.build(3)?;
//! let exported = ExportedNetwork::from_network(spec, &net, "demo");
//!
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish("demo", 1, &exported)?;
//! let config = RouterConfig { shards: 1, ..RouterConfig::default() };
//! let router = Router::start(registry, config)?;
//!
//! let ticket = router.submit(Request::new("demo", vec![0.1, 0.2, 0.3, 0.4]))?;
//! let prediction = ticket.wait()?;
//! let expected = net.predict(&[0.1, 0.2, 0.3, 0.4]);
//! assert!(neural::kernels::max_abs_divergence(&prediction.output, &expected) <= 1e-4);
//! assert_eq!(router.report().total.requests_completed, 1);
//! router.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod health;
mod metrics;
mod queue;
mod registry;
mod router;
mod shard;

pub use engine::{Prediction, Request, RetryPolicy, ServeConfig, Ticket};
pub use health::HealthState;
pub use metrics::MetricsReport;
pub use registry::ModelRegistry;
pub use router::{
    AdmissionConfig, Router, RouterConfig, RouterReport, ShardReport, SupervisorConfig, SwapReport,
};

use std::fmt;

use neural::NeuralError;

/// Why a submission was not accepted. Submission errors are immediate —
/// [`Router::submit`] never blocks the caller.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded queue is at capacity — explicit backpressure. Retry
    /// later (or use [`Router::submit_with_retry`]).
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The shard is shutting down (or down) and accepts no new work.
    ShuttingDown,
    /// No model with this name (and version, if one was requested) is
    /// published.
    UnknownModel {
        /// The requested model name.
        name: String,
        /// The requested version, if any.
        version: Option<u32>,
    },
    /// The request input does not match the resolved model's input shape.
    ShapeMismatch {
        /// Input length the model expects.
        expected: usize,
        /// Input length the request carried.
        actual: usize,
    },
    /// Admission control predicts the request would sit in queue past its
    /// deadline — rejected up front instead of timing out after the wait.
    WouldMissDeadline {
        /// Estimated queue-plus-execution time (µs).
        estimated_us: u64,
        /// The request's deadline budget (µs).
        deadline_us: u64,
    },
    /// The router's in-flight cap (global or per-shard on every shard)
    /// is reached — load-shedding backpressure.
    Overloaded {
        /// Requests currently in flight.
        in_flight: u64,
        /// The cap that was hit.
        limit: u64,
    },
    /// Every shard is Down, cordoned, or circuit-broken.
    NoHealthyShard,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "shard is shutting down"),
            SubmitError::UnknownModel { name, version } => match version {
                Some(v) => write!(f, "unknown model {name} v{v}"),
                None => write!(f, "unknown model {name}"),
            },
            SubmitError::ShapeMismatch { expected, actual } => {
                write!(f, "input shape mismatch: model expects {expected}, got {actual}")
            }
            SubmitError::WouldMissDeadline {
                estimated_us,
                deadline_us,
            } => write!(
                f,
                "admission control: estimated {estimated_us}µs exceeds deadline {deadline_us}µs"
            ),
            SubmitError::Overloaded { in_flight, limit } => {
                write!(f, "overloaded: {in_flight} requests in flight (limit {limit})")
            }
            SubmitError::NoHealthyShard => write!(f, "no healthy shard available"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error type for serving: registry operations and request completion.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// No such model/version in the registry.
    UnknownModel {
        /// The requested model name.
        name: String,
        /// The requested version, if any.
        version: Option<u32>,
    },
    /// The request sat past its deadline before a worker reached it.
    DeadlineExceeded,
    /// The serving tier shut down before the request was executed.
    ShuttingDown,
    /// Compiling or executing the model failed.
    Neural(NeuralError),
    /// Loading from a datastore failed.
    Store(String),
    /// The OS refused to spawn a worker thread at shard start.
    WorkerSpawn(String),
    /// The worker serving this request died before completing it; the
    /// request was resolved by the crash-completion path.
    WorkerCrashed,
    /// A rolling upgrade aborted: the canary request on the upgraded
    /// shard did not come back healthy on the new version.
    CanaryFailed {
        /// The model being upgraded.
        model: String,
        /// The target version the canary was checking.
        version: u32,
        /// What went wrong with the canary.
        reason: String,
    },
    /// A gated publication was rejected: the guard gate vetoed the
    /// candidate before it became visible, so no reader ever resolved it.
    GateRejected {
        /// The model being published.
        model: String,
        /// The candidate version the gate vetoed.
        version: u32,
        /// Why the gate said no.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { name, version } => match version {
                Some(v) => write!(f, "unknown model {name} v{v}"),
                None => write!(f, "unknown model {name}"),
            },
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "serving tier shut down before execution"),
            ServeError::Neural(err) => write!(f, "model error: {err}"),
            ServeError::Store(msg) => write!(f, "store error: {msg}"),
            ServeError::WorkerSpawn(msg) => write!(f, "failed to spawn worker: {msg}"),
            ServeError::WorkerCrashed => write!(f, "worker crashed before completing the request"),
            ServeError::CanaryFailed {
                model,
                version,
                reason,
            } => write!(f, "canary failed for {model} v{version}: {reason}"),
            ServeError::GateRejected {
                model,
                version,
                reason,
            } => write!(f, "gate rejected {model} v{version}: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Neural(err) => Some(err),
            _ => None,
        }
    }
}

impl From<NeuralError> for ServeError {
    fn from(err: NeuralError) -> Self {
        ServeError::Neural(err)
    }
}

//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] schedules faults at chosen points — NaN training
//! batches, pipeline-stage failures, torn datastore writes — and the
//! subsystems under test consult it through cheap hooks
//! ([`FaultPlan::poison_batch`], [`FaultPlan::fail_stage`],
//! [`FaultPlan::tear_write`]). Plans are built explicitly, fault by
//! fault, so every run of a fault scenario is reproducible. Each
//! triggered fault is recorded in an event log for assertions.
//!
//! The plan is internally synchronised and is shared by reference (or
//! `Arc`) across the training loop, the datastore, the pipeline runner,
//! the serving tier and the online-monitoring loop.
//!
//! # Fault catalogue
//!
//! | Constructor | Hook (consulted by) | Effect |
//! |---|---|---|
//! | [`FaultPlan::with_nan_batch`] | [`FaultPlan::poison_batch`] (`neural::guard`) | Poisons one training batch with NaN inputs |
//! | [`FaultPlan::with_stage_failure`] | [`FaultPlan::fail_stage`] (`spectroai::recovery`) | Fails a pipeline stage attempt |
//! | [`FaultPlan::with_torn_write`] | [`FaultPlan::tear_write`] (`datastore`) | Truncates a persistence write mid-file |
//! | [`FaultPlan::with_worker_panic`] | [`FaultPlan::batch_fault`] (`serve` worker loop) | Panics a shard worker before a batch |
//! | [`FaultPlan::arm_worker_panic`] | [`FaultPlan::batch_fault`] (`serve` worker loop) | Panics a shard worker N batches from now (runtime arming, e.g. on a swap canary) |
//! | [`FaultPlan::with_stall_batch`] | [`FaultPlan::batch_fault`] (`serve` worker loop) | Stalls a batch past the supervisor's deadline |
//! | [`FaultPlan::with_registry_load_error`] | [`FaultPlan::fail_registry_load`] (`serve::Router::rolling_swap`) | Fails a registry load / upgrade publish |
//! | [`FaultPlan::with_sensor_dropout`] | [`FaultPlan::sensor_dropout`] (`monitor` spectra stream) | Drops one stream measurement (sensor blackout) |
//! | [`FaultPlan::with_characterize_error`] | [`FaultPlan::fail_characterize`] (`monitor` recharacterizer) | Fails one re-characterization attempt |
//!
//! Serve-side faults are keyed by `(shard, nth batch)`; stream and
//! characterization faults are keyed by a plan-lifetime attempt counter,
//! like torn writes and registry-load errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

/// A fault that a [`FaultPlan`] actually delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A training batch was poisoned with non-finite values.
    NanBatch {
        /// Epoch of the poisoned batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
    },
    /// A pipeline stage was made to fail.
    StageFailure {
        /// Stage name.
        stage: String,
        /// Failures still scheduled for this stage afterwards.
        remaining: usize,
    },
    /// A datastore write was torn (truncated mid-write).
    TornWrite {
        /// Zero-based index of the torn write.
        write_index: u64,
    },
    /// A serving worker was made to panic mid-loop.
    WorkerPanic {
        /// Shard whose worker panicked.
        shard: usize,
    },
    /// A serving batch was stalled (worker slept past its deadline).
    StallBatch {
        /// Shard whose batch stalled.
        shard: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// A registry load (or upgrade publish) was made to fail.
    RegistryLoadError {
        /// Zero-based index of the failed load in plan-lifetime order.
        load_index: u64,
    },
    /// A stream measurement was dropped (sensor blackout).
    SensorDropout {
        /// Zero-based index of the dropped measurement in plan-lifetime
        /// order.
        measurement: u64,
    },
    /// A re-characterization attempt was made to fail.
    CharacterizeError {
        /// Zero-based index of the failed attempt in plan-lifetime order.
        attempt: u64,
    },
}

/// A serve-side fault the engine's worker loop must apply to the batch it
/// is about to execute. Returned by [`FaultPlan::batch_fault`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeFault {
    /// Panic the worker thread (the supervisor must restart the shard).
    Panic,
    /// Sleep this long before executing the batch (stall detection).
    Stall(Duration),
}

impl ServeFault {
    /// Applies the fault before the batch runs: panics the calling
    /// thread for [`ServeFault::Panic`] and sleeps for
    /// [`ServeFault::Stall`].
    ///
    /// Living here keeps the deliberate chaos `panic!` out of the
    /// panic-free serving crate — the lint baseline points at this one
    /// site instead.
    pub fn apply_pre(&self) {
        match self {
            ServeFault::Panic => panic!("faultsim: injected serve worker panic"),
            ServeFault::Stall(duration) => std::thread::sleep(*duration),
        }
    }
}

#[derive(Debug, Default)]
struct PlanInner {
    nan_batches: BTreeSet<(usize, usize)>,
    stage_failures: BTreeMap<String, usize>,
    torn_writes: BTreeSet<u64>,
    write_counter: u64,
    // Serve-side faults, keyed by (shard, nth batch processed on that
    // shard in plan lifetime). Per-shard batch counters advance on every
    // `batch_fault` consultation, so schedules are deterministic even
    // with concurrent shards.
    worker_panics: BTreeSet<(usize, u64)>,
    stall_batches: BTreeMap<(usize, u64), u64>,
    batch_counters: BTreeMap<usize, u64>,
    registry_load_errors: BTreeSet<u64>,
    load_counter: u64,
    sensor_dropouts: BTreeSet<u64>,
    measurement_counter: u64,
    characterize_errors: BTreeSet<u64>,
    characterize_counter: u64,
    events: Vec<FaultEvent>,
}

/// A deterministic schedule of faults to inject.
///
/// # Example
///
/// ```
/// use faultsim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .with_nan_batch(2, 0)
///     .with_stage_failure("calibration", 1)
///     .with_torn_write(3);
/// assert!(plan.poison_batch(2, 0));
/// assert!(!plan.poison_batch(2, 0), "each fault fires once");
/// assert!(plan.fail_stage("calibration"));
/// assert!(!plan.fail_stage("calibration"));
/// assert_eq!(plan.events().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    inner: Mutex<PlanInner>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a NaN batch at `(epoch, batch)`.
    pub fn with_nan_batch(self, epoch: usize, batch: usize) -> Self {
        self.lock().nan_batches.insert((epoch, batch));
        self
    }

    /// Schedules `times` consecutive failures of `stage`.
    pub fn with_stage_failure(self, stage: &str, times: usize) -> Self {
        *self.lock().stage_failures.entry(stage.to_string()).or_insert(0) += times;
        self
    }

    /// Schedules the `nth` datastore write (zero-based, in plan lifetime
    /// order) to be torn.
    pub fn with_torn_write(self, nth: u64) -> Self {
        self.lock().torn_writes.insert(nth);
        self
    }

    /// Schedules a worker panic on `shard` when it consults
    /// [`FaultPlan::batch_fault`] for the `nth_batch`-th time (zero-based).
    pub fn with_worker_panic(self, shard: usize, nth_batch: u64) -> Self {
        self.lock().worker_panics.insert((shard, nth_batch));
        self
    }

    /// Schedules `shard`'s `nth_batch`-th batch to stall for `millis`
    /// milliseconds before executing.
    pub fn with_stall_batch(self, shard: usize, nth_batch: u64, millis: u64) -> Self {
        self.lock().stall_batches.insert((shard, nth_batch), millis);
        self
    }

    /// Arms a worker panic on `shard` `after` batches from *now*
    /// (`after = 0` panics the very next batch), relative to the shard's
    /// current batch counter. Unlike [`FaultPlan::with_worker_panic`]
    /// this works on a shared plan mid-run — the monitor loop uses it to
    /// land a panic exactly on a rolling swap's canary batch, when no
    /// other traffic is in flight.
    pub fn arm_worker_panic(&self, shard: usize, after: u64) {
        let mut inner = self.lock();
        let current = inner.batch_counters.get(&shard).copied().unwrap_or(0);
        inner.worker_panics.insert((shard, current + after));
    }

    /// Schedules the `nth` registry load (zero-based, in plan lifetime
    /// order) to fail.
    pub fn with_registry_load_error(self, nth: u64) -> Self {
        self.lock().registry_load_errors.insert(nth);
        self
    }

    /// Schedules the `nth` stream measurement (zero-based, in plan
    /// lifetime order) to be dropped — the sensor returns nothing and the
    /// monitoring loop must carry on without poisoning its statistics.
    pub fn with_sensor_dropout(self, nth: u64) -> Self {
        self.lock().sensor_dropouts.insert(nth);
        self
    }

    /// Schedules the `nth` re-characterization attempt (zero-based, in
    /// plan lifetime order) to fail.
    pub fn with_characterize_error(self, nth: u64) -> Self {
        self.lock().characterize_errors.insert(nth);
        self
    }

    /// Hook for serving workers: consulted once per batch, advancing
    /// `shard`'s batch counter, and returning the fault (if any) scheduled
    /// for this batch. Panic wins over stall when both are scheduled on
    /// the same batch. Each fault fires at most once.
    pub fn batch_fault(&self, shard: usize) -> Option<ServeFault> {
        let mut inner = self.lock();
        let counter = inner.batch_counters.entry(shard).or_insert(0);
        let index = *counter;
        *counter += 1;
        if inner.worker_panics.remove(&(shard, index)) {
            inner.events.push(FaultEvent::WorkerPanic { shard });
            return Some(ServeFault::Panic);
        }
        if let Some(millis) = inner.stall_batches.remove(&(shard, index)) {
            inner.events.push(FaultEvent::StallBatch { shard, millis });
            return Some(ServeFault::Stall(Duration::from_millis(millis)));
        }
        None
    }

    /// Hook for registry loaders and upgrade publishers: counts one load
    /// attempt and returns `true` if it should fail.
    pub fn fail_registry_load(&self) -> bool {
        let mut inner = self.lock();
        let index = inner.load_counter;
        inner.load_counter += 1;
        if inner.registry_load_errors.remove(&index) {
            inner
                .events
                .push(FaultEvent::RegistryLoadError { load_index: index });
            true
        } else {
            false
        }
    }

    /// Hook for spectra streams: counts one measurement and returns
    /// `true` if the sensor should drop it (no sample delivered).
    pub fn sensor_dropout(&self) -> bool {
        let mut inner = self.lock();
        let index = inner.measurement_counter;
        inner.measurement_counter += 1;
        if inner.sensor_dropouts.remove(&index) {
            inner
                .events
                .push(FaultEvent::SensorDropout { measurement: index });
            true
        } else {
            false
        }
    }

    /// Hook for re-characterization: counts one attempt and returns
    /// `true` if it should fail.
    pub fn fail_characterize(&self) -> bool {
        let mut inner = self.lock();
        let index = inner.characterize_counter;
        inner.characterize_counter += 1;
        if inner.characterize_errors.remove(&index) {
            inner
                .events
                .push(FaultEvent::CharacterizeError { attempt: index });
            true
        } else {
            false
        }
    }

    /// Hook for the training loop: returns `true` if the batch at
    /// `(epoch, batch)` should be poisoned. Fires at most once per
    /// scheduled point.
    pub fn poison_batch(&self, epoch: usize, batch: usize) -> bool {
        let mut inner = self.lock();
        if inner.nan_batches.remove(&(epoch, batch)) {
            inner.events.push(FaultEvent::NanBatch { epoch, batch });
            true
        } else {
            false
        }
    }

    /// Hook for stage runners: returns `true` if `stage` should fail this
    /// attempt, consuming one scheduled failure.
    pub fn fail_stage(&self, stage: &str) -> bool {
        let mut inner = self.lock();
        match inner.stage_failures.get_mut(stage) {
            Some(remaining) if *remaining > 0 => {
                *remaining -= 1;
                let remaining = *remaining;
                inner.events.push(FaultEvent::StageFailure {
                    stage: stage.to_string(),
                    remaining,
                });
                true
            }
            _ => false,
        }
    }

    /// Hook for writers: counts one write and returns `true` if it should
    /// be torn.
    pub fn tear_write(&self) -> bool {
        let mut inner = self.lock();
        let index = inner.write_counter;
        inner.write_counter += 1;
        if inner.torn_writes.remove(&index) {
            inner.events.push(FaultEvent::TornWrite { write_index: index });
            true
        } else {
            false
        }
    }

    /// Faults delivered so far, in delivery order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.lock().events.clone()
    }

    /// Number of scheduled faults not yet delivered.
    pub fn pending(&self) -> usize {
        let inner = self.lock();
        inner.nan_batches.len()
            + inner.stage_failures.values().sum::<usize>()
            + inner.torn_writes.len()
            + inner.worker_panics.len()
            + inner.stall_batches.len()
            + inner.registry_load_errors.len()
            + inner.sensor_dropouts.len()
            + inner.characterize_errors.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_batches_fire_once() {
        let plan = FaultPlan::new().with_nan_batch(1, 2);
        assert!(!plan.poison_batch(0, 0));
        assert!(plan.poison_batch(1, 2));
        assert!(!plan.poison_batch(1, 2));
        assert_eq!(plan.events(), vec![FaultEvent::NanBatch { epoch: 1, batch: 2 }]);
    }

    #[test]
    fn stage_failures_count_down() {
        let plan = FaultPlan::new().with_stage_failure("training", 2);
        assert!(plan.fail_stage("training"));
        assert!(plan.fail_stage("training"));
        assert!(!plan.fail_stage("training"));
        assert!(!plan.fail_stage("other"));
        assert_eq!(plan.events().len(), 2);
    }

    #[test]
    fn torn_writes_index_by_write_order() {
        let plan = FaultPlan::new().with_torn_write(1);
        assert!(!plan.tear_write()); // write 0
        assert!(plan.tear_write()); // write 1
        assert!(!plan.tear_write()); // write 2
        assert_eq!(plan.events(), vec![FaultEvent::TornWrite { write_index: 1 }]);
    }

    #[test]
    fn pending_tracks_undelivered_faults() {
        let plan = FaultPlan::new()
            .with_nan_batch(0, 0)
            .with_stage_failure("s", 3)
            .with_torn_write(0);
        assert_eq!(plan.pending(), 5);
        plan.poison_batch(0, 0);
        plan.fail_stage("s");
        plan.tear_write();
        assert_eq!(plan.pending(), 2);
    }

    #[test]
    fn batch_faults_fire_once_per_shard_batch_index() {
        let plan = FaultPlan::new()
            .with_worker_panic(1, 2)
            .with_stall_batch(0, 1, 50);
        // Shard 0, batches 0..3: nothing, stall, nothing.
        assert_eq!(plan.batch_fault(0), None);
        assert_eq!(plan.batch_fault(0), Some(ServeFault::Stall(Duration::from_millis(50))));
        assert_eq!(plan.batch_fault(0), None);
        // Shard 1 counts independently: batches 0,1 clean, 2 panics.
        assert_eq!(plan.batch_fault(1), None);
        assert_eq!(plan.batch_fault(1), None);
        assert_eq!(plan.batch_fault(1), Some(ServeFault::Panic));
        assert_eq!(plan.batch_fault(1), None);
        assert_eq!(
            plan.events(),
            vec![
                FaultEvent::StallBatch { shard: 0, millis: 50 },
                FaultEvent::WorkerPanic { shard: 1 },
            ]
        );
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn registry_load_errors_index_by_load_order() {
        let plan = FaultPlan::new().with_registry_load_error(1);
        assert!(!plan.fail_registry_load()); // load 0
        assert!(plan.fail_registry_load()); // load 1
        assert!(!plan.fail_registry_load()); // load 2
        assert_eq!(
            plan.events(),
            vec![FaultEvent::RegistryLoadError { load_index: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "injected serve worker panic")]
    fn panic_fault_panics_on_apply() {
        ServeFault::Panic.apply_pre();
    }

    #[test]
    fn arm_worker_panic_is_relative_to_current_counter() {
        let plan = FaultPlan::new();
        // Advance shard 0's counter by two batches, then arm "next batch".
        assert!(plan.batch_fault(0).is_none());
        assert!(plan.batch_fault(0).is_none());
        plan.arm_worker_panic(0, 0);
        assert!(matches!(plan.batch_fault(0), Some(ServeFault::Panic)));
        assert!(plan.batch_fault(0).is_none());
        // Arming with a delay skips that many batches first.
        plan.arm_worker_panic(1, 1);
        assert!(plan.batch_fault(1).is_none());
        assert!(matches!(plan.batch_fault(1), Some(ServeFault::Panic)));
    }

    #[test]
    fn sensor_dropouts_index_by_measurement_order() {
        let plan = FaultPlan::new().with_sensor_dropout(1).with_sensor_dropout(2);
        assert!(!plan.sensor_dropout()); // measurement 0
        assert!(plan.sensor_dropout()); // measurement 1
        assert!(plan.sensor_dropout()); // measurement 2
        assert!(!plan.sensor_dropout()); // measurement 3
        assert_eq!(
            plan.events(),
            vec![
                FaultEvent::SensorDropout { measurement: 1 },
                FaultEvent::SensorDropout { measurement: 2 },
            ]
        );
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn characterize_errors_index_by_attempt_order() {
        let plan = FaultPlan::new().with_characterize_error(0);
        assert_eq!(plan.pending(), 1);
        assert!(plan.fail_characterize()); // attempt 0
        assert!(!plan.fail_characterize()); // attempt 1
        assert_eq!(
            plan.events(),
            vec![FaultEvent::CharacterizeError { attempt: 0 }]
        );
        assert_eq!(plan.pending(), 0);
    }

}

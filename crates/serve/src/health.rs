//! Per-shard health: worker heartbeats for stall detection, and the
//! supervisor-driven health state machine with a circuit breaker.
//!
//! Health is advisory routing state, not a lock: the router reads it
//! with relaxed atomics on every submission, and the supervisor writes
//! it from its tick loop. A shard that looks Healthy but fails between
//! the check and the push still resolves every ticket through the
//! shard's terminal-completion guarantees.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Routing-facing state of one shard, driven by the supervisor from
/// heartbeats and error-rate tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting traffic normally.
    Healthy,
    /// Accepting traffic, but the circuit breaker recently opened or the
    /// error rate is elevated — the router prefers siblings.
    Degraded,
    /// Dead or stalled; the supervisor is failing it over / restarting
    /// it. The router never picks a Down shard.
    Down,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Down => write!(f, "down"),
        }
    }
}

const STATE_HEALTHY: u8 = 0;
const STATE_DEGRADED: u8 = 1;
const STATE_DOWN: u8 = 2;

/// Per-worker busy markers, read by the supervisor's stall detector.
///
/// A worker marks itself busy when it pops a batch and idle when the
/// batch completes; a worker that stays busy past the stall deadline
/// (wedged predict, injected stall) flags the shard for failover.
#[derive(Debug)]
pub(crate) struct Heartbeat {
    epoch: Instant,
    /// Per-worker busy-since timestamp in ns-since-epoch, offset by +1
    /// so that 0 means idle.
    busy_since: Vec<AtomicU64>,
}

impl Heartbeat {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            epoch: Instant::now(),
            busy_since: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn mark_busy(&self, worker: usize) {
        if let Some(slot) = self.busy_since.get(worker) {
            slot.store(self.now_ns().saturating_add(1), Ordering::Relaxed);
        }
    }

    pub(crate) fn mark_idle(&self, worker: usize) {
        if let Some(slot) = self.busy_since.get(worker) {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Longest time any worker has been busy on its current batch
    /// (zero when all idle).
    pub(crate) fn longest_busy(&self) -> Duration {
        let now = self.now_ns();
        let longest = self
            .busy_since
            .iter()
            .map(|slot| match slot.load(Ordering::Relaxed) {
                0 => 0,
                since => now.saturating_sub(since - 1),
            })
            .max()
            .unwrap_or(0);
        Duration::from_nanos(longest)
    }
}

/// Atomic health record for one shard: state machine, cordon flag for
/// rolling upgrades, and a consecutive-failure circuit breaker.
#[derive(Debug)]
pub(crate) struct ShardHealth {
    state: AtomicU8,
    cordoned: AtomicBool,
    consecutive_failures: AtomicU32,
    /// ns-since-epoch until which the circuit stays open (0 = closed).
    circuit_open_until: AtomicU64,
    epoch: Instant,
}

impl ShardHealth {
    pub(crate) fn new() -> Self {
        Self {
            state: AtomicU8::new(STATE_HEALTHY),
            cordoned: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            circuit_open_until: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn state(&self) -> HealthState {
        match self.state.load(Ordering::Relaxed) {
            STATE_HEALTHY => HealthState::Healthy,
            STATE_DEGRADED => HealthState::Degraded,
            _ => HealthState::Down,
        }
    }

    pub(crate) fn set_state(&self, state: HealthState) {
        let raw = match state {
            HealthState::Healthy => STATE_HEALTHY,
            HealthState::Degraded => STATE_DEGRADED,
            HealthState::Down => STATE_DOWN,
        };
        self.state.store(raw, Ordering::Relaxed);
    }

    pub(crate) fn cordon(&self) {
        self.cordoned.store(true, Ordering::Relaxed);
    }

    pub(crate) fn uncordon(&self) {
        self.cordoned.store(false, Ordering::Relaxed);
    }

    pub(crate) fn is_cordoned(&self) -> bool {
        self.cordoned.load(Ordering::Relaxed)
    }

    /// Supervisor hook: `failures` new request failures observed this
    /// tick. Crossing `threshold` consecutive failed ticks opens the
    /// circuit for `cooldown` and degrades the shard.
    pub(crate) fn record_failures(&self, failures: u64, threshold: u32, cooldown: Duration) -> bool {
        if failures == 0 {
            self.consecutive_failures.store(0, Ordering::Relaxed);
            return false;
        }
        let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= threshold {
            let until = self
                .now_ns()
                .saturating_add(u64::try_from(cooldown.as_nanos()).unwrap_or(u64::MAX));
            self.circuit_open_until.store(until, Ordering::Relaxed);
            if self.state() == HealthState::Healthy {
                self.set_state(HealthState::Degraded);
            }
            return true;
        }
        false
    }

    /// `true` while the circuit breaker holds traffic away from this
    /// shard. Expiry closes the circuit on the next read.
    pub(crate) fn circuit_open(&self) -> bool {
        let until = self.circuit_open_until.load(Ordering::Relaxed);
        if until == 0 {
            return false;
        }
        if self.now_ns() >= until {
            self.circuit_open_until.store(0, Ordering::Relaxed);
            self.consecutive_failures.store(0, Ordering::Relaxed);
            if self.state() == HealthState::Degraded {
                self.set_state(HealthState::Healthy);
            }
            return false;
        }
        true
    }

    /// Whether the router may send new traffic here: not cordoned, not
    /// Down, circuit closed.
    pub(crate) fn accepts_traffic(&self) -> bool {
        !self.is_cordoned() && self.state() != HealthState::Down && !self.circuit_open()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_tracks_longest_busy_worker() {
        let hb = Heartbeat::new(2);
        assert_eq!(hb.longest_busy(), Duration::ZERO);
        hb.mark_busy(0);
        std::thread::sleep(Duration::from_millis(5));
        assert!(hb.longest_busy() >= Duration::from_millis(5));
        hb.mark_idle(0);
        assert_eq!(hb.longest_busy(), Duration::ZERO);
        // Out-of-range workers are ignored, not a panic.
        hb.mark_busy(9);
        hb.mark_idle(9);
    }

    #[test]
    fn circuit_breaker_opens_after_threshold_and_recloses() {
        let health = ShardHealth::new();
        assert!(health.accepts_traffic());
        assert!(!health.record_failures(3, 2, Duration::from_millis(20)));
        assert!(health.record_failures(1, 2, Duration::from_millis(20)));
        assert!(health.circuit_open());
        assert_eq!(health.state(), HealthState::Degraded);
        assert!(!health.accepts_traffic());
        std::thread::sleep(Duration::from_millis(25));
        assert!(!health.circuit_open(), "cooldown must expire");
        assert_eq!(health.state(), HealthState::Healthy);
        assert!(health.accepts_traffic());
    }

    #[test]
    fn clean_ticks_reset_the_failure_streak() {
        let health = ShardHealth::new();
        assert!(!health.record_failures(1, 3, Duration::from_secs(1)));
        assert!(!health.record_failures(0, 3, Duration::from_secs(1)));
        assert!(!health.record_failures(1, 3, Duration::from_secs(1)));
        assert!(!health.record_failures(1, 3, Duration::from_secs(1)));
        assert!(health.record_failures(1, 3, Duration::from_secs(1)));
    }

    #[test]
    fn cordon_and_down_block_traffic() {
        let health = ShardHealth::new();
        health.cordon();
        assert!(!health.accepts_traffic());
        health.uncordon();
        assert!(health.accepts_traffic());
        health.set_state(HealthState::Down);
        assert!(!health.accepts_traffic());
        health.set_state(HealthState::Healthy);
        assert!(health.accepts_traffic());
    }
}

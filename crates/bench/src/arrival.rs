//! Open-loop arrival process for load generation.
//!
//! A closed-loop driver (submit, wait, submit again) can never overload
//! the system it measures: its arrival rate degrades in lock-step with
//! service latency, hiding queueing collapse. An *open-loop* process
//! generates arrival timestamps independently of completions — the
//! workload keeps arriving at the scheduled rate whether or not the
//! server keeps up, which is what exposes backpressure, deadline misses
//! and admission-control behaviour.
//!
//! [`ArrivalProcess::poisson`] is a seeded, fully deterministic
//! homogeneous Poisson process: memoryless arrivals with exponential
//! interarrival gaps, the classic M/·/· driver. Timestamps are in virtual
//! microseconds from the process start; drivers map them onto a wall
//! clock (or a simulated tick) themselves, so the process stays usable
//! from deterministic tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded open-loop arrival process yielding monotone virtual
/// timestamps (microseconds since process start).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rng: ChaCha8Rng,
    /// Arrival rate in arrivals per virtual second.
    rate_per_sec: f64,
    /// Virtual clock: timestamp of the most recent arrival.
    clock_us: f64,
}

impl ArrivalProcess {
    /// A homogeneous Poisson process at `rate_per_sec` arrivals per
    /// virtual second. Rates are clamped to a tiny positive floor so a
    /// zero rate cannot stall a driver forever.
    pub fn poisson(seed: u64, rate_per_sec: f64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            rate_per_sec: rate_per_sec.max(1e-9),
            clock_us: 0.0,
        }
    }

    /// Advances the process and returns the next arrival's virtual
    /// timestamp in microseconds. Timestamps are strictly increasing.
    pub fn next_arrival_us(&mut self) -> f64 {
        // Exponential gap via inverse transform; 1 - U keeps the argument
        // in (0, 1] so ln() stays finite.
        let u: f64 = self.rng.gen();
        let gap_secs = -(1.0 - u).ln() / self.rate_per_sec;
        self.clock_us += (gap_secs * 1e6).max(1e-3);
        self.clock_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, rate_per_sec: f64, n: usize) -> Vec<f64> {
        let mut process = ArrivalProcess::poisson(seed, rate_per_sec);
        (0..n).map(|_| process.next_arrival_us()).collect()
    }

    #[test]
    fn poisson_is_seed_deterministic() {
        let a = schedule(7, 1000.0, 100);
        let b = schedule(7, 1000.0, 100);
        let c = schedule(8, 1000.0, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut last = 0.0;
        for t in schedule(1, 5000.0, 500) {
            assert!(t > last, "non-monotone arrival {t} after {last}");
            assert!(t.is_finite());
            last = t;
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let schedule = schedule(11, 1000.0, 20_000);
        let elapsed_secs = schedule.last().copied().unwrap_or(0.0) / 1e6;
        let rate = schedule.len() as f64 / elapsed_secs;
        assert!(
            (rate - 1000.0).abs() / 1000.0 < 0.05,
            "empirical rate {rate}"
        );
    }

    #[test]
    fn monitor_loop_background_stream_is_pinned() {
        // The seed and rate `monitor_loop` draws its background traffic
        // from; a changed RNG draw order would move its schedule.
        let pinned: [u64; 16] = [
            0x407202b81617c79a,
            0x407c4dd4ca84f334,
            0x40839873bbe3c3de,
            0x40928da36b144ef0,
            0x4095345898c9e060,
            0x409987bbe629ebb4,
            0x40a252587647c89c,
            0x40a38fa3706db8be,
            0x40a475001d969d33,
            0x40a71ecfb821a64e,
            0x40a9b835df057b9b,
            0x40acd14107ef26bc,
            0x40b12fb828a3e097,
            0x40b2882f1cedaa93,
            0x40b3b588fd7a4cf1,
            0x40b4c54ea906bdac,
        ];
        let drawn: Vec<u64> = schedule(97, 2_000.0, 16).iter().map(|t| t.to_bits()).collect();
        assert_eq!(drawn, pinned);
    }
}

//! Open-loop load generation: a seeded Poisson schedule, a pacer that
//! sends each request at its due time whatever the server is doing, and
//! request records timed from the due time.

use std::time::{Duration, Instant};

/// SplitMix64: a small seeded generator for schedules and input picks,
/// so the benchmark's inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due offsets of a Poisson process at `rate_per_s` over `window`.
pub fn poisson_schedule(rng: &mut SplitMix, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shed {
    QueueFull,
    Overloaded,
    WouldMissDeadline,
    NoHealthyShard,
    Other,
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Served {
        done: Instant,
        /// The tier's own submit-to-completion time.
        inner: Duration,
        batch_size: usize,
        version: u32,
    },
    Refused(Shed),
    TimedOut,
    Failed,
}

/// One request's life as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the pacer actually called submit.
    pub sent: Instant,
    /// When submit returned.
    pub submitted: Instant,
    pub outcome: Outcome,
}

impl Record {
    /// Due-to-completion latency in ms. A refused, failed or timed-out
    /// request never completed: it misses every latency limit, so it
    /// counts as infinitely late.
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Served { done, .. } => ms(done.saturating_duration_since(self.due)),
            _ => f64::INFINITY,
        }
    }

    /// How late the pacer sent it.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends request `i` at `start + due[i]`, sleeping (not spinning) until
/// then. The schedule is never re-anchored: a stall inside `send` makes
/// every later request late, and that lateness stays in their latency.
pub fn pace(start: Instant, due: &[Duration], mut send: impl FnMut(usize, Instant)) {
    for (i, offset) in due.iter().enumerate() {
        let at = start + *offset;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        send(i, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(due: Instant, sent: Instant) -> Record {
        let done = Instant::now();
        Record {
            due,
            sent,
            submitted: done,
            outcome: Outcome::Served {
                done,
                inner: Duration::ZERO,
                batch_size: 1,
                version: 1,
            },
        }
    }

    #[test]
    fn a_stall_delays_the_recorded_latency_of_later_requests() {
        let due: Vec<Duration> = (0..6).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(40);
        let mut records = Vec::new();
        pace(Instant::now(), &due, |i, at| {
            let sent = Instant::now();
            if i == 2 {
                std::thread::sleep(stall);
            }
            records.push(served(at, sent));
        });
        // Request 3 was due 1 ms after request 2 but could only be sent
        // once the stall ended: its latency carries the stall.
        assert!(
            records[3].latency_ms() >= 35.0,
            "{}",
            records[3].latency_ms()
        );
        assert!(records[3].lag_ms() >= 35.0);
        assert!(records[5].latency_ms() >= 33.0);
        // Requests before the stall are unaffected.
        assert!(records[1].latency_ms() < 35.0);
    }

    #[test]
    fn refused_and_failed_requests_count_as_misses() {
        let now = Instant::now();
        let mut records: Vec<Record> = (0..50).map(|_| served(now, now)).collect();
        for outcome in [
            Outcome::Refused(Shed::Overloaded),
            Outcome::Failed,
            Outcome::TimedOut,
        ] {
            for _ in 0..20 {
                records.push(Record {
                    due: now,
                    sent: now,
                    submitted: now,
                    outcome: outcome.clone(),
                });
            }
        }
        let latencies: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        assert!(latencies[50..].iter().all(|l| l.is_infinite()));
        // Only 50 of 110 were served, so the median lands on a miss,
        // however fast the served ones were.
        assert_eq!(
            crate::stats::percentile(&latencies, 0.5),
            Some(f64::INFINITY)
        );
        assert!(crate::stats::percentile(&latencies, 0.4).is_some_and(f64::is_finite));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_hits_its_rate() {
        let a = poisson_schedule(&mut SplitMix::new(7), 2000.0, Duration::from_secs(5));
        let b = poisson_schedule(&mut SplitMix::new(7), 2000.0, Duration::from_secs(5));
        let c = poisson_schedule(&mut SplitMix::new(8), 2000.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / 5.0;
        assert!((rate - 2000.0).abs() < 100.0, "{rate}");
    }
}

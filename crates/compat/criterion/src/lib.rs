//! Offline, in-workspace stand-in for `criterion`.
//!
//! Keeps the `Criterion` / `BenchmarkGroup` / `Bencher` API shape and the
//! `criterion_group!` / `criterion_main!` macros so `harness = false`
//! bench targets compile and run unchanged, but replaces the statistical
//! machinery with one warm-up batch plus `sample_size` timed batches of
//! one call each, printed as the median per-call time and its quartiles,
//! so a single host stall moves a quartile, not the reported figure.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier re-exported for bench code.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// The benchmark driver handed to each `criterion_group!` target.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed batches used for subsequent benchmarks.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Times `routine` and prints the median per-call wall time with the
    /// first and third quartiles over its timed batches.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.to_string();
        let mut bencher = Bencher {
            batches: self.sample_size,
            samples: Vec::new(),
        };
        routine(&mut bencher);
        let mut ns: Vec<f64> = bencher.samples.iter().map(|d| d.as_nanos() as f64).collect();
        ns.sort_by(f64::total_cmp);
        match (quantile(&ns, 0.25), quantile(&ns, 0.5), quantile(&ns, 0.75)) {
            (Some(q1), Some(median), Some(q3)) => println!(
                "bench: {name:<40} {median:>12.0} ns/iter [q1 {q1:.0}, q3 {q3:.0}] ({} batches)",
                ns.len()
            ),
            _ => println!("bench: {name:<40} no timed batches"),
        }
        self
    }

    /// Opens a named group of benchmarks sharing a sample size.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            parent: self,
            sample_size: None,
        }
    }
}

/// A group of related benchmarks (a named scope with its own sample size).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the iteration count for benchmarks in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = Some(samples.max(1));
        self
    }

    /// Times `routine` under this group's sample size.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let saved = self.parent.sample_size;
        if let Some(samples) = self.sample_size {
            self.parent.sample_size = samples;
        }
        self.parent.bench_function(name, routine);
        self.parent.sample_size = saved;
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Runs and times the benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    batches: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Calls `routine` in one warm-up batch, then in `batches` batches
    /// timed one by one. A batch is one call: the routines benched here run
    /// for microseconds or more, well above the clock's resolution.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        black_box(routine());
        self.samples.clear();
        for _ in 0..self.batches {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// The `p` quantile of ascending `sorted`, interpolated linearly between
/// the two nearest ranks; `None` when empty.
fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    let (a, b) = (sorted.get(lo)?, sorted.get(hi)?);
    Some(a + (b - a) * (rank - lo as f64))
}

/// Bundles benchmark functions into a single runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut calls = 0u64;
        let mut c = Criterion::default();
        c.sample_size(3).bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        // One warm-up batch plus three timed batches, one call each.
        assert_eq!(calls, 4);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), Some(3.0));
        assert_eq!(quantile(&sorted, 0.25), Some(2.0));
        assert_eq!(quantile(&sorted, 0.75), Some(4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn groups_restore_parent_sample_size() {
        let mut c = Criterion::default();
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(2);
            group.bench_function("inner", |b| b.iter(|| 1 + 1));
            group.finish();
        }
        assert_eq!(c.sample_size, 10);
    }
}

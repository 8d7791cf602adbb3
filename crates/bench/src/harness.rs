//! A dependency-free micro-benchmark harness.
//!
//! The build environment of this repository cannot reach crates.io, so the
//! benches in `benches/` cannot link criterion.  This module provides the
//! subset the suite needs — named groups, warm-up, multi-sample timing with
//! min/median/max/mean statistics — behind a criterion-flavoured API:
//!
//! ```
//! use sia_bench::harness::BenchGroup;
//!
//! let mut group = BenchGroup::new("example").sample_size(5);
//! let stats = group.bench("square", || (0..100u64).map(|x| x * x).sum::<u64>());
//! assert!(stats.median_ns > 0.0);
//! ```
//!
//! Each sample runs the closure enough times to take ≥ ~2 ms (calibrated
//! during warm-up), then per-iteration times are derived; the printed line
//! mirrors criterion's `group/label  time: [low mid high]` format — here
//! `[min median max]`, always in ascending order — so existing tooling that
//! greps bench output keeps working.

use std::hint::black_box;
use std::time::Instant;

/// Timing summary of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Mean over all samples (not printed: it can fall below the median,
    /// so it cannot fill the ordered `[low mid high]` slot).
    pub mean_ns: f64,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Number of samples.
    pub samples: usize,
}

impl BenchStats {
    /// Summarizes per-iteration sample times.
    ///
    /// # Panics
    ///
    /// Panics if `samples_ns` is empty or holds a NaN.
    fn from_samples(mut samples_ns: Vec<f64>, iters_per_sample: u64) -> Self {
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let n = samples_ns.len();
        BenchStats {
            min_ns: samples_ns[0],
            median_ns: samples_ns[n / 2],
            max_ns: samples_ns[n - 1],
            mean_ns: samples_ns.iter().sum::<f64>() / n as f64,
            iters_per_sample,
            samples: n,
        }
    }

    /// The printed summary line: `group/label  time: [min median max]`.
    fn summary_line(&self, group: &str, label: &str) -> String {
        format!(
            "{group}/{label:<32} time: [{} {} {}]  ({} samples x {} iters)",
            format_ns(self.min_ns),
            format_ns(self.median_ns),
            format_ns(self.max_ns),
            self.samples,
            self.iters_per_sample,
        )
    }

    /// Median time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }
}

/// A named group of benchmarks, printed as `group/label`.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
}

/// Minimum wall-time per sample; iteration counts are calibrated to hit it.
const TARGET_SAMPLE_NS: f64 = 2e6;

impl BenchGroup {
    /// Creates a group with the default of 20 samples per benchmark.
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs `f` repeatedly, prints a summary line and returns the stats.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) -> BenchStats {
        // Warm-up and calibration: time single iterations until both at
        // least 3 iterations and ~50 ms have elapsed (capped at 1000
        // iterations so very fast closures terminate).
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_iters < 3 || (calib_start.elapsed().as_nanos() as f64) < 5e7 {
            black_box(f());
            calib_iters += 1;
            if calib_iters >= 1000 {
                break;
            }
        }
        let per_iter = calib_start.elapsed().as_nanos() as f64 / calib_iters as f64;
        let iters = ((TARGET_SAMPLE_NS / per_iter).ceil() as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let stats = BenchStats::from_samples(samples_ns, iters);
        println!("{}", stats.summary_line(&self.name, label));
        stats
    }
}

/// Formats a nanosecond value with a human-friendly unit.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_positive_and_ordered() {
        let mut group = BenchGroup::new("harness_test").sample_size(3);
        let stats = group.bench("noop_sum", || (0..64u64).sum::<u64>());
        assert!(stats.min_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.max_ns);
        assert!(stats.iters_per_sample >= 1);
    }

    #[test]
    fn printed_triple_is_min_median_max_in_order() {
        // Fast samples drag the mean (7.6 ns) under the median (10 ns), so
        // the triple must print the max, not the mean, in its high slot.
        let stats = BenchStats::from_samples(vec![10.0, 1.0, 10.0, 7.0, 10.0], 3);
        assert!(stats.mean_ns < stats.median_ns);
        let line = stats.summary_line("group", "case");
        let triple = &line[line.find('[').unwrap() + 1..line.find(']').unwrap()];
        let values: Vec<f64> = triple
            .split(" ns")
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(values, [1.0, 10.0, 10.0]);
        assert!(values.windows(2).all(|p| p[0] <= p[1]));
        assert!(line.ends_with("(5 samples x 3 iters)"));
    }

    #[test]
    fn format_covers_all_units() {
        assert!(format_ns(5.0).ends_with("ns"));
        assert!(format_ns(5.0e3).ends_with("us"));
        assert!(format_ns(5.0e6).ends_with("ms"));
        assert!(format_ns(5.0e9).ends_with(" s"));
    }
}

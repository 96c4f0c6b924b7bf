//! Minimal micro-benchmark harness.
//!
//! The offline build environment has no criterion; the `[micro]` entries
//! of a `pmor bench` suite run on this module: warm up, run a fixed number
//! of timed iterations, report min/median/max. Good enough to track
//! hot-path regressions by eye and by the emitted [`crate::report`]
//! records; not a statistical instrument.

use std::time::Instant;

/// Timing summary of one benchmark case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroStats {
    /// Fastest observed iteration, seconds.
    pub min_s: f64,
    /// Mean iteration, seconds.
    pub mean_s: f64,
    /// Median iteration, seconds — the headline number `pmor bench`
    /// records (robust against one slow outlier iteration).
    pub median_s: f64,
    /// Slowest observed iteration, seconds.
    pub max_s: f64,
    /// Timed iterations.
    pub iters: usize,
}

/// Runs `f` `warmup` untimed times, then `iters` timed times, printing
/// and returning the summary. The suite runner (`pmor bench`) drives it
/// with the suite file's `warmup`/`repeats` knobs.
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn bench_case_config<T>(
    name: &str,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> MicroStats {
    assert!(iters > 0, "bench_case_config: need at least one iteration");
    for _ in 0..warmup {
        std::hint::black_box(f()); // warm-up (page in, fill caches)
    }
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let min_s = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max_s = times.iter().copied().fold(0.0f64, f64::max);
    let mean_s = times.iter().sum::<f64>() / times.len() as f64;
    let stats = MicroStats {
        min_s,
        mean_s,
        median_s: median(&mut times),
        max_s,
        iters,
    };
    println!(
        "{name:<44} min {:>10.3} ms   median {:>10.3} ms   max {:>10.3} ms   ({iters} iters)",
        1e3 * min_s,
        1e3 * stats.median_s,
        1e3 * max_s
    );
    stats
}

/// Median of a nonempty sample (sorts in place; even-length samples
/// average the two central values).
pub fn median(times: &mut [f64]) -> f64 {
    assert!(!times.is_empty(), "median: empty sample");
    times.sort_by(|a, b| a.total_cmp(b));
    let n = times.len();
    if n % 2 == 1 {
        times[n / 2]
    } else {
        0.5 * (times[n / 2 - 1] + times[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_plausible_times() {
        let s = bench_case_config("noop", 1, 3, || 1 + 1);
        assert_eq!(s.iters, 3);
        assert!(s.min_s >= 0.0 && s.min_s <= s.mean_s && s.mean_s <= s.max_s);
        assert!(s.min_s <= s.median_s && s.median_s <= s.max_s);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn warmup_iterations_are_not_timed() {
        let mut calls = 0;
        let s = bench_case_config("warm", 2, 3, || calls += 1);
        assert_eq!(calls, 5);
        assert_eq!(s.iters, 3);
    }
}

//! Simple wall-clock measurement used by the experiment harness (the
//! criterion benches use criterion's own statistics instead).

use std::time::{Duration, Instant};

/// Time a single execution.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `f` once to warm up, then `runs` times, returning the mean duration.
/// The paper reports "the average execution time of five runs".
pub fn time_avg<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs > 0);
    let _ = f(); // warm-up
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        let start = Instant::now();
        let out = f();
        total += start.elapsed();
        std::hint::black_box(out);
    }
    total / runs as u32
}

/// Render a duration in the paper's seconds-with-3-significant-digits style.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 0.001 {
        format!("{:.3}", s)
    } else {
        format!("{:.6}", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures() {
        let (v, d) = time_once(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn time_avg_runs_n_plus_one_times() {
        let mut count = 0;
        let _ = time_avg(5, || count += 1);
        assert_eq!(count, 6); // 1 warm-up + 5 measured
    }

    #[test]
    fn fmt_secs_styles() {
        assert_eq!(fmt_secs(Duration::from_secs(200)), "200");
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(fmt_secs(Duration::from_millis(12)), "0.012");
        assert_eq!(fmt_secs(Duration::from_micros(5)), "0.000005");
    }
}

//! The benchmark's own arithmetic: exact percentiles, attempts per op,
//! intended-time latency, medians, and metric-name syntax. Everything
//! here is pure so the unit tests below pin it.

use std::time::{Duration, Instant};

/// A reported percentile needs at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`
/// samples. Exact: no bucketing, so the resolution is the sample's own.
///
/// Fails when fewer than [`MIN_BEYOND`] samples lie above the rank, so
/// a tail percentile is never read off a handful of points.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{p}: no samples"));
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p}: only {beyond} of {n} samples lie beyond it (need {MIN_BEYOND})"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Requests a client made per op it started: 1 when no attempt was
/// refused, higher the more retries refusals forced (0 when no op
/// was started).
pub fn attempts_per_op(attempts: u64, ops: u64) -> f64 {
    per(attempts as f64, ops as f64)
}

/// Open-loop schedule: the instant op `i` is due at `rate` ops/s.
pub fn due(start: Instant, i: u64, rate: u64) -> Instant {
    start + Duration::from_nanos(i * 1_000_000_000 / rate)
}

/// Latency of an op timed from when it was *due*, not from when the
/// generator got round to sending it: a stall that delays later sends
/// shows up in their latencies (no coordinated omission).
pub fn intended_latency_ns(due: Instant, done: Instant) -> u64 {
    done.saturating_duration_since(due).as_nanos() as u64
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// True for a metric or workload name the benchmark contract accepts:
/// a letter or digit, then at most 63 more letters, digits, `_`, `.`
/// or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// True for a unit the benchmark contract accepts: 1 to 16 letters,
/// digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Ratio that reads 0 instead of NaN when the base is empty.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Ok(500));
        assert_eq!(percentile(&v, 99.0), Ok(990));
        // Sub-bucket resolution: neighbouring samples stay distinct.
        let w: Vec<u64> = (0..2000).map(|i| 131_072 + i).collect();
        assert_eq!(percentile(&w, 50.0), Ok(131_072 + 999));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=999).collect();
        // p99 of 999 samples is rank 990: only 9 lie beyond it.
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 99.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[7; 10], 50.0).is_err());
        assert_eq!(percentile(&[7; 20], 50.0), Ok(7));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn attempts_per_op_is_attempts_over_ops() {
        // 39% of attempts refused and retried: 1 / (1 - 0.39) per op.
        assert_eq!(attempts_per_op(10_000, 6_100), 10_000.0 / 6_100.0);
        assert_eq!(attempts_per_op(10_000, 10_000), 1.0);
        assert_eq!(attempts_per_op(0, 0), 0.0);
        assert_eq!(attempts_per_op(7, 2), 3.5);
    }

    #[test]
    fn intended_time_latency_charges_the_stall_to_later_ops() {
        let t0 = Instant::now();
        let rate = 1000;
        // The generator stalls 50 ms, then sends ops 0..5 at once; each
        // reply takes 1 ms from its real send.
        let sent = t0 + Duration::from_millis(50);
        let done = sent + Duration::from_millis(1);
        for i in 0..5u64 {
            let lat = intended_latency_ns(due(t0, i, rate), done);
            assert_eq!(lat, (51 - i) * 1_000_000);
        }
        // Early replies (clock skew never happens with one clock, but
        // the subtraction must not underflow).
        assert_eq!(intended_latency_ns(t0 + Duration::from_millis(1), t0), 0);
        assert_eq!(due(t0, 1500, rate), t0 + Duration::from_millis(1500));
    }

    #[test]
    fn metric_name_syntax() {
        assert!(valid_name("commit_p50_ms"));
        assert!(valid_name("protocol.vote_denied_per_commit"));
        assert!(valid_name("keyed-durable"));
        assert!(valid_name("0x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("ms"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("a b"));
        assert!(!valid_unit(&"u".repeat(17)));
    }
}

//! Order statistics, the calibration spin, and process memory.

use std::time::Instant;

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p).round() as usize]
}

/// Median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// printed here equals the one the acceptance check computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| -> f64 {
        // Quartile k of 4 sits at rank k·(n+1)/4 (1-based), interpolated
        // and clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = at(2);
    if med == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / med.abs()
    }
}

/// The highest completion rate any stretch of about `block_ns` reached:
/// the sorted completion times are cut into runs of equal *count* (as
/// many runs as `block_ns` fits into the whole, so no run is quantised
/// by where a window edge falls) and the fastest run's rate is returned.
pub fn peak_rate(done_ns: &[u64], block_ns: u64) -> f64 {
    let n = done_ns.len();
    if n < 2 {
        return 0.0;
    }
    let wall = done_ns[n - 1] - done_ns[0];
    let blocks = ((wall / block_ns.max(1)) as usize).clamp(1, n - 1);
    let per_block = (n - 1) / blocks;
    (0..blocks)
        .map(|i| {
            let wall = done_ns[(i + 1) * per_block] - done_ns[i * per_block];
            per_block as f64 / (wall.max(1) as f64 * 1e-9)
        })
        .fold(0.0, f64::max)
}

/// A fixed pure-ALU spin (a xorshift-multiply chain: every step needs
/// the one before, and no closed form exists for the optimiser to
/// find); returns its wall time in milliseconds. The same work on every
/// call, so its time tracks the machine, not the program.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..8_000_000u32 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn peak_rate_is_the_fastest_equal_count_block() {
        // 8 intervals of 10 ms, then 8 of 40 ms: 400 ms in all, two
        // 200 ms blocks of 8 intervals at 100/s and 25/s.
        let mut done: Vec<u64> = (0..9).map(|i| i * 10_000_000).collect();
        done.extend((1..9).map(|i| 80_000_000 + i * 40_000_000));
        assert!((peak_rate(&done, 200_000_000) - 100.0).abs() < 1e-9);
        // One block: the overall rate.
        assert!((peak_rate(&done, 1_000_000_000) - 40.0).abs() < 1e-9);
    }
}

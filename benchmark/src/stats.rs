//! The benchmark's own arithmetic: percentiles, sub-window medians, quartile
//! spread and open-loop due-time accounting.

/// Nearest-rank percentile of `values` (`p` in 0..=100). Zero when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Throughput as the median rate of `parts` equal sub-windows of a window
/// of `window_s` seconds. `ops` are (start, end) in seconds since the window
/// opened; an operation that straddles a boundary counts towards each side
/// in proportion to the time it spent there, so a slow workload's rate is
/// not quantized to whole operations per sub-window. One stalled sub-window
/// moves a mean but not this median.
pub fn subwindow_median_rate(ops: &[(f64, f64)], window_s: f64, parts: usize) -> f64 {
    let width = window_s / parts as f64;
    let mut per_part = vec![0.0; parts];
    for &(start, end) in ops {
        let first = ((start.max(0.0) / width) as usize).min(parts - 1);
        let last = ((end.max(0.0) / width) as usize).min(parts - 1);
        for (part, units) in per_part.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = start.max(part as f64 * width);
            let hi = end.min((part + 1) as f64 * width);
            if end > start {
                *units += (hi - lo).max(0.0) / (end - start);
            } else if start < window_s {
                *units += 1.0;
            }
        }
    }
    let rates: Vec<f64> = per_part.iter().map(|u| u / width).collect();
    median(&rates)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method). `None` below four values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    let med = median(&sorted);
    if med == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / med.abs())
}

/// One operation of an open-loop generator, in seconds since the window
/// opened: when it was due, when it was actually sent, when it completed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOp {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl OpenLoopOp {
    /// Latency from the due time: a stall charges every operation it delays.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator itself ran.
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn subwindow_median_ignores_one_stalled_part() {
        // Four 1 s parts: 10, 10, 0 (a stall), 10 operations of 0.1 s each.
        let mut ops = Vec::new();
        for part in [0.0, 1.0, 3.0] {
            ops.extend((0..10).map(|i| {
                let start = part + f64::from(i) / 10.0;
                (start, start + 0.1)
            }));
        }
        assert!((subwindow_median_rate(&ops, 4.0, 4) - 10.0).abs() < 1e-9);
        // Work past the end of the window is not counted.
        ops.push((4.5, 4.6));
        assert!((subwindow_median_rate(&ops, 4.0, 4) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn an_operation_across_a_boundary_is_shared_by_both_sides() {
        // One 1 s operation from 0.75 to 1.75: a quarter in the first part,
        // three quarters in the second.
        let ops = [(0.75, 1.75)];
        assert!((subwindow_median_rate(&ops, 2.0, 2) - 0.5).abs() < 1e-12);
        let ops = [(0.75, 1.75), (0.0, 0.5), (0.5, 0.75)];
        // Parts hold 2.25 and 0.75 operations; the median of two is their mean.
        assert!((subwindow_median_rate(&ops, 2.0, 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert!(quartile_spread(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Bulk 0 stalls for 120 ms; bulk 1 (due at 50 ms) can only be sent
        // at 120 ms and takes 10 ms: it is charged 80 ms, not 10.
        let first = OpenLoopOp {
            due: 0.0,
            sent: 0.0,
            done: 0.120,
        };
        let second = OpenLoopOp {
            due: 0.050,
            sent: 0.120,
            done: 0.130,
        };
        assert!((first.latency() - 0.120).abs() < 1e-12);
        assert!((second.latency() - 0.080).abs() < 1e-12);
        assert!((second.lateness() - 0.070).abs() < 1e-12);
        assert_eq!(first.lateness(), 0.0);
    }
}

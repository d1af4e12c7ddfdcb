//! Summary statistics, metric naming and failure accounting — the rules
//! every reported number follows, kept apart so they are unit-tested.

/// Fewest samples a run must hold before it may report a p90: with 100
/// samples, ten lie beyond the 90th percentile.
pub const MIN_P90_SAMPLES: usize = 100;

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The p90, only when there are enough samples for it to mean anything.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_P90_SAMPLES {
        None
    } else {
        percentile(samples, 90.0)
    }
}

/// Geometric mean of strictly positive values; `None` on none.
pub fn geomean(values: &[f64]) -> Option<f64> {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return None;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    Some((log_sum / positive.len() as f64).exp())
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEnd {
    /// Returned a result. Structured infeasibility verdicts (skipped
    /// design points, deadlock or unmet-constraint mapping errors,
    /// admission rejections) are results too.
    Ok,
    /// Panicked, returned an error that is not a verdict, or failed a
    /// correctness check.
    Failed,
}

/// Attempted / failed operation counts of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that failed (see [`OpEnd::Failed`]).
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, end: OpEnd) {
        self.attempted += 1;
        if end == OpEnd::Failed {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The `failed_share` metric: the failed fraction of the attempted
    /// operations, floored at [`FAILED_SHARE_FLOOR`]. Regressions are
    /// judged as ratios of medians, so a clean run must not read 0; the
    /// raw counts are reported beside it.
    pub fn failed_share(&self) -> f64 {
        (self.failed as f64 / self.attempted.max(1) as f64).max(FAILED_SHARE_FLOOR)
    }
}

/// What `failed_share` reads on a run without failures: one failure in
/// a thousand operations.
pub const FAILED_SHARE_FLOOR: f64 = 1e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(9.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough), Some(90.0));
        // Ten samples lie strictly beyond it.
        assert_eq!(enough.iter().filter(|&&x| x > 90.0).count(), 10);
        assert_eq!(median(&enough), Some(50.0));
    }

    #[test]
    fn geomean_ignores_non_positive_values() {
        let g = geomean(&[1.0, 4.0, 0.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0]), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "sweep.points_per_s", "pass.buffer-size.ms", "0x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "_x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "iter/cycle", "Mcycle/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str(), "ms!"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), FAILED_SHARE_FLOOR);
        for _ in 0..9 {
            t.record(OpEnd::Ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 9,
                failed: 0
            }
        );
        assert_eq!(t.failed_share(), FAILED_SHARE_FLOOR);
        t.record(OpEnd::Failed);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 1
            }
        );
        assert!((t.failed_share() - 0.1).abs() < 1e-12);
        let mut total = Tally::default();
        total.merge(t);
        total.merge(Tally {
            attempted: 5,
            failed: 2,
        });
        assert_eq!(
            total,
            Tally {
                attempted: 15,
                failed: 3
            }
        );
        assert!((total.failed_share() - 0.2).abs() < 1e-12);
        // One failure in a few hundred operations is a clear regression
        // against a clean run's figure.
        let one = Tally {
            attempted: 300,
            failed: 1,
        };
        assert!(one.failed_share() > 3.0 * FAILED_SHARE_FLOOR);
    }
}

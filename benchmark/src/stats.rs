//! Order statistics and the round aggregation every reported value goes
//! through: a round yields one statistic, a run reports its best round
//! (`sim_run`: the better quartile of its rounds) with the median and the
//! worst round beside it.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile (`p` in 0..=100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive (a zero latency is a measurement bug, not a
/// fast row).
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The three quartiles of `xs`, as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the contract's spread is defined on those); a single value
/// is all three. `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => Some([1, 2, 3].map(|i| {
            // Cut point i of 4 at position i·(n+1)/4, counted from 1,
            // interpolated between its neighbours.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        })),
    }
}

/// A run's per-round statistics and the value reported for them (see
/// [`Report`]); the best, the median and the worst round are kept beside
/// the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// The reported value.
    pub value: f64,
    /// Best round.
    pub best: f64,
    /// Median over rounds.
    pub median: f64,
    /// Worst round.
    pub worst: f64,
    /// Distance between the rounds' outer quartiles as a share of their
    /// median: how far this run's rounds disagree among themselves.
    pub spread: f64,
    /// The per-round statistics, in round order.
    pub samples: Vec<f64>,
    lower_is_better: bool,
}

/// Which of a run's samples is the reported value.
///
/// Rounds are short, and what disturbs one on a shared host — a co-tenant
/// on the sibling hyperthread, measured at 1.4–2× for seconds at a time —
/// only ever adds time, so the median over rounds flips between two modes
/// from run to run while the best round repeats (README, sizing facts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// The best sample: rounds of a workload whose process is pinned to
    /// one CPU, and set-ups, where nothing can make one faster than the
    /// program is. (And single readings.)
    Best,
    /// The better quartile: timings of `sim_run`, where a round in which
    /// the scheduler happened to pack the simulator's threads on one CPU
    /// reads up to 2× *faster* than the rest. Holds as long as a quarter
    /// of the rounds ran undisturbed and fewer than a quarter were lucky.
    Quartile,
}

impl Agg {
    /// Aggregate per-round statistics; `None` when there are no rounds.
    pub fn over(samples: Vec<f64>, lower_is_better: bool, report: Report) -> Option<Agg> {
        let [q1, median, q3] = quartiles(&samples)?;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // With two rounds the cut points lie outside them: no reported
        // value is better than the best round.
        let (best, better_quartile, worst) = if lower_is_better {
            (min, q1.max(min), max)
        } else {
            (max, q3.min(max), min)
        };
        Some(Agg {
            value: match report {
                Report::Best => best,
                Report::Quartile => better_quartile,
            },
            best,
            median,
            worst,
            spread: if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            },
            samples,
            lower_is_better,
        })
    }

    /// Does every round of `self` read better than every round of `other`?
    pub fn all_better_than(&self, other: &Agg) -> bool {
        if self.lower_is_better {
            self.worst < other.best
        } else {
            self.worst > other.best
        }
    }
}

/// Latencies of one round (or one traced run), grouped by row.
#[derive(Debug, Clone, Default)]
pub struct RowSamples {
    /// `by_row[r]` holds row `r`'s op latencies in microseconds.
    pub by_row: Vec<Vec<f64>>,
}

impl RowSamples {
    /// Empty sample set over `rows` rows.
    pub fn new(rows: usize) -> RowSamples {
        RowSamples {
            by_row: vec![Vec::new(); rows],
        }
    }

    /// Record one op.
    pub fn push(&mut self, row: usize, us: f64) {
        self.by_row[row].push(us);
    }

    /// Ops recorded.
    pub fn ops(&self) -> usize {
        self.by_row.iter().map(Vec::len).sum()
    }

    /// Sum of all latencies, microseconds.
    pub fn total_us(&self) -> f64 {
        self.by_row.iter().flatten().sum()
    }

    /// Per-row medians (rows without samples are skipped).
    pub fn row_medians(&self) -> Vec<Option<f64>> {
        self.by_row.iter().map(|r| median(r)).collect()
    }

    /// `verdict_p50_us`: geometric mean over rows of each row's median.
    pub fn verdict_p50_us(&self) -> Option<f64> {
        let meds: Vec<f64> = self.row_medians().into_iter().flatten().collect();
        gmean(&meds)
    }

    /// `ops_per_s`: ops completed per second of op time (closed loop,
    /// zero think time — the benchmark's own checking is not counted).
    pub fn ops_per_s(&self) -> Option<f64> {
        let t = self.total_us();
        (t > 0.0).then(|| self.ops() as f64 / (t / 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn gmean_of_ratios() {
        let g = gmean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), None);
        assert_eq!(gmean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quartiles_are_pythons() {
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[30.0, 10.0, 50.0, 20.0, 40.0]),
            Some([15.0, 30.0, 45.0])
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn round_aggregation_reports_the_round_asked_for() {
        let best = Agg::over(vec![10.0, 30.0, 20.0], true, Report::Best).unwrap();
        assert_eq!((best.value, best.median, best.worst), (10.0, 20.0, 30.0));
        let best = Agg::over(vec![10.0, 30.0, 20.0], false, Report::Best).unwrap();
        assert_eq!((best.value, best.median, best.worst), (30.0, 20.0, 10.0));
        let over = |v: Vec<f64>, lower| Agg::over(v, lower, Report::Quartile);
        let lat = over(vec![10.0, 30.0, 20.0, 50.0, 40.0], true).unwrap();
        assert_eq!(
            (lat.value, lat.best, lat.median, lat.worst),
            (15.0, 10.0, 30.0, 50.0)
        );
        assert!((lat.spread - 1.0).abs() < 1e-12); // (45 - 15) / 30
        let rate = over(vec![10.0, 30.0, 20.0, 50.0, 40.0], false).unwrap();
        assert_eq!(
            (rate.value, rate.best, rate.median, rate.worst),
            (45.0, 50.0, 30.0, 10.0)
        );
        assert_eq!(over(vec![], true), None);
        // One round (`--smoke`): it is every statistic, and nothing spreads.
        let one = over(vec![7.0], true).unwrap();
        assert_eq!(
            (one.value, one.best, one.worst, one.spread),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn all_better_than_needs_disjoint_rounds() {
        let over = |v: &[f64], lower| Agg::over(v.to_vec(), lower, Report::Quartile).unwrap();
        let slow = over(&[100.0, 130.0, 80.0], true);
        assert!(over(&[70.0, 75.0], true).all_better_than(&slow));
        assert!(!over(&[70.0, 85.0], true).all_better_than(&slow));
        let rate = over(&[100.0, 130.0], false);
        assert!(over(&[140.0, 131.0], false).all_better_than(&rate));
    }

    #[test]
    fn row_samples_aggregate_per_row_then_gmean() {
        let mut s = RowSamples::new(3);
        for us in [1.0, 2.0, 3.0] {
            s.push(0, us);
        }
        s.push(1, 8.0);
        // Row 2 never ran: skipped, not counted as zero.
        assert_eq!(s.row_medians(), vec![Some(2.0), Some(8.0), None]);
        assert!((s.verdict_p50_us().unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(s.ops(), 4);
        // 4 ops in 14 µs of op time.
        assert!((s.ops_per_s().unwrap() - 4.0 / 14e-6).abs() < 1e-3);
        assert_eq!(RowSamples::new(1).ops_per_s(), None);
    }
}

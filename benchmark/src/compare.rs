//! `compare A.json B.json`: one row per (end-to-end metric, workload) of
//! two result files written by `all` — A the baseline, B the candidate.

use crate::jsonio::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_SHARE, WORKLOADS};
use crate::stats::Agg;

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// B reads better by more than the bound, or every round of B beats
    /// every round of A.
    Better,
    /// B's reported value, or its median round, is worse than A's by more
    /// than the bound.
    Regression,
    /// On one side the rounds disagree among themselves by more than the
    /// bound (quartile distance / median) and the sides overlap: the data
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(m: &EndToEnd, a: &Agg, b: &Agg) -> Verdict {
    // The median round too: a slowdown that sets in after the first
    // rounds (a leak, a cache that fills) leaves the best round alone.
    let pairs = [(a.value, b.value), (a.median, b.median)];
    // Under the floor nothing moved, however the samples scatter.
    if pairs.iter().all(|&(x, y)| (y - x).abs() <= m.floor) {
        return Verdict::Ok;
    }
    let worse = worse_by(m, a.value, b.value);
    let regressed = pairs
        .iter()
        .any(|&(x, y)| worse_by(m, x, y) > m.bound && (y - x).abs() > m.floor);
    if a.spread.max(b.spread) > m.bound {
        if b.all_better_than(a) {
            Verdict::Better
        } else if a.all_better_than(b) && regressed {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if regressed {
        Verdict::Regression
    } else if -worse > m.bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn agg_of(doc: &Json, workload: &str, m: &EndToEnd) -> Option<Agg> {
    let entry = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(m.name)?;
    let samples = entry
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Agg::over(samples, m.better == Better::Lower, m.report_on(workload))
}

fn failed_share(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted")?.as_f64()?;
    (attempted > 0.0).then(|| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0) / attempted)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    jsonio::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// What `all` was asked for and ran on. Values measured under different
/// settings do not compare: set-up time and the corpora depend on the
/// seed, the number of rounds on the seconds, the simulator workloads on
/// the CPUs.
const SETTINGS: [&str; 5] = ["schema", "seed", "seconds", "smoke", "cpus"];

fn same_settings(a: &Json, b: &Json) -> Result<(), String> {
    for key in SETTINGS {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            let show = |v: Option<&Json>| v.map_or("nothing".to_string(), Json::to_line);
            return Err(format!(
                "the files were not made with the same settings: `{key}` is {} in A and {} in B",
                show(x),
                show(y)
            ));
        }
    }
    Ok(())
}

/// Print the table; `Ok(true)` when no pair regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    same_settings(&a, &b)?;
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B vs A", "medians", "spread A", "spread B", "bound"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (agg_of(&a, workload, m), agg_of(&b, workload, m)) else {
                return Err(format!(
                    "{workload}/{}: missing from one of the files",
                    m.name
                ));
            };
            let v = judge(m, &x, &y);
            clean &= v != Verdict::Regression;
            println!(
                "{:<14} {:<15} {:>12.4} {:>12.4} {:>+7.1}% {:>+7.1}% {:>8.1}% {:>8.1}% {:>5.0}%  {}",
                workload,
                m.name,
                x.value,
                y.value,
                (y.value / x.value - 1.0) * 100.0,
                (y.median / x.median - 1.0) * 100.0,
                x.spread * 100.0,
                y.spread * 100.0,
                m.bound * 100.0,
                v.name()
            );
        }
        let (Some(x), Some(y)) = (failed_share(&a, workload), failed_share(&b, workload)) else {
            return Err(format!(
                "{workload}/{FAILED_SHARE}: missing from one of the files"
            ));
        };
        // Bound 0: any increase fails.
        let v = if y > x {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        clean &= v != Verdict::Regression;
        println!(
            "{:<14} {:<15} {:>12.6} {:>12.6} {:>8} {:>8} {:>9} {:>9} {:>5.0}%  {}",
            workload,
            FAILED_SHARE,
            x,
            y,
            "",
            "",
            "",
            "",
            0.0,
            v.name()
        );
    }
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION — see the rows above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn agg(m: &EndToEnd, xs: &[f64]) -> Agg {
        Agg::over(
            xs.to_vec(),
            m.better == Better::Lower,
            m.report_on("cold_check"),
        )
        .unwrap()
    }

    /// Five rounds within 1 % of `centre`.
    fn tight(m: &EndToEnd, centre: f64) -> Agg {
        let rounds: Vec<f64> = [0.99, 0.995, 1.0, 1.005, 1.01]
            .iter()
            .map(|f| f * centre)
            .collect();
        agg(m, &rounds)
    }

    #[test]
    fn resolved_sides_compare_against_the_bound() {
        let lat = end_to_end("verdict_p50_us").unwrap(); // lower is better
        let (inside, outside) = (1.0 + lat.bound / 2.0, 1.0 + lat.bound * 2.0);
        let a = tight(lat, 100.0);
        assert_eq!(judge(lat, &a, &tight(lat, 100.0 * inside)), Verdict::Ok);
        assert_eq!(
            judge(lat, &a, &tight(lat, 100.0 * outside)),
            Verdict::Regression
        );
        assert_eq!(
            judge(lat, &a, &tight(lat, 100.0 / outside)),
            Verdict::Better
        );
        let rate = end_to_end("ops_per_s").unwrap(); // higher is better
        let outside = 1.0 + rate.bound * 2.0;
        let a = tight(rate, 100.0);
        assert_eq!(
            judge(rate, &a, &tight(rate, 100.0 / outside)),
            Verdict::Regression
        );
        assert_eq!(
            judge(rate, &a, &tight(rate, 100.0 * outside)),
            Verdict::Better
        );
    }

    #[test]
    fn a_slow_median_round_is_a_regression_too() {
        let lat = end_to_end("verdict_p50_us").unwrap();
        let a = agg(lat, &[100.0; 12]);
        // The first third of B's rounds read as A's, the rest slower by
        // twice the bound: the best round does not move, the median does.
        let slow = 100.0 * (1.0 + lat.bound * 2.0);
        let mut rounds = vec![100.0; 4];
        rounds.extend([slow; 8]);
        let b = agg(lat, &rounds);
        assert_eq!(b.value, 100.0);
        assert_eq!(b.median, slow);
        // B's rounds spread wider than the bound and overlap A's: flagged,
        // not passed.
        assert_eq!(judge(lat, &a, &b), Verdict::Unresolved);
        // A step small enough to leave the rounds within the bound of one
        // another, yet past it on the median.
        let step = 100.0 * (1.0 + lat.bound * 1.05);
        let mut rounds = vec![100.0; 4];
        rounds.extend([step; 8]);
        let b = agg(lat, &rounds);
        assert_eq!((b.value, b.median), (100.0, step));
        assert!(b.spread <= lat.bound, "{}", b.spread);
        assert_eq!(judge(lat, &a, &b), Verdict::Regression);
    }

    #[test]
    fn unresolved_unless_the_sides_separate() {
        let lat = end_to_end("verdict_p50_us").unwrap();
        // Rounds from 80 to 130: they disagree by more than any bound.
        let noisy = agg(lat, &[100.0, 130.0, 80.0, 120.0, 90.0]);
        assert!(noisy.spread > lat.bound);
        // Overlapping rounds: cannot tell, though the value moved.
        assert_eq!(
            judge(lat, &noisy, &agg(lat, &[120.0, 125.0, 118.0])),
            Verdict::Unresolved
        );
        // Every round of B above every round of A, and past the bound.
        assert_eq!(
            judge(lat, &noisy, &agg(lat, &[140.0, 150.0, 135.0])),
            Verdict::Regression
        );
        // Every round of B below every round of A.
        assert_eq!(
            judge(lat, &noisy, &agg(lat, &[70.0, 75.0, 60.0])),
            Verdict::Better
        );
    }

    #[test]
    fn files_made_with_other_settings_do_not_compare() {
        let doc = |seed: f64| {
            Json::obj([
                ("schema", Json::Num(2.0)),
                ("seed", Json::Num(seed)),
                ("seconds", Json::Num(15.0)),
                ("smoke", Json::Bool(false)),
                ("cpus", Json::Num(2.0)),
            ])
        };
        assert_eq!(same_settings(&doc(42.0), &doc(42.0)), Ok(()));
        let err = same_settings(&doc(42.0), &doc(7.0)).unwrap_err();
        assert!(err.contains("`seed` is 42 in A and 7 in B"), "{err}");
        // A file that does not say.
        let silent = Json::obj([("schema", Json::Num(2.0))]);
        assert!(same_settings(&silent, &doc(42.0)).is_err());
    }

    #[test]
    fn setup_compares_with_an_absolute_floor() {
        let setup = end_to_end("setup_s").unwrap();
        // +100 %, but 10 ms: under the 50 ms floor, however the set-ups
        // scatter.
        assert_eq!(
            judge(setup, &agg(setup, &[0.010]), &agg(setup, &[0.020])),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                setup,
                &agg(setup, &[0.010, 0.030, 0.012, 0.011]),
                &agg(setup, &[0.020, 0.021, 0.040, 0.022])
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &agg(setup, &[1.0]), &agg(setup, &[1.5])),
            Verdict::Regression
        );
        // The best of the set-ups, as of the rounds.
        assert_eq!(agg(setup, &[2.0, 3.0, 1.0]).value, 1.0);
    }
}

//! Percentiles, quartile spreads and the two-set comparison behind
//! `e2e --compare`.

use crate::wire::{as_f64, as_str, at, parse_json};
use serde::JsonValue;
use std::collections::BTreeMap;

/// Percentiles the benchmark reports, with the fewest samples each needs
/// so that at least ten samples lie beyond it.
const MIN_SAMPLES: [(u32, usize); 3] = [(50, 1), (95, 200), (99, 1010)];

/// Nearest-rank percentile `p` of `samples`; `None` when there are too
/// few samples to report it (see [`MIN_SAMPLES`]).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let &(_, need) = MIN_SAMPLES.iter().find(|(q, _)| *q == p)?;
    if samples.len() < need {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = parse_json(benchmark_json)?;
    let Some(JsonValue::Array(items)) = at(&v, &["end_to_end"]) else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            Some(Bound {
                name: as_str(at(m, &["name"])?)?.to_string(),
                lower_is_better: as_str(at(m, &["better"])?)? == "lower",
                bound: as_f64(at(m, &["bound"])?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".into())
}

/// The end-to-end results of a set of runs, grouped by workload: metric
/// values across runs, and whether every run was taken on enough cores
/// to be gated on.
#[derive(Default)]
pub struct RunSet {
    pub workloads: BTreeMap<String, (bool, BTreeMap<String, Vec<f64>>)>,
}

impl RunSet {
    /// Parse a record file: one `e2e` result object per line; traced runs
    /// carry per-layer metrics and are skipped.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse_json(line)?;
            if at(&v, &["e2e"]).and_then(as_str) != Some("run") {
                continue;
            }
            let workload = at(&v, &["workload"])
                .and_then(as_str)
                .ok_or("record without workload")?;
            let gated = matches!(at(&v, &["gated"]), Some(JsonValue::Bool(true)));
            let Some(JsonValue::Object(metrics)) = at(&v, &["metrics"]) else {
                return Err(format!("record without metrics: {line}"));
            };
            let entry = set
                .workloads
                .entry(workload.to_string())
                .or_insert((true, BTreeMap::new()));
            entry.0 &= gated;
            for (name, value) in metrics {
                if let Some(x) = as_f64(value) {
                    entry.1.entry(name.clone()).or_default().push(x);
                }
            }
        }
        Ok(set)
    }
}

/// How set `b` compares with set `a` on one metric.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound, gated: bool) -> String {
    if a.is_empty() || b.is_empty() {
        return "unresolved (missing runs)".into();
    }
    if !gated {
        return "unresolved (a run had fewer than 2 cores)".into();
    }
    // Positive means `b` is worse than `a`.
    let worse = |x: f64, y: f64| {
        if bound.lower_is_better {
            y - x
        } else {
            x - y
        }
    };
    let (ma, mb) = (median(a), median(b));
    let change = worse(ma, mb) / ma.abs();
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) < 0.0));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) > 0.0));
    let noisy = spread(a).max(spread(b));
    if noisy > bound.bound {
        return if all_better {
            "better".into()
        } else if all_worse {
            "worse".into()
        } else {
            format!("unresolved (spread {noisy:.3} > bound {})", bound.bound)
        };
    }
    if change > bound.bound {
        "worse".into()
    } else if change < -bound.bound {
        "better".into()
    } else {
        "within bound".into()
    }
}

/// The `--compare` report: one line per (workload, metric) pair.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> String {
    let mut out = format!(
        "{:<16} {:<10} {:>12} {:>12} {:>8}  verdict\n",
        "workload", "metric", "median A", "median B", "change"
    );
    let names: std::collections::BTreeSet<&String> =
        a.workloads.keys().chain(b.workloads.keys()).collect();
    let empty = (true, BTreeMap::new());
    for w in names {
        let (ga, ma) = a.workloads.get(w).unwrap_or(&empty);
        let (gb, mb) = b.workloads.get(w).unwrap_or(&empty);
        for bound in bounds {
            let none = Vec::new();
            let va = ma.get(&bound.name).unwrap_or(&none);
            let vb = mb.get(&bound.name).unwrap_or(&none);
            let (xa, xb) = (median(va), median(vb));
            out.push_str(&format!(
                "{:<16} {:<10} {:>12.4} {:>12.4} {:>7.1}%  {}\n",
                w,
                bound.name,
                xa,
                xb,
                (xb - xa) / xa.abs() * 100.0,
                verdict(va, vb, bound, *ga && *gb)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let s: Vec<f64> = (1..=1009).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), None);
        let s: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), Some(1000.0));
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&s, 95), None);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95), Some(190.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&s, 90), None, "unlisted percentile");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let lower = Bound {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound: 0.10,
        };
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, &lower, true), "within bound");
        let slow: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slow, &lower, true), "worse");
        let fast: Vec<f64> = a.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(&a, &fast, &lower, true), "better");
        assert!(verdict(&a, &a, &lower, false).starts_with("unresolved"));
        let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert!(verdict(&a, &noisy, &lower, true).starts_with("unresolved"));
    }
}

//! `--compare A.jsonl B.jsonl`: reads the benchmark's JSON records from two
//! files (A the base, B the change), groups them by workload, and prints for
//! each metric the median and quartiles of each side plus one verdict from
//! `BENCHMARK.json`'s direction and bound. It also flags any workload whose
//! `result_digest` differs between or within the sides.

use crate::json::{Json, MetricSpec, Spec};
use crate::stats::{median, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Absolute floors under `BENCHMARK.json`'s relative bounds, for metrics
/// whose regression budget is fixed in their own unit: a change may move
/// them by this much regardless of how small the base median is.
const ABS_FLOORS: [(&str, f64); 4] = [
    ("setup_s", 0.05),
    ("energy_norm", 0.005),
    ("ipc_norm", 0.005),
    ("accuracy_pct", 0.1),
];

/// Metrics with zero tolerance, whatever `BENCHMARK.json`'s bound: a
/// healthy run reads the same every time, so any drop of the worst run is
/// a regression. One failed operation among thousands must not pass as
/// noise.
const EXACT: [&str; 1] = ["ok_frac"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// A side's interquartile spread is wider than the bound, so a
    /// difference of the medians cannot be told from noise.
    Unresolved,
}

/// The verdict on metric `m` going from samples `a` to samples `b`; `None`
/// for a metric without a bound (the per-layer metrics).
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let floor = ABS_FLOORS
        .iter()
        .find(|(n, _)| *n == m.name)
        .map_or(0.0, |&(_, f)| f);
    let bound = (m.bound? * median(a).abs()).max(floor);
    // How much worse `y` reads than `x`; negative when better.
    let worse_by = |x: f64, y: f64| if m.higher_is_better { x - y } else { y - x };
    if EXACT.contains(&m.name.as_str()) {
        let worst = |v: &[f64]| {
            v.iter()
                .copied()
                .reduce(|x, y| if worse_by(x, y) > 0.0 { y } else { x })
                .unwrap_or(f64::NAN)
        };
        let d = worse_by(worst(a), worst(b));
        return Some(if d > 0.0 {
            Verdict::Worse
        } else if d < 0.0 {
            Verdict::Better
        } else {
            Verdict::Unchanged
        });
    }
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    if spread(a) > bound || spread(b) > bound {
        let all_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
        return Some(if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        });
    }
    let d = worse_by(median(a), median(b));
    Some(if d > bound {
        Verdict::Worse
    } else if d < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    })
}

/// One side's records: samples per `(workload, metric)` and the result
/// digests seen per workload.
#[derive(Debug, Default)]
struct Side {
    samples: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<String, BTreeSet<String>>,
}

impl Side {
    /// Reads every benchmark record in a JSONL text; other lines (such as
    /// the result summary line) are skipped.
    fn parse(text: &str) -> Side {
        let mut side = Side::default();
        for rec in text.lines().filter_map(|l| Json::parse(l).ok()) {
            let Some(w) = rec.get("workload").and_then(Json::as_str) else {
                continue;
            };
            for group in ["metrics", "layers"] {
                for (k, v) in rec.get(group).and_then(Json::as_obj).unwrap_or_default() {
                    if let Some(x) = v.as_f64() {
                        side.samples
                            .entry((w.to_string(), k.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
            if let Some(d) = rec.get("result_digest").and_then(Json::as_str) {
                side.digests
                    .entry(w.to_string())
                    .or_default()
                    .insert(d.to_string());
            }
        }
        side
    }
}

/// Workloads whose result digests are not all one value across both sides.
fn digest_mismatches(a: &Side, b: &Side) -> Vec<String> {
    let workloads: BTreeSet<&String> = a.digests.keys().chain(b.digests.keys()).collect();
    workloads
        .into_iter()
        .filter(|w| {
            let all: BTreeSet<_> = a
                .digests
                .get(*w)
                .into_iter()
                .chain(b.digests.get(*w))
                .flatten()
                .collect();
            all.len() > 1
        })
        .cloned()
        .collect()
}

fn fmt_side(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len())
}

/// Prints the comparison; returns exit code 1 when any metric got worse or
/// a result digest differs, 0 otherwise.
pub fn run(spec: &Spec, a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (a, b) = (Side::parse(&read(a_path)?), Side::parse(&read(b_path)?));
    let workloads: BTreeSet<&String> = a.samples.keys().map(|(w, _)| w).collect();
    let mut failing = false;
    println!(
        "{:<11} {:<28} {:<48} {:<48} {:>9} verdict",
        "workload", "metric", "A median [p25, p75]", "B median [p25, p75]", "change"
    );
    for w in workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (w.clone(), m.name.clone());
            let (Some(sa), Some(sb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                continue;
            };
            let v = verdict(m, sa, sb);
            failing |= v == Some(Verdict::Worse);
            let base = median(sa);
            let change = if base == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (median(sb) / base - 1.0))
            };
            let v = v.map_or("-".to_string(), |v| format!("{v:?}").to_lowercase());
            println!(
                "{w:<11} {:<28} {:<48} {:<48} {change:>9} {v}",
                m.name,
                fmt_side(sa),
                fmt_side(sb)
            );
        }
    }
    for w in digest_mismatches(&a, &b) {
        failing = true;
        println!(
            "{w}: result_digest mismatch: A {:?} B {:?}",
            a.digests.get(&w),
            b.digests.get(&w)
        );
    }
    Ok(i32::from(failing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "x".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn relative_bound_separates_regressions_from_noise() {
        let wall = metric("wall_s", false, Some(0.10));
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.15, 1.16, 1.14, 1.15, 1.17];
        assert_eq!(verdict(&wall, &base, &slower), Some(Verdict::Worse));
        assert_eq!(
            verdict(&wall, &base, &[1.05, 1.06, 1.04, 1.05, 1.07]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(verdict(&wall, &slower, &base), Some(Verdict::Better));
        // Direction matters: for a higher-is-better metric the same drop is
        // a regression.
        let rate = metric("sim_minst_per_s", true, Some(0.10));
        assert_eq!(verdict(&rate, &slower, &base), Some(Verdict::Worse));
    }

    #[test]
    fn absolute_floor_overrides_a_small_relative_bound() {
        // setup_s: 25% of 0.1 s is 0.025 s, but the floor allows 0.05 s.
        let setup = metric("setup_s", false, Some(0.25));
        assert_eq!(
            verdict(&setup, &[0.10; 5], &[0.14; 5]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            verdict(&setup, &[0.10; 5], &[0.16; 5]),
            Some(Verdict::Worse)
        );
        // energy_norm may rise by 0.005 in absolute terms.
        let energy = metric("energy_norm", false, Some(0.005));
        assert_eq!(
            verdict(&energy, &[0.929; 5], &[0.933; 5]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            verdict(&energy, &[0.929; 5], &[0.935; 5]),
            Some(Verdict::Worse)
        );
    }

    #[test]
    fn any_failed_operation_is_worse() {
        // About one fig12-warm run: ~50 passes of 77 cells.
        let one_failed = 1.0 - 1.0 / 3850.0;
        let ok = metric("ok_frac", true, Some(0.001));
        let healthy = [1.0; 5];
        // One failure in one run of five leaves the median at 1.
        let flaky = [1.0, 1.0, one_failed, 1.0, 1.0];
        assert_eq!(verdict(&ok, &healthy, &flaky), Some(Verdict::Worse));
        assert_eq!(
            verdict(&ok, &healthy, &[one_failed; 5]),
            Some(Verdict::Worse)
        );
        assert_eq!(verdict(&ok, &healthy, &healthy), Some(Verdict::Unchanged));
        assert_eq!(verdict(&ok, &flaky, &healthy), Some(Verdict::Better));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wall = metric("wall_s", false, Some(0.10));
        let noisy = [1.0, 1.3, 0.8, 1.25, 0.85];
        assert_eq!(verdict(&wall, &noisy, &[1.1; 5]), Some(Verdict::Unresolved));
        assert_eq!(verdict(&wall, &[1.0; 5], &noisy), Some(Verdict::Unresolved));
        assert_eq!(
            verdict(&wall, &noisy, &[0.5, 0.6, 0.7, 0.5, 0.6]),
            Some(Verdict::Better)
        );
        // Per-layer metrics carry no bound and get no verdict.
        assert_eq!(
            verdict(&metric("gpu.slice_s", false, None), &[1.0], &[2.0]),
            None
        );
    }

    #[test]
    fn records_group_by_workload_and_digests_are_checked() {
        let a = Side::parse(concat!(
            r#"{"workload":"sla-long","metrics":{"wall_s":1.0},"layers":{},"result_digest":"aa"}"#,
            "\n",
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.0,"unit":"s"}}}"#,
            "\n",
            r#"{"workload":"sla-long","metrics":{"wall_s":1.2},"layers":{},"result_digest":"aa"}"#,
            "\n",
        ));
        let key = ("sla-long".to_string(), "wall_s".to_string());
        assert_eq!(a.samples[&key], vec![1.0, 1.2]);
        let same = Side::parse(r#"{"workload":"sla-long","metrics":{},"result_digest":"aa"}"#);
        let other = Side::parse(r#"{"workload":"sla-long","metrics":{},"result_digest":"bb"}"#);
        assert!(digest_mismatches(&a, &same).is_empty());
        assert_eq!(digest_mismatches(&a, &other), vec!["sla-long".to_string()]);
    }
}

//! Printing a run, merging runs into `BENCH.json`, and diffing two of
//! those.
//!
//! `BENCH.json` is the machine-readable record every performance claim
//! cites: per workload, the end-to-end metrics of the untraced run and
//! the per-layer metrics of the traced run, each with its unit and the
//! number of rounds behind it. `perf/baseline/BENCH_<pr>.json` are
//! committed copies.

use std::path::Path;

use crate::harness::RunResult;
use crate::json::{self, Json};
use crate::metrics::{Better, ADVISORY, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// Prints every metric of `r` by name with its unit and n, then — as the
/// last line — the driver's result object.
pub fn print_run(r: &RunResult) {
    let o = &r.opts;
    println!(
        "# workload={} seed={} trace={} n={} rounds setups={} attempted={} failed={} failed_share={} sim_cost_s={}",
        o.workload,
        o.seed,
        u8::from(o.trace),
        r.n,
        r.setups,
        r.attempted,
        r.failed,
        r.failed_share(),
        r.sim_cost_s,
    );
    let metrics = if o.trace {
        r.values.per_layer_json()
    } else {
        r.values.end_to_end_json()
    };
    let line = |name: &str, m: &Json, note: &str| {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<44} {value:>18.6} {unit:<6} n={}{note}", r.n);
    };
    for (name, m) in metrics.as_obj().unwrap_or_default() {
        line(name, m, "");
    }
    if !o.trace {
        let note = format!(
            "  (advisory; n={} supports p{} by the ten-samples-beyond rule)",
            r.n,
            stats::tail_percentile(r.n)
        );
        for (name, m) in r.values.advisory_json().as_obj().unwrap_or_default() {
            line(name, m, &note);
        }
    }
    if let Some(e) = &r.error {
        println!("# FAILED: {e}");
    }
    println!("{}", r.contract_json().render());
}

/// Folds the per-run records in `dir` (`<workload>.trace<0|1>.json`)
/// into one `BENCH.json` value.
pub fn merge(dir: &Path) -> Result<Json, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds) = (Json::Null, Json::Null);
    for (name, _) in WORKLOADS {
        let mut entry = Vec::new();
        for (key, trace) in [("end_to_end", 0), ("per_layer", 1)] {
            let path = dir.join(format!("{name}.trace{trace}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let rec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if rec.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{}: the run was not correct", path.display()));
            }
            seed = rec.get("seed").cloned().unwrap_or(Json::Null);
            seconds = rec.get("seconds").cloned().unwrap_or(Json::Null);
            let keep = [
                "n",
                "setups",
                "attempted",
                "failed",
                "failed_share",
                "sim_cost_s",
                "metrics",
                // Only the untraced record has one.
                "advisory",
            ];
            entry.push((
                key.to_owned(),
                Json::Obj(
                    keep.iter()
                        .filter_map(|k| rec.get(k).map(|v| ((*k).to_owned(), v.clone())))
                        .collect(),
                ),
            ));
        }
        workloads.push((name.to_owned(), Json::Obj(entry)));
    }
    Ok(Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seed", seed),
        ("run_seconds", seconds),
        ("client_threads", Json::Num(1.0)),
        (
            "available_parallelism",
            Json::Num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as f64,
            ),
        ),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// Spread of every end-to-end metric over the untraced runs found under
/// `dir/<anything>/<workload>.trace0.json` (one sub-directory per seed):
/// the driver's acceptance rule, run locally, against the driver's bounds.
/// Returns the table and whether any spread exceeds its bound — except
/// `setup_s`'s, which the driver judges by its medians only; the table
/// says so where it applies.
pub fn spread(dir: &Path) -> Result<(String, bool), String> {
    let mut subdirs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    let mut out = format!(
        "{:<15} {:<14} {:>4} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "runs", "median", "spread", "bound", "flag"
    );
    let mut bad = false;
    for (workload, _) in WORKLOADS {
        let runs: Vec<Json> = subdirs
            .iter()
            .filter_map(|d| std::fs::read_to_string(d.join(format!("{workload}.trace0.json"))).ok())
            .filter_map(|t| json::parse(&t).ok())
            .collect();
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            let Some(s) = stats::quartile_spread(&values) else {
                return Err(format!(
                    "{workload}: fewer than two runs under {}",
                    dir.display()
                ));
            };
            let exempt = m.name == "setup_s";
            bad |= s > m.bound && !exempt;
            let flag = if s > m.bound && exempt {
                "over bound (not counted: the driver exempts setup_s's spread)"
            } else if s > m.bound {
                "OVER-BOUND"
            } else if s > m.bound / 3.0 {
                "above a third of the bound"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<15} {:<14} {:>4} {:>14.4} {:>8.2}% {:>6.0}%  {}\n",
                workload,
                m.name,
                values.len(),
                stats::median(&values),
                s * 100.0,
                m.bound * 100.0,
                flag
            ));
        }
    }
    out.push_str("spread = (Q3 - Q1) / median over the runs, quartiles as Python's statistics.quantiles(n=4)\n");
    Ok((out, bad))
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Value in the first file — the base of the ratio.
    pub base: f64,
    /// Value in the second file.
    pub new: f64,
    /// How much worse the second is, as a share of the base (negative =
    /// better), judged by the metric's direction.
    pub worse_by: f64,
    /// The end-to-end bound, if the metric has one.
    pub bound: Option<f64>,
    /// The metric must repeat exactly and did not.
    pub exact_mismatch: bool,
}

impl DiffRow {
    /// Second ÷ first.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }

    /// Worse than the bound allows.
    pub fn over_bound(&self) -> bool {
        self.bound.is_some_and(|b| self.worse_by > b)
    }

    /// Apart by more than the bound in either direction: what a
    /// repeatability check asks of two runs of the same code.
    pub fn apart(&self) -> bool {
        self.bound.is_some_and(|b| self.worse_by.abs() > b)
    }
}

fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// `workloads.<workload>.<section>.<group>.<name>.value` of a `BENCH.json`.
fn metric_value(
    bench: &Json,
    workload: &str,
    section: &str,
    group: &str,
    name: &str,
) -> Option<f64> {
    bench
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares two `BENCH.json` values metric by metric. Exactness of the
/// must-repeat metrics is only judged when both files ran the same seed.
pub fn diff(a: &Json, b: &Json) -> Vec<DiffRow> {
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            if let (Some(x), Some(y)) = (
                metric_value(a, workload, "end_to_end", "metrics", m.name),
                metric_value(b, workload, "end_to_end", "metrics", m.name),
            ) {
                rows.push(DiffRow {
                    workload: workload.to_owned(),
                    metric: m.name.to_owned(),
                    unit: m.unit.to_owned(),
                    base: x,
                    new: y,
                    worse_by: worse_by(x, y, m.better),
                    bound: Some(m.bound_on(workload)),
                    exact_mismatch: false,
                });
            }
        }
        for m in ADVISORY {
            if let (Some(x), Some(y)) = (
                metric_value(a, workload, "end_to_end", "advisory", m.name),
                metric_value(b, workload, "end_to_end", "advisory", m.name),
            ) {
                rows.push(DiffRow {
                    workload: workload.to_owned(),
                    metric: m.name.to_owned(),
                    unit: m.unit.to_owned(),
                    base: x,
                    new: y,
                    worse_by: worse_by(x, y, m.better),
                    bound: None,
                    exact_mismatch: false,
                });
            }
        }
        for m in PER_LAYER {
            if let (Some(x), Some(y)) = (
                metric_value(a, workload, "per_layer", "metrics", m.name),
                metric_value(b, workload, "per_layer", "metrics", m.name),
            ) {
                if x == 0.0 && y == 0.0 {
                    continue; // not measured on this workload
                }
                rows.push(DiffRow {
                    workload: workload.to_owned(),
                    metric: m.name.to_owned(),
                    unit: m.unit.to_owned(),
                    base: x,
                    new: y,
                    worse_by: worse_by(x, y, m.better),
                    bound: None,
                    exact_mismatch: same_seed && m.exact() && x.to_bits() != y.to_bits(),
                });
            }
        }
    }
    rows
}

/// Renders a diff as a table; returns whether any row is over its bound
/// or breaks exactness. `same_code` is the repeatability check: the two
/// files are runs of one program, so a difference beyond the bound counts
/// in either direction.
pub fn render_diff(rows: &[DiffRow], same_code: bool) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    out.push_str(&format!(
        "{:<15} {:<42} {:>16} {:>16} {:>8} {:>9}  {}\n",
        "workload", "metric", "base", "new", "ratio", "worse_by", "flag"
    ));
    for r in rows {
        let flag = if r.exact_mismatch {
            bad = true;
            "EXACT-MISMATCH".to_owned()
        } else if r.over_bound() || (same_code && r.apart()) {
            bad = true;
            format!("OVER-BOUND (>{:.0}%)", r.bound.unwrap_or(0.0) * 100.0)
        } else {
            match r.bound {
                Some(b) => format!("within {:.0}%", b * 100.0),
                None => String::new(),
            }
        };
        out.push_str(&format!(
            "{:<15} {:<42} {:>16.6} {:>16.6} {:>8.4} {:>+8.2}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio(),
            r.worse_by * 100.0,
            flag
        ));
    }
    out.push_str(
        "ratio = new / base; worse_by is signed by each metric's direction, as a share of base\n",
    );
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(seed: f64, p50: f64, ops: f64, sim: f64) -> Json {
        bench_on("text_search", seed, p50, ops, sim)
    }

    fn bench_on(workload: &str, seed: f64, p50: f64, ops: f64, sim: f64) -> Json {
        let metric = |v: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))])
        };
        Json::obj(vec![
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj(vec![(
                    workload,
                    Json::obj(vec![
                        (
                            "end_to_end",
                            Json::obj(vec![(
                                "metrics",
                                Json::obj(vec![
                                    ("round_p50_ms", metric(p50, "ms")),
                                    ("ops_per_s", metric(ops, "1/s")),
                                ]),
                            )]),
                        ),
                        (
                            "per_layer",
                            Json::obj(vec![(
                                "metrics",
                                Json::obj(vec![
                                    ("sim_cost_s", metric(sim, "sim_s")),
                                    ("share.obs", metric(0.0, "ratio")),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn diff_signs_by_direction_and_flags_bounds() {
        let rows = diff(
            &bench(1.0, 100.0, 1000.0, 5.0),
            &bench(1.0, 104.0, 700.0, 5.0),
        );
        let by = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().clone();
        let p50 = by("round_p50_ms");
        assert!((p50.worse_by - 0.04).abs() < 1e-12 && !p50.over_bound());
        let ops = by("ops_per_s");
        assert!(
            (ops.worse_by - 0.30).abs() < 1e-12 && ops.over_bound(),
            "fewer ops/s is worse"
        );
        assert!((ops.ratio() - 0.7).abs() < 1e-12);
        assert!(!by("sim_cost_s").exact_mismatch);
        assert!(
            rows.iter().all(|r| r.metric != "share.obs"),
            "unmeasured metrics are skipped"
        );
        let (text, bad) = render_diff(&rows, false);
        assert!(bad && text.contains("OVER-BOUND"));
        // The other way round the second file is only better — unless the
        // two are runs of the same code, which must not differ that much.
        let back = diff(
            &bench(1.0, 104.0, 700.0, 5.0),
            &bench(1.0, 100.0, 1000.0, 5.0),
        );
        assert!(!render_diff(&back, false).1);
        assert!(render_diff(&back, true).1);
    }

    #[test]
    fn each_workload_is_judged_by_what_it_resolves() {
        let p50 = |workload: &str| {
            diff(
                &bench_on(workload, 1.0, 100.0, 1000.0, 5.0),
                &bench_on(workload, 1.0, 112.0, 1000.0, 5.0),
            )
            .into_iter()
            .find(|r| r.metric == "round_p50_ms")
            .unwrap()
        };
        assert!(
            !p50("text_search").over_bound(),
            "12 % is this box's weather there"
        );
        assert!(p50("trace_pipeline").over_bound(), "and a regression here");
    }

    #[test]
    fn exactness_is_judged_only_on_equal_seeds() {
        let same = diff(
            &bench(1.0, 100.0, 1000.0, 5.0),
            &bench(1.0, 100.0, 1000.0, 5.000001),
        );
        assert!(same.iter().any(|r| r.exact_mismatch));
        let other = diff(
            &bench(1.0, 100.0, 1000.0, 5.0),
            &bench(2.0, 100.0, 1000.0, 6.0),
        );
        assert!(other.iter().all(|r| !r.exact_mismatch));
    }
}

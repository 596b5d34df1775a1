//! Plan-quality analysis: estimated-vs-actual reconciliation (EXPLAIN
//! ANALYZE).
//!
//! The planner already *emits* its estimates (`Planner` events) and the
//! executor already *books* its actuals (`Call` charges), but nothing
//! reconciles the two — so a trace says how much a plan spent, never how
//! good the optimizer's prediction was. This module closes that loop:
//! the planner side describes each plan node's estimated cost vector and
//! cardinalities as a [`NodeEstimate`], the executor attributes actual
//! charge deltas and row/posting counts back to the same node ids as
//! [`NodeActual`]s, and [`PlanQuality`] pairs them into per-node and
//! per-component Q-errors with a deterministic rendering.
//!
//! Everything here is charge-free arithmetic over numbers the ledger
//! already booked; building or rendering a [`PlanQuality`] never touches
//! a server.

use std::cmp::Ordering;
use std::fmt::Write as _;

/// The Q-error of an estimate against an actual: `max(est/act, act/est)`,
/// the standard symmetric multiplicative error. Both (near) zero is a
/// perfect estimate (`1.0`); exactly one zero is an unbounded miss
/// (`f64::INFINITY`).
pub fn q_error(est: f64, act: f64) -> f64 {
    let est = est.max(0.0);
    let act = act.max(0.0);
    let zero = 1e-12;
    match (est <= zero, act <= zero) {
        (true, true) => 1.0,
        (true, false) | (false, true) => f64::INFINITY,
        (false, false) => (est / act).max(act / est),
    }
}

/// A total order on `f64`: `partial_cmp` wherever that is defined (so
/// `-0.0` and `0.0` tie, unlike `f64::total_cmp`), with NaN after every
/// number and NaNs tied.
pub fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Deterministic nearest-rank quantile (`q` in `[0, 1]`) over a sample,
/// NaNs ranked last. Empty input yields `0.0`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| cmp_nan_last(*a, *b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One estimated or actual cost vector, component by component. The
/// components mirror the paper's formulas: invocation, posting
/// processing, transmission, and relational text processing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostVector {
    /// Invocation cost (simulated seconds).
    pub invocation: f64,
    /// Posting-processing cost.
    pub processing: f64,
    /// Transmission cost (both forms).
    pub transmission: f64,
    /// Relational text-processing cost (`c_a` × comparisons).
    pub rtp: f64,
}

impl CostVector {
    /// Total simulated seconds across all components.
    pub fn total(&self) -> f64 {
        self.invocation + self.processing + self.transmission + self.rtp
    }

    /// Component-wise sum, for plan-level rollups.
    pub(crate) fn accumulate(&mut self, other: &CostVector) {
        self.invocation += other.invocation;
        self.processing += other.processing;
        self.transmission += other.transmission;
        self.rtp += other.rtp;
    }
}

/// The planner's estimate for one plan node, keyed by the node's
/// pre-order id (parent before children, inputs left to right — the
/// executor assigns actuals under the identical walk).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEstimate {
    /// Pre-order node id within the plan.
    pub id: usize,
    /// Tree depth, for rendering indentation.
    pub depth: usize,
    /// Display label (e.g. `text-join[TS]`, `probe{name}`, `scan student`).
    pub label: String,
    /// Estimated output rows of the node.
    pub rows: f64,
    /// Estimated postings the node's searches process (`0` for purely
    /// relational nodes).
    pub postings: f64,
    /// Estimated cost vector of the node's own work (children excluded).
    pub cost: CostVector,
}

/// What the executor actually measured for one plan node: the exclusive
/// charge delta (children subtracted) and the actual counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeActual {
    /// Actual output rows of the node.
    pub rows: f64,
    /// Actual postings charged to the node's own work.
    pub postings: f64,
    /// Actual cost vector of the node's own work (children excluded).
    pub cost: CostVector,
}

/// One reconciled node: the estimate, the actual, and their Q-errors.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeQuality {
    /// The planner's estimate.
    pub est: NodeEstimate,
    /// The executor's measurement.
    pub act: NodeActual,
    /// Q-error of the node's output cardinality.
    pub rows_q: f64,
    /// Q-error of the node's own total cost.
    pub cost_q: f64,
}

/// The deterministic estimated-vs-actual summary for one executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanQuality {
    /// Per-node reconciliation, pre-order.
    pub nodes: Vec<NodeQuality>,
    /// Plan-total estimated cost vector (Σ node estimates).
    pub est_total: CostVector,
    /// Plan-total actual cost vector (Σ node actuals).
    pub act_total: CostVector,
    /// Q-error of the plan's total cost.
    pub cost_q: f64,
    /// Q-error of the root's output cardinality.
    pub rows_q: f64,
    /// Q-error of the plan-total postings count.
    pub postings_q: f64,
}

impl PlanQuality {
    /// Pairs estimates with actuals by node id. `actuals[i]` must be the
    /// measurement for the node with pre-order id `i`; nodes the executor
    /// skipped (e.g. a probe dropped under pressure) default to zero
    /// actuals and show up as unbounded misses rather than vanishing.
    pub fn new(estimates: Vec<NodeEstimate>, actuals: &[NodeActual]) -> Self {
        let mut est_total = CostVector::default();
        let mut act_total = CostVector::default();
        let mut est_postings = 0.0;
        let mut act_postings = 0.0;
        let mut nodes = Vec::with_capacity(estimates.len());
        for est in estimates {
            let act = actuals.get(est.id).copied().unwrap_or_default();
            est_total.accumulate(&est.cost);
            act_total.accumulate(&act.cost);
            est_postings += est.postings;
            act_postings += act.postings;
            let rows_q = q_error(est.rows, act.rows);
            let cost_q = q_error(est.cost.total(), act.cost.total());
            nodes.push(NodeQuality {
                est,
                act,
                rows_q,
                cost_q,
            });
        }
        let rows_q = nodes
            .first()
            .map(|n| q_error(n.est.rows, n.act.rows))
            .unwrap_or(1.0);
        let cost_q = q_error(est_total.total(), act_total.total());
        let postings_q = q_error(est_postings, act_postings);
        Self {
            nodes,
            est_total,
            act_total,
            cost_q,
            rows_q,
            postings_q,
        }
    }

    /// Per-component `(name, estimated, actual, q_error)` rollup over the
    /// whole plan, fixed order.
    pub(crate) fn components(&self) -> [(&'static str, f64, f64, f64); 4] {
        let e = &self.est_total;
        let a = &self.act_total;
        [
            ("inv", e.invocation, a.invocation, q_error(e.invocation, a.invocation)),
            ("proc", e.processing, a.processing, q_error(e.processing, a.processing)),
            ("xmit", e.transmission, a.transmission, q_error(e.transmission, a.transmission)),
            ("rtp", e.rtp, a.rtp, q_error(e.rtp, a.rtp)),
        ]
    }

    /// The estimated-vs-actual span tree, byte-deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan quality: cost q {:.2} (est {:.2}s act {:.2}s), rows q {:.2}, postings q {:.2}",
            self.cost_q,
            self.est_total.total(),
            self.act_total.total(),
            self.rows_q,
            self.postings_q
        );
        let comps: Vec<String> = self
            .components()
            .iter()
            .map(|(name, e, a, q)| format!("{name} est {e:.2} act {a:.2} q {q:.2}"))
            .collect();
        let _ = writeln!(out, "  components: {}", comps.join(" | "));
        for n in &self.nodes {
            let indent = "  ".repeat(n.est.depth + 1);
            let _ = writeln!(
                out,
                "{indent}[{}] {} rows est {:.1} act {:.1} (q {:.2}) cost est {:.3}s act {:.3}s (q {:.2})",
                n.est.id,
                n.est.label,
                n.est.rows,
                n.act.rows,
                n.rows_q,
                n.est.cost.total(),
                n.act.cost.total(),
                n.cost_q
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_handles_zeroes() {
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(2.0, 0.0), f64::INFINITY);
        assert_eq!(q_error(0.0, 2.0), f64::INFINITY);
        assert!((q_error(2.0, 8.0) - 4.0).abs() < 1e-12);
        assert!((q_error(8.0, 2.0) - 4.0).abs() < 1e-12);
        assert_eq!(q_error(5.0, 5.0), 1.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn quantile_ranks_nan_last() {
        assert_eq!(quantile(&[f64::NAN, 1.0], 0.5), 1.0);
        assert!(quantile(&[f64::NAN, 1.0], 1.0).is_nan());
        assert_eq!(cmp_nan_last(-0.0, 0.0), Ordering::Equal);
        assert_eq!(cmp_nan_last(f64::INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(cmp_nan_last(f64::NAN, f64::NAN), Ordering::Equal);
    }

    fn est(id: usize, depth: usize, rows: f64, inv: f64) -> NodeEstimate {
        NodeEstimate {
            id,
            depth,
            label: format!("node{id}"),
            rows,
            postings: 10.0,
            cost: CostVector {
                invocation: inv,
                ..CostVector::default()
            },
        }
    }

    #[test]
    fn plan_quality_pairs_by_id_and_rolls_up() {
        let estimates = vec![est(0, 0, 4.0, 6.0), est(1, 1, 8.0, 3.0)];
        let actuals = vec![
            NodeActual {
                rows: 2.0,
                postings: 10.0,
                cost: CostVector {
                    invocation: 3.0,
                    ..CostVector::default()
                },
            },
            NodeActual {
                rows: 8.0,
                postings: 30.0,
                cost: CostVector {
                    invocation: 3.0,
                    ..CostVector::default()
                },
            },
        ];
        let pq = PlanQuality::new(estimates, &actuals);
        assert_eq!(pq.nodes.len(), 2);
        assert!((pq.rows_q - 2.0).abs() < 1e-12, "root rows 4 vs 2");
        assert!((pq.cost_q - 1.5).abs() < 1e-12, "total 9 vs 6");
        assert!((pq.postings_q - 2.0).abs() < 1e-12, "postings 20 vs 40");
        assert_eq!(pq.nodes[1].rows_q, 1.0);
        let rendered = pq.render();
        assert!(rendered.contains("plan quality: cost q 1.50"));
        assert!(rendered.contains("[0] node0"));
        assert_eq!(rendered, pq.render(), "render is deterministic");
    }

    #[test]
    fn missing_actual_is_an_unbounded_miss_not_a_silent_drop() {
        let pq = PlanQuality::new(vec![est(0, 0, 4.0, 6.0)], &[]);
        assert_eq!(pq.nodes.len(), 1);
        assert_eq!(pq.nodes[0].cost_q, f64::INFINITY);
    }
}

//! Trace-driven cost-constant fitting.
//!
//! Every chargeable event in a trace carries both the *work counts* the
//! server performed (invocations, postings, short/long documents) and the
//! *simulated seconds* its ledger booked for them. The ledger prices work
//! linearly — `time_invocation = c_i × invocations`, `time_processing =
//! c_p × postings`, `time_transmission = c_s × docs_short + c_l ×
//! docs_long` — so the trace is an exactly-determined regression problem:
//! least squares over the per-event charge vectors recovers the constants
//! the run was generated with, and non-zero residuals flag a server whose
//! real pricing has drifted from the linear model.
//!
//! `c_i` and `c_p` are one-dimensional fits. `c_s` and `c_l` share the
//! transmission field, so they are fit jointly via the 2×2 normal
//! equations; when the observations never mix the two forms the
//! off-diagonal term vanishes and the fit degenerates to two independent
//! slopes. A component with no work observed at all (e.g. no long-form
//! retrieval in the workload) is *undetermined*: its fit is flagged and
//! callers keep their configured value.
//!
//! Backoff events are deliberately excluded from the constant fit — their
//! seconds follow the retry schedule, not a per-unit price. Instead the
//! calibration aggregates them so the planner can replace its analytic
//! `fault_rate × mean_backoff` surcharge with the *observed* backoff per
//! invocation (see `observed_fault_rate`/`mean_backoff_per_fault`; the
//! product is exactly `backoff_seconds / invocations`).

use crate::event::{Event, EventKind};

/// One fitted cost constant plus the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentFit {
    /// Component name: `c_i`, `c_p`, `c_s`, or `c_l`.
    pub name: &'static str,
    /// The least-squares estimate. Meaningless when `determined` is
    /// false (no event observed this component's work).
    pub fitted: f64,
    /// Chargeable events whose work counts touched this component.
    pub observations: u64,
    /// Sum of squared residual seconds over those events.
    pub sum_sq_residual: f64,
    /// Whether the trace pins this constant down at all.
    pub determined: bool,
}

impl ComponentFit {
    fn undetermined(name: &'static str) -> Self {
        Self {
            name,
            fitted: 0.0,
            observations: 0,
            sum_sq_residual: 0.0,
            determined: false,
        }
    }
}

/// What a trace says the cost constants are.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCalibration {
    /// Per-invocation connection cost.
    pub c_i: ComponentFit,
    /// Per-posting processing cost.
    pub c_p: ComponentFit,
    /// Per-short-form-document transmission cost.
    pub c_s: ComponentFit,
    /// Per-long-form-document transmission cost.
    pub c_l: ComponentFit,
    /// Net invocations observed (rebates subtract, matching the ledger).
    pub invocations: i64,
    /// Faults observed.
    pub faults: i64,
    /// Total observed backoff, simulated seconds.
    pub backoff_seconds: f64,
}

impl TraceCalibration {
    /// Observed fault rate: faults per invocation.
    pub fn observed_fault_rate(&self) -> f64 {
        if self.invocations > 0 {
            self.faults as f64 / self.invocations as f64
        } else {
            0.0
        }
    }

    /// Observed mean backoff per fault. Together with
    /// [`observed_fault_rate`](Self::observed_fault_rate) this re-derives
    /// the planner's invocation surcharge from observation: `rate × mean`
    /// is exactly [`backoff_per_invocation`](Self::backoff_per_invocation).
    pub fn mean_backoff_per_fault(&self) -> f64 {
        if self.faults > 0 {
            self.backoff_seconds / self.faults as f64
        } else {
            0.0
        }
    }

    /// Observed backoff seconds per invocation — the effective `c_i`
    /// surcharge this trace actually paid.
    pub fn backoff_per_invocation(&self) -> f64 {
        if self.invocations > 0 {
            self.backoff_seconds / self.invocations as f64
        } else {
            0.0
        }
    }

    /// Root-mean-square residual seconds across all determined
    /// components, over all events the fit consumed. Zero (to float
    /// noise) when the server prices work exactly linearly.
    pub fn rms_residual(&self) -> f64 {
        let sq = self.c_i.sum_sq_residual
            + self.c_p.sum_sq_residual
            + self.c_s.sum_sq_residual
            + self.c_l.sum_sq_residual;
        let n = self.c_i.observations
            + self.c_p.observations
            + self.c_s.observations
            + self.c_l.observations;
        if n == 0 {
            0.0
        } else {
            (sq / n as f64).sqrt()
        }
    }
}

/// One regression row: a `call` or `rebate` event's work counts and the
/// seconds booked for them.
pub(crate) struct Row {
    inv: f64,
    post: f64,
    short: f64,
    long: f64,
    t_inv: f64,
    t_proc: f64,
    t_xmit: f64,
}

impl Row {
    /// The row of a `call` or `rebate`; `None` for every other kind (a
    /// backoff's seconds follow the retry schedule, not a price).
    pub(crate) fn of(kind: &EventKind) -> Option<Row> {
        match kind {
            EventKind::Call { charge, .. } | EventKind::Rebate { charge, .. } => Some(Row {
                inv: charge.invocations as f64,
                post: charge.postings as f64,
                short: charge.docs_short as f64,
                long: charge.docs_long as f64,
                t_inv: charge.time_invocation,
                t_proc: charge.time_processing,
                t_xmit: charge.time_transmission,
            }),
            _ => None,
        }
    }
}

/// The least-squares fits of `c_i`, `c_p`, `c_s` and `c_l`, in that
/// order, over `rows`.
pub(crate) fn fit<'a>(rows: impl Iterator<Item = &'a Row> + Clone) -> [ComponentFit; 4] {
    let c_i = fit_slope("c_i", rows.clone(), |r| r.inv, |r| r.t_inv);
    let c_p = fit_slope("c_p", rows.clone(), |r| r.post, |r| r.t_proc);
    let (c_s, c_l) = fit_transmission(rows);
    [c_i, c_p, c_s, c_l]
}

/// Simple through-origin slope fit `t ≈ c × x` over rows with `x ≠ 0`.
fn fit_slope<'a>(
    name: &'static str,
    rows: impl Iterator<Item = &'a Row> + Clone,
    x: impl Fn(&Row) -> f64,
    t: impl Fn(&Row) -> f64,
) -> ComponentFit {
    let mut sxx = 0.0;
    let mut sxt = 0.0;
    let mut n = 0u64;
    for r in rows.clone() {
        let xv = x(r);
        if xv != 0.0 {
            sxx += xv * xv;
            sxt += xv * t(r);
            n += 1;
        }
    }
    if n == 0 || sxx == 0.0 {
        return ComponentFit::undetermined(name);
    }
    let fitted = sxt / sxx;
    let mut ssr = 0.0;
    for r in rows {
        let xv = x(r);
        if xv != 0.0 {
            let e = t(r) - fitted * xv;
            ssr += e * e;
        }
    }
    ComponentFit {
        name,
        fitted,
        observations: n,
        sum_sq_residual: ssr,
        determined: true,
    }
}

/// Joint 2-parameter fit of `t_xmit ≈ c_s × short + c_l × long` via the
/// normal equations, degrading to independent slopes when the system is
/// singular (a component with no work stays undetermined).
fn fit_transmission<'a>(
    rows: impl Iterator<Item = &'a Row> + Clone,
) -> (ComponentFit, ComponentFit) {
    let mut sss = 0.0; // Σ short²
    let mut sll = 0.0; // Σ long²
    let mut ssl = 0.0; // Σ short·long
    let mut sst = 0.0; // Σ short·t
    let mut slt = 0.0; // Σ long·t
    for r in rows.clone() {
        if r.short != 0.0 || r.long != 0.0 {
            sss += r.short * r.short;
            sll += r.long * r.long;
            ssl += r.short * r.long;
            sst += r.short * r.t_xmit;
            slt += r.long * r.t_xmit;
        }
    }
    let det = sss * sll - ssl * ssl;
    // Relative singularity check: the joint solve needs both diagonal
    // terms and genuine mixing; otherwise fall back to independent fits.
    if sss > 0.0 && sll > 0.0 && det.abs() > 1e-9 * sss * sll {
        let c_s = (sll * sst - ssl * slt) / det;
        let c_l = (sss * slt - ssl * sst) / det;
        let mut fit_s = ComponentFit {
            name: "c_s",
            fitted: c_s,
            observations: 0,
            sum_sq_residual: 0.0,
            determined: true,
        };
        let mut fit_l = ComponentFit {
            name: "c_l",
            fitted: c_l,
            observations: 0,
            sum_sq_residual: 0.0,
            determined: true,
        };
        for r in rows {
            let e = r.t_xmit - c_s * r.short - c_l * r.long;
            if r.short != 0.0 {
                fit_s.observations += 1;
                fit_s.sum_sq_residual += e * e;
            } else if r.long != 0.0 {
                fit_l.observations += 1;
                fit_l.sum_sq_residual += e * e;
            }
        }
        (fit_s, fit_l)
    } else {
        // Unmixed (or one-sided) observations: each form is priced by the
        // rows where only it appears.
        (
            fit_slope(
                "c_s",
                rows.clone().filter(|r| r.long == 0.0),
                |r| r.short,
                |r| r.t_xmit,
            ),
            fit_slope(
                "c_l",
                rows.filter(|r| r.short == 0.0),
                |r| r.long,
                |r| r.t_xmit,
            ),
        )
    }
}

/// Fits cost constants and the observed fault model from a recorded
/// trace: the rows of its events, then one fit over the rows. Accepts full
/// or sampled traces: the keep decision never looks at charges, so a
/// sampled trace estimates the same constants (though its fault-rate
/// aggregates oversample chaos by design — read those from full traces
/// only).
pub fn calibrate_trace(events: &[Event]) -> TraceCalibration {
    let rows: Vec<Row> = events.iter().filter_map(|ev| Row::of(&ev.kind)).collect();
    let [c_i, c_p, c_s, c_l] = fit(rows.iter());
    let mut cal = TraceCalibration {
        c_i,
        c_p,
        c_s,
        c_l,
        invocations: 0,
        faults: 0,
        backoff_seconds: 0.0,
    };
    for ev in events {
        match &ev.kind {
            EventKind::Call { charge, .. } | EventKind::Rebate { charge, .. } => {
                cal.invocations += charge.invocations;
                cal.faults += charge.faults;
            }
            EventKind::Backoff { charge, .. } => cal.backoff_seconds += charge.time_backoff,
            _ => {}
        }
    }
    cal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Charge;

    fn call(charge: Charge) -> Event {
        Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::Call {
                op: "search",
                shard: None,
                terms: 1,
                err: None,
                charge,
            },
        }
    }

    fn search(inv: i64, post: i64, short: i64, c: (f64, f64, f64, f64)) -> Event {
        call(Charge {
            invocations: inv,
            postings: post,
            docs_short: short,
            time_invocation: c.0 * inv as f64,
            time_processing: c.1 * post as f64,
            time_transmission: c.2 * short as f64,
            ..Charge::default()
        })
    }

    fn retrieve(c_l: f64) -> Event {
        call(Charge {
            docs_long: 1,
            time_transmission: c_l,
            ..Charge::default()
        })
    }

    #[test]
    fn recovers_constants_from_a_linear_trace_exactly() {
        let c = (2.5, 3e-5, 0.02, 5.0);
        let mut events = Vec::new();
        for i in 1..20i64 {
            events.push(search(1, 37 * i, i % 7, c));
        }
        events.push(retrieve(c.3));
        events.push(retrieve(c.3));
        let cal = calibrate_trace(&events);
        assert!((cal.c_i.fitted - 2.5).abs() < 1e-12, "{:?}", cal.c_i);
        assert!((cal.c_p.fitted - 3e-5).abs() < 1e-12, "{:?}", cal.c_p);
        assert!((cal.c_s.fitted - 0.02).abs() < 1e-12, "{:?}", cal.c_s);
        assert!((cal.c_l.fitted - 5.0).abs() < 1e-12, "{:?}", cal.c_l);
        assert!(cal.c_i.determined && cal.c_l.determined);
        assert!(cal.rms_residual() < 1e-9);
    }

    #[test]
    fn rebates_are_valid_negative_observations() {
        let c = (3.0, 1e-5, 0.015, 4.0);
        let events = vec![
            search(1, 100, 4, c),
            Event {
                seq: 1,
                clock: 0.0,
                kind: EventKind::Rebate {
                    shard: None,
                    charge: Charge {
                        invocations: -2,
                        docs_short: -3,
                        time_invocation: -2.0 * c.0,
                        time_transmission: -3.0 * c.2,
                        ..Charge::default()
                    },
                },
            },
        ];
        let cal = calibrate_trace(&events);
        assert!((cal.c_i.fitted - c.0).abs() < 1e-12);
        assert!((cal.c_s.fitted - c.2).abs() < 1e-12);
        assert_eq!(cal.invocations, -1, "net of the rebate");
    }

    #[test]
    fn missing_work_leaves_a_component_undetermined() {
        let events = vec![search(1, 50, 2, (3.0, 1e-5, 0.015, 4.0))];
        let cal = calibrate_trace(&events);
        assert!(cal.c_i.determined);
        assert!(!cal.c_l.determined, "no long-form work in the trace");
        assert_eq!(cal.c_l.observations, 0);
    }

    #[test]
    fn backoff_feeds_the_fault_model_not_the_constants() {
        let c = (3.0, 1e-5, 0.015, 4.0);
        let mut events = vec![search(1, 10, 1, c), search(1, 10, 1, c)];
        events.push(Event {
            seq: 9,
            clock: 0.0,
            kind: EventKind::Backoff {
                shard: None,
                seconds: 0.5,
                charge: Charge {
                    retries: 1,
                    time_backoff: 0.5,
                    faults: 0,
                    ..Charge::default()
                },
            },
        });
        // The fault itself is booked on the faulted call.
        events.push(call(Charge {
            invocations: 1,
            faults: 1,
            time_invocation: c.0,
            ..Charge::default()
        }));
        let cal = calibrate_trace(&events);
        assert!((cal.c_i.fitted - 3.0).abs() < 1e-12, "backoff never pollutes c_i");
        assert_eq!(cal.faults, 1);
        assert!((cal.backoff_seconds - 0.5).abs() < 1e-12);
        assert!((cal.observed_fault_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((cal.mean_backoff_per_fault() - 0.5).abs() < 1e-12);
        // rate × mean == backoff per invocation, exactly.
        let product = cal.observed_fault_rate() * cal.mean_backoff_per_fault();
        assert!((product - cal.backoff_per_invocation()).abs() < 1e-15);
    }

    #[test]
    fn nonlinear_pricing_shows_up_as_residual() {
        let mut events = vec![search(1, 10, 0, (3.0, 1e-5, 0.015, 4.0))];
        // A second event priced off-model.
        events.push(call(Charge {
            invocations: 1,
            time_invocation: 4.0,
            ..Charge::default()
        }));
        let cal = calibrate_trace(&events);
        assert!(cal.rms_residual() > 0.1, "drifted pricing must be visible");
    }

    #[test]
    fn empty_trace_is_fully_undetermined() {
        let cal = calibrate_trace(&[]);
        assert!(!cal.c_i.determined && !cal.c_p.determined);
        assert!(!cal.c_s.determined && !cal.c_l.determined);
        assert_eq!(cal.rms_residual(), 0.0);
        assert_eq!(cal.observed_fault_rate(), 0.0);
    }
}

//! Cost-model parameters (paper, Table 1).
//!
//! | paper | here | meaning |
//! |-------|------|---------|
//! | `D`   | [`CostParams::d`] | total documents in the text database |
//! | `M`   | [`CostParams::m`] | max basic terms per text search |
//! | `c_i` | [`CostParams::constants.c_i`] | invocation cost |
//! | `c_p` | [`CostParams::constants.c_p`] | per-posting processing cost |
//! | `c_s` | [`CostParams::constants.c_s`] | short-form transmission cost |
//! | `c_l` | [`CostParams::constants.c_l`] | long-form transmission cost |
//! | `c_a` | [`CostParams::c_a`] | relational text-processing cost |
//! | —     | [`CostParams::c_pair`] | relational cost per tuple pair joined |
//! | `N`   | [`JoinStatistics::n`] | joining tuples |
//! | `k`   | `preds.len()` | join predicates |
//! | `N_i` | [`PredStats::distinct`] | distinct values in join column i |
//! | `s_i` | [`PredStats::selectivity`] | predicate selectivity |
//! | `f_i` | [`PredStats::fanout`] | predicate fanout |

use textjoin_obs::{ns, CostVector, TraceCalibration};
use textjoin_text::server::{CostConstants, Usage};

use crate::retry::RetryPolicy;

/// Relational work in ticks: `ns(c_a)` per document–tuple comparison plus
/// `ns(c_pair)` per tuple pair — the relational twin of
/// [`CostConstants::price`], so an execution's total is one tick sum.
pub(crate) fn rel_ticks(c_a: f64, comparisons: u64, c_pair: f64, pairs: u64) -> u64 {
    let per = |c: f64, n: u64| (ns(c) as u64).wrapping_mul(n);
    per(c_a, comparisons).wrapping_add(per(c_pair, pairs))
}

/// What an estimate predicts, in expected counts: the work a step makes the
/// text system and the relational engine do, before any of it is priced.
/// [`CostParams::price`] turns it into seconds, as [`CostConstants::price`]
/// turns the counts an execution books into ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Searches sent to the text system.
    pub searches: f64,
    /// Postings the text system processes.
    pub postings: f64,
    /// Documents shipped in short form.
    pub docs_short: f64,
    /// Documents shipped in long form.
    pub docs_long: f64,
    /// Document–tuple comparisons made relationally.
    pub comparisons: f64,
    /// Tuple pairs a relational join compares.
    pub pairs: f64,
}

impl std::ops::Add for Work {
    type Output = Work;

    fn add(self, o: Work) -> Work {
        Work {
            searches: self.searches + o.searches,
            postings: self.postings + o.postings,
            docs_short: self.docs_short + o.docs_short,
            docs_long: self.docs_long + o.docs_long,
            comparisons: self.comparisons + o.comparisons,
            pairs: self.pairs + o.pairs,
        }
    }
}

/// Environment-level parameters: the text database size, the term cap, and
/// the cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// `D` — total number of documents in the text database.
    pub d: f64,
    /// `M` — maximum number of basic terms per search.
    pub m: usize,
    /// The per-operation constants (`c_i`, `c_p`, `c_s`, `c_l`).
    pub constants: CostConstants,
    /// `c_a` — relational text processing cost per document–tuple
    /// comparison.
    pub c_a: f64,
    /// Relational cost per tuple pair a join compares.
    pub c_pair: f64,
    /// `g` — the correlation parameter of the joint selectivity/fanout
    /// model (Section 4.2): 1 = fully correlated, k = fully independent.
    pub g: usize,
    /// Observed fraction of invocations that fault (0 on a healthy link).
    /// The formulas charge an expected-retry term `fault_rate ×
    /// mean_backoff` per invocation, so invocation-heavy methods (TS,
    /// P+TS) lose ground to SJ/RTP when the link is flaky.
    pub fault_rate: f64,
    /// Mean simulated backoff charged per retry (from the session's
    /// [`RetryPolicy`]).
    pub mean_backoff: f64,
    /// Per-query completion deadline in simulated seconds. `None` (the
    /// default) ranks plans by total charge exactly as before; `Some`
    /// switches the planner to the deadline-aware rank that rewards plans
    /// whose work parallelizes across shards (see [`rank`](Self::rank)).
    pub deadline: Option<f64>,
    /// Degree of transport parallelism the scheduler can exploit — the
    /// shard count for a sharded service, 1 otherwise. Only consulted
    /// when a deadline is set.
    pub parallelism: f64,
    /// Shards each logical search actually scatters to. 1 (the default)
    /// prices invocations exactly as the classic single-server model —
    /// under all-shards scatter every method's invoice scales by the same
    /// factor, so rankings are unchanged and the fold stays off. With
    /// stats-aware routing the executor prunes provably irrelevant shards,
    /// and the planner must price the *pruned* fan-out (set via
    /// [`with_scatter_fanout`](Self::with_scatter_fanout)) to stay in
    /// lockstep with what the scatter paths charge.
    pub scatter_fanout: f64,
}

impl CostParams {
    /// Parameters matching the calibrated OpenODB–Mercury system with the
    /// fully-correlated (g = 1) model the paper's experiments use, on a
    /// fault-free link.
    pub fn mercury(d: f64) -> Self {
        Self {
            d,
            m: 70,
            constants: CostConstants::mercury_calibrated(),
            c_a: 1e-5,
            c_pair: 1e-6,
            g: 1,
            fault_rate: 0.0,
            mean_backoff: 0.0,
            deadline: None,
            parallelism: 1.0,
            scatter_fanout: 1.0,
        }
    }

    /// Same but with correlation parameter `g`.
    pub fn with_g(mut self, g: usize) -> Self {
        self.g = g.max(1);
        self
    }

    /// Sets the transport parallelism the rank may assume (clamped ≥ 1).
    pub(crate) fn with_parallelism(mut self, parallelism: f64) -> Self {
        self.parallelism = parallelism.max(1.0);
        self
    }

    /// Sets the per-search scatter fan-out the invocation terms are priced
    /// at (clamped ≥ 1). Only meaningful when the executor's stats-aware
    /// routing is on; the caller must pass the same pruned fan-out the
    /// scatter paths will use, or planner and executor fall out of sync.
    pub(crate) fn with_scatter_fanout(mut self, fanout: f64) -> Self {
        self.scatter_fanout = fanout.max(1.0);
        self
    }

    /// The planner's ranking view of a method cost decomposition. Without
    /// a deadline this is exactly the total charge — byte-identical plans
    /// to the pre-deadline planner. With a deadline it approximates the
    /// *makespan*: invocation rounds and relational text processing are
    /// inherently serial, while postings processing and transmission
    /// scatter across shards and divide by the parallelism — so plans
    /// whose heavy work parallelizes rank ahead even at equal total
    /// charge.
    pub(crate) fn rank(&self, c: &CostVector) -> f64 {
        match self.deadline {
            None => c.total(),
            Some(_) => {
                c.invocation + c.rtp + (c.processing + c.transmission) / self.parallelism.max(1.0)
            }
        }
    }

    /// Folds the session's observed fault behavior into the model, for a
    /// service with `replicas` copies of every shard. The observed rate is
    /// `faults / invocations` from the ledger so far and the mean backoff
    /// comes from the retry schedule in force. A call only pays retry
    /// backoff when *all* replicas of a shard are down at once, so the
    /// post-failover effective rate is the observed per-server rate raised
    /// to the replica count (independent-failure model); `replicas = 1`
    /// pays for every fault. A fault-free ledger (or an empty one) leaves
    /// the model untouched.
    pub(crate) fn with_fault_model_replicated(
        mut self,
        usage: &Usage,
        policy: &RetryPolicy,
        replicas: usize,
    ) -> Self {
        let observed = if usage.invocations == 0 {
            0.0
        } else {
            usage.faults as f64 / usage.invocations as f64
        };
        self.fault_rate = observed.powi(replicas.max(1) as i32);
        self.mean_backoff = policy.mean_backoff();
        self
    }

    /// The seconds `work` costs: `effective_c_i` per search, `c_p` per
    /// posting, `c_s` per short and `c_l` per long document, `c_a` per
    /// comparison and `c_pair` per tuple pair. Every estimate is priced
    /// here and nowhere else.
    pub fn price(&self, work: &Work) -> CostVector {
        let c = &self.constants;
        CostVector {
            invocation: self.effective_c_i() * work.searches,
            processing: c.c_p * work.postings,
            transmission: c.c_s * work.docs_short + c.c_l * work.docs_long,
            rtp: self.c_a * work.comparisons + self.c_pair * work.pairs,
            searches: work.searches,
        }
    }

    /// Effective invocation cost under the fault model and the scatter
    /// fan-out: `c_i` plus the expected retry backoff per invocation, paid
    /// once per shard the search actually scatters to.
    pub fn effective_c_i(&self) -> f64 {
        self.scatter_fanout * (self.constants.c_i + self.fault_rate * self.mean_backoff)
    }

    /// Adopts a trace-driven calibration: every constant the trace
    /// determines replaces its configured value, undetermined components
    /// keep the configured ones, and the analytic fault model (ledger
    /// rate × schedule mean) is replaced by the *observed* one — under
    /// the calibrated model `effective_c_i` charges exactly the backoff
    /// seconds per invocation the trace actually paid.
    ///
    /// This is the planner-facing half of the re-calibrator: feed the
    /// returned [`CalibratedParams::fitted`] to `plan_and_execute` (or
    /// any `PlannerInput`) exactly as a configured `CostParams`.
    pub fn with_calibration(self, cal: &TraceCalibration) -> CalibratedParams {
        let mut fitted = self;
        let mut per_component_drift = Vec::with_capacity(5);
        let mut adopt = |target: &mut f64, fit: &textjoin_obs::ComponentFit| {
            let configured = *target;
            if fit.determined {
                *target = fit.fitted;
            }
            let drift = if configured != 0.0 {
                (*target - configured) / configured
            } else {
                0.0
            };
            per_component_drift.push((fit.name, drift));
        };
        adopt(&mut fitted.constants.c_i, &cal.c_i);
        adopt(&mut fitted.constants.c_p, &cal.c_p);
        adopt(&mut fitted.constants.c_s, &cal.c_s);
        adopt(&mut fitted.constants.c_l, &cal.c_l);
        fitted.fault_rate = cal.observed_fault_rate();
        fitted.mean_backoff = cal.mean_backoff_per_fault();
        let configured_eff = self.effective_c_i();
        let eff_drift = if configured_eff != 0.0 {
            (fitted.effective_c_i() - configured_eff) / configured_eff
        } else {
            0.0
        };
        per_component_drift.push(("effective_c_i", eff_drift));
        CalibratedParams {
            fitted,
            residuals: cal.rms_residual(),
            per_component_drift,
        }
    }
}

/// A [`CostParams`] re-fit from a recorded trace, with the evidence a
/// caller needs to decide whether to trust it.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedParams {
    /// The parameters the planner should adopt: fitted constants where
    /// the trace determines them, configured values elsewhere, and the
    /// observed (not analytic) fault model.
    pub fitted: CostParams,
    /// Root-mean-square residual seconds of the linear fit — zero when
    /// the server prices work exactly as the model assumes.
    pub residuals: f64,
    /// `(component, relative drift)` for `c_i`, `c_p`, `c_s`, `c_l`, and
    /// `effective_c_i`: how far the adopted value moved from the
    /// configured one (`(fitted − configured) / configured`).
    pub per_component_drift: Vec<(&'static str, f64)>,
}

impl CalibratedParams {
    /// The adopted drift for one component, if it was fit.
    pub fn drift(&self, component: &str) -> Option<f64> {
        self.per_component_drift
            .iter()
            .find(|(name, _)| *name == component)
            .map(|&(_, d)| d)
    }
}

/// Per-predicate statistics (estimated by sampling, Section 4.2, or taken
/// from the Section 8 statistics export).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredStats {
    /// `s_i` — probability that a term drawn from join column i occurs in
    /// the joined field of some document.
    pub selectivity: f64,
    /// `f_i` — expected number of documents a term from column i matches
    /// (unconditional: zero-match terms count).
    pub fanout: f64,
    /// `N_i` — number of distinct values in join column i.
    pub distinct: f64,
    /// Average inverted-list length a term from column i causes the text
    /// system to process. With one-document postings and single-word terms
    /// this equals the fanout (the paper's simplification); phrases read
    /// one list per word, so it may exceed the fanout.
    pub list_len: f64,
}

impl PredStats {
    /// Convenience constructor using the paper's simplification
    /// `list_len = fanout`.
    pub fn simple(selectivity: f64, fanout: f64, distinct: f64) -> Self {
        Self {
            selectivity,
            fanout,
            distinct,
            list_len: fanout,
        }
    }
}

/// Statistics describing one foreign join, consumed by the formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStatistics {
    /// `N` — tuples in the (locally filtered) joining relation.
    pub n: f64,
    /// Distinct tuples over *all* join columns — the searches the
    /// distinct-variant TS sends. The paper's `N_K`.
    pub n_k: f64,
    /// Per-predicate statistics, index-parallel to the join predicates.
    pub preds: Vec<PredStats>,
    /// Number of documents matching the constant text selections (their
    /// joint fanout); `D` when there are no selections.
    pub sel_fanout: f64,
    /// Sum of inverted-list lengths the selections add to each search.
    pub sel_postings: f64,
    /// Number of basic terms the selections add to each search.
    pub sel_terms: usize,
    /// Whether the query projects full documents (long-form retrieval).
    pub needs_long: bool,
    /// Whether every joined field is short-form (RTP-family methods can
    /// skip long retrieval when the projection allows).
    pub short_form_sufficient: bool,
}

impl JoinStatistics {
    /// `k` — the number of join predicates.
    pub fn k(&self) -> usize {
        self.preds.len()
    }

    /// The paper's `N_J` estimate for a predicate subset: `min(Π N_i, N)`
    /// — deliberately an over-estimate (Section 4.3).
    pub(crate) fn n_j(&self, subset: &[usize]) -> f64 {
        let prod: f64 = subset.iter().map(|&i| self.preds[i].distinct).product();
        prod.min(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mercury_defaults() {
        let p = CostParams::mercury(10_000.0);
        assert_eq!(p.m, 70);
        assert_eq!(p.g, 1);
        assert!((p.constants.c_i - 3.0).abs() < 1e-12);
        assert_eq!(CostParams::mercury(1.0).with_g(0).g, 1, "g clamped to ≥1");
    }

    #[test]
    fn replicated_fault_model_discounts_the_observed_rate() {
        let u = Usage {
            invocations: 10,
            faults: 5,
            ..Usage::default()
        };
        let policy = RetryPolicy::standard();
        let single = CostParams::mercury(100.0).with_fault_model_replicated(&u, &policy, 1);
        assert!((single.fault_rate - 0.5).abs() < 1e-12);
        let repl = CostParams::mercury(100.0).with_fault_model_replicated(&u, &policy, 2);
        assert!((repl.fault_rate - 0.25).abs() < 1e-12, "rate^R for R=2");
        assert!(repl.effective_c_i() < single.effective_c_i());
    }

    #[test]
    fn calibration_adoption_replaces_determined_components_only() {
        use textjoin_obs::{calibrate_trace, Charge, Event, EventKind};
        // A two-event trace generated with c_i = 6 (double the configured
        // 3.0) and c_p = 1e-5; no transmission work at all.
        let ev = |post: i64| Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::Call {
                op: "search",
                shard: None,
                terms: 1,
                err: None,
                charge: Charge {
                    invocations: 1,
                    postings: post,
                    ns_invocation: 6_000_000_000,
                    ns_processing: 10_000 * post,
                    ..Charge::default()
                },
            },
        };
        let cal = calibrate_trace(&[ev(100), ev(250)]);
        let configured = CostParams::mercury(10_000.0);
        let adopted = configured.with_calibration(&cal);
        assert!((adopted.fitted.constants.c_i - 6.0).abs() < 1e-12);
        assert!((adopted.fitted.constants.c_p - 1e-5).abs() < 1e-12);
        // Undetermined transmission constants keep their configured values.
        assert_eq!(adopted.fitted.constants.c_s, configured.constants.c_s);
        assert_eq!(adopted.fitted.constants.c_l, configured.constants.c_l);
        assert!((adopted.drift("c_i").unwrap() - 1.0).abs() < 1e-12, "+100%");
        assert!(adopted.drift("c_p").unwrap().abs() < 1e-12);
        assert_eq!(adopted.drift("c_s"), Some(0.0));
        assert!(adopted.residuals < 1e-9);
        // No faults observed: the adopted fault model is clean and the
        // effective c_i is exactly the fitted c_i.
        assert_eq!(adopted.fitted.fault_rate, 0.0);
        assert!((adopted.fitted.effective_c_i() - 6.0).abs() < 1e-12);
        assert!((adopted.drift("effective_c_i").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_refits_effective_c_i_from_observed_backoff() {
        use textjoin_obs::{calibrate_trace, Charge, Event, EventKind};
        let call = Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::Call {
                op: "search",
                shard: None,
                terms: 1,
                err: None,
                charge: Charge {
                    invocations: 1,
                    faults: 1,
                    ns_invocation: 3_000_000_000,
                    ..Charge::default()
                },
            },
        };
        let backoff = Event {
            seq: 1,
            clock: 0.0,
            kind: EventKind::Backoff {
                shard: None,
                charge: Charge {
                    retries: 1,
                    ns_backoff: 750_000_000,
                    ..Charge::default()
                },
            },
        };
        let cal = calibrate_trace(&[call, backoff]);
        let adopted = CostParams::mercury(10_000.0).with_calibration(&cal);
        // rate × mean collapses to observed backoff per invocation.
        assert!(
            (adopted.fitted.effective_c_i() - (3.0 + 0.75)).abs() < 1e-12,
            "eff c_i = fitted c_i + observed backoff/invocation"
        );
    }

    #[test]
    fn n_j_overestimates_and_caps() {
        let stats = JoinStatistics {
            n: 100.0,
            n_k: 100.0,
            preds: vec![
                PredStats::simple(0.5, 2.0, 20.0),
                PredStats::simple(0.5, 2.0, 30.0),
            ],
            sel_fanout: 10.0,
            sel_postings: 10.0,
            sel_terms: 1,
            needs_long: true,
            short_form_sufficient: true,
        };
        assert_eq!(stats.n_j(&[0]), 20.0);
        assert_eq!(stats.n_j(&[0, 1]), 100.0, "600 capped at N");
        assert_eq!(stats.k(), 2);
    }
}

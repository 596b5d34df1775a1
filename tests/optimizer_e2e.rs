//! Integration: optimizer decisions hold up end to end across seeds —
//! the chosen single-join method is measured-competitive, the PrL space is
//! never worse than left-deep, and plan estimates track measured costs.

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::plan_and_execute;
use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::ExecContext;
use textjoin::core::optimizer::multi::{estimate_nodes, plan_query, ExecutionSpace, PlannerInput};
use textjoin::core::optimizer::single::enumerate_methods;
use textjoin::core::query::prepare;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

fn worlds() -> Vec<World> {
    [3u64, 17, 29]
        .into_iter()
        .map(|seed| {
            World::generate(WorldSpec {
                seed,
                background_docs: 250,
                students: 60,
                projects: 16,
                ..WorldSpec::default()
            })
        })
        .collect()
}

#[test]
fn chosen_method_is_measured_competitive() {
    for w in worlds() {
        let schema = w.server.collection().schema();
        let params = CostParams::mercury(w.server.doc_count() as f64);
        for (label, q) in [
            ("Q1", paper::q1(&w)),
            ("Q2", paper::q2(&w)),
            ("Q3", paper::q3(&w)),
            ("Q4", paper::q4(&w)),
        ] {
            let p = prepare(&q, &w.catalog, schema).expect("prepares");
            let export = w.server.export_stats();
            let stats = p.statistics_from_export(&export, schema);
            let cands = enumerate_methods(&params, &stats, q.projection, false);
            let mut measured: Vec<(String, f64)> = Vec::new();
            for c in &cands {
                let ctx = ExecContext::new(&w.server);
                let out =
                    textjoin::core::exec::execute_single(&ctx, &p, c, ProbeSchedule::ProbeFirst)
                        .expect("runs");
                measured.push((c.label.clone(), out.report.total_cost()));
            }
            let best_measured = measured
                .iter()
                .map(|(_, c)| *c)
                .fold(f64::INFINITY, f64::min);
            let chosen_measured = measured[0].1; // cands[0] is the choice
            assert!(
                chosen_measured <= 4.0 * best_measured + 1.0,
                "{label} (seed {}): chose {} at {:.1}s, best measured {:.1}s ({:?})",
                w.spec.seed,
                measured[0].0,
                chosen_measured,
                best_measured,
                measured
            );
        }
    }
}

#[test]
fn prl_never_worse_than_left_deep_across_seeds() {
    for w in worlds() {
        let params = CostParams::mercury(w.server.doc_count() as f64);
        let q5 = paper::q5(&w);
        let (ld, _) =
            plan_and_execute(&q5, &w.catalog, &w.server, params, ExecutionSpace::LeftDeep)
                .expect("left-deep plans");
        let (prl, _) = plan_and_execute(&q5, &w.catalog, &w.server, params, ExecutionSpace::Prl)
            .expect("PrL plans");
        let (ext, _) = plan_and_execute(
            &q5,
            &w.catalog,
            &w.server,
            params,
            ExecutionSpace::PrlResiduals,
        )
        .expect("extended plans");
        assert!(prl.est_cost <= ld.est_cost + 1e-9, "seed {}", w.spec.seed);
        assert!(ext.est_cost <= prl.est_cost + 1e-9, "seed {}", w.spec.seed);
    }
}

#[test]
fn estimates_track_measured_costs() {
    // Estimates need not be exact, but for the executed plan they should
    // be within an order of magnitude — the level of fidelity the paper's
    // "verified that our cost formulas correctly predict" claim implies.
    for w in worlds() {
        let params = CostParams::mercury(w.server.doc_count() as f64);
        let q5 = paper::q5(&w);
        for space in [ExecutionSpace::LeftDeep, ExecutionSpace::Prl] {
            w.server.reset_usage();
            let (planned, outcome) =
                plan_and_execute(&q5, &w.catalog, &w.server, params, space).expect("runs");
            let ratio = planned.est_cost / outcome.total_cost.max(1e-9);
            assert!(
                (0.1..10.0).contains(&ratio),
                "seed {} space {:?}: est {:.1} vs measured {:.1}",
                w.spec.seed,
                space,
                planned.est_cost,
                outcome.total_cost
            );
        }
    }
}

#[test]
fn node_estimates_sum_to_the_planned_cost() {
    // The dynamic program and EXPLAIN ANALYZE price every node with the
    // same rule, so the per-node (exclusive) estimates add up to the
    // plan's `est_cost` and the root's rows are its `est_rows`.
    for w in worlds() {
        let params = CostParams::mercury(w.server.doc_count() as f64);
        let schema = w.server.collection().schema();
        for (label, q) in [("Q5", paper::q5(&w)), ("Q6", paper::q6(&w))] {
            let input =
                PlannerInput::gather(&q, &w.catalog, &w.server.export_stats(), schema, params)
                    .expect("gathers");
            for space in [
                ExecutionSpace::LeftDeep,
                ExecutionSpace::Prl,
                ExecutionSpace::PrlResiduals,
            ] {
                let planned = plan_query(&input, space).expect("plans");
                let nodes = estimate_nodes(&input, &planned.plan);
                let sum: f64 = nodes.iter().map(|n| n.est.cost.total()).sum();
                let case = format!("{label} seed {} {space:?}", w.spec.seed);
                assert!(
                    (sum - planned.est_cost).abs() <= 1e-9 * planned.est_cost.abs(),
                    "{case}: nodes sum to {sum}, the plan costs {}",
                    planned.est_cost
                );
                assert_eq!(nodes[0].est.rows, planned.est_rows, "{case}");
            }
        }
    }
}

#[test]
fn probe_schedules_cost_tradeoff() {
    // Lazy probing (the paper's pseudocode) never sends more searches than
    // probe-first plus the number of distinct full keys, and both agree on
    // the answer (already covered by the oracle tests; here we check the
    // call-count relationship on the real Q3/Q4).
    for w in worlds() {
        let schema = w.server.collection().schema();
        for q in [paper::q3(&w), paper::q4(&w)] {
            let p = prepare(&q, &w.catalog, schema).expect("prepares");
            let fj = p.foreign_join();
            let ctx = ExecContext::new(&w.server);
            let eager = textjoin::core::methods::probe::probe_tuple_substitution(
                &ctx,
                &fj,
                &[0],
                ProbeSchedule::ProbeFirst,
            )
            .expect("eager runs");
            let lazy = textjoin::core::methods::probe::probe_tuple_substitution(
                &ctx,
                &fj,
                &[0],
                ProbeSchedule::Lazy,
            )
            .expect("lazy runs");
            assert_eq!(eager.table.len(), lazy.table.len());
            // Lazy sends at most one search per distinct full key plus one
            // probe per distinct probe key.
            let max_lazy = eager.report.text.invocations + lazy.table.len() as u64 + 8;
            assert!(lazy.report.text.invocations <= max_lazy);
        }
    }
}

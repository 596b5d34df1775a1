//! A tour of the single-join optimizer (paper, Section 5): how the chosen
//! method and probe columns shift as the workload statistics change, and
//! the Example 5.1 / 5.2 probe-column effects.
//!
//! ```text
//! cargo run --example optimizer_tour
//! ```

use textjoin::core::cost::formulas::cost_p_ts;
use textjoin::core::cost::params::{CostParams, JoinStatistics, PredStats};
use textjoin::core::methods::Projection;
use textjoin::core::optimizer::single::{choose_method, optimal_probe_exhaustive};
use textjoin::workload::knobs;

fn stats_at_base(d: f64) -> JoinStatistics {
    knobs::q3_base(d)
}

fn main() {
    let d = 10_000.0;
    let params = knobs::mercury_params(d);

    // --- 1. Method costs vs probe-column selectivity ---------------------
    println!("1. TS vs P1+TS as s_1 sweeps (Q3 base) — probing pays only while probes fail:\n");
    println!("   {:>5}  {:>9} {:>9}   cheaper", "s_1", "TS", "P1+TS");
    for s1 in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let stats = knobs::with_s1(knobs::q3_base(d), s1);
        let ts = params
            .price(&textjoin::core::cost::formulas::cost_ts(&params, &stats))
            .total();
        let pts = params.price(&cost_p_ts(&params, &stats, &[0])).total();
        println!(
            "   {:>5.2}  {:>8.1}s {:>8.1}s   {}",
            s1,
            ts,
            pts,
            if pts < ts { "P1+TS" } else { "TS" }
        );
    }
    let overall = choose_method(&params, &stats_at_base(d), Projection::Full).expect("candidates");
    println!(
        "\n   Across all methods the optimizer picks {} at the base point.",
        overall.label
    );

    // --- 2. Example 5.1: best probe column is not the most selective ----
    println!("\n2. Example 5.1 — the optimal probe column trades N_i against s_i·N:");
    let mut inv_only = params;
    inv_only.constants = textjoin::text::server::CostConstants {
        c_i: 1.0,
        c_p: 0.0,
        c_s: 0.0,
        c_l: 0.0,
    };
    let stats = JoinStatistics {
        n: 1000.0,
        n_k: 1000.0,
        preds: vec![
            PredStats::simple(0.10, 1.0, 900.0), // selective, many values
            PredStats::simple(0.20, 1.0, 10.0),  // less selective, few values
        ],
        sel_fanout: d,
        sel_postings: 0.0,
        sel_terms: 0,
        needs_long: false,
        short_form_sufficient: true,
    };
    let c0 = inv_only.price(&cost_p_ts(&inv_only, &stats, &[0])).total();
    let c1 = inv_only.price(&cost_p_ts(&inv_only, &stats, &[1])).total();
    println!("   probe on col 1 (s=0.10, N_1=900): {c0:>7.0} invocations");
    println!("   probe on col 2 (s=0.20, N_2= 10): {c1:>7.0} invocations  ← wins despite higher s");

    // --- 3. Example 5.2: a multi-column probe can dominate --------------
    println!("\n3. Example 5.2 — under the independent (g=k) model a 2-column probe dominates:");
    let mut ex52 = CostParams::mercury(1e6).with_g(3);
    ex52.constants = textjoin::text::server::CostConstants {
        c_i: 1.0,
        c_p: 0.0,
        c_s: 0.0,
        c_l: 0.0,
    };
    let stats = JoinStatistics {
        n: 1e5,
        n_k: 1e5,
        preds: vec![
            PredStats::simple(0.005, 1.0, 1e3),
            PredStats::simple(0.01, 1.0, 10.0),
            PredStats::simple(0.01, 1.0, 10.0),
        ],
        sel_fanout: 1e6,
        sel_postings: 0.0,
        sel_terms: 0,
        needs_long: false,
        short_form_sufficient: true,
    };
    for subset in [vec![0], vec![1], vec![0, 1], vec![1, 2]] {
        let c = ex52.price(&cost_p_ts(&ex52, &stats, &subset)).total();
        println!("   probe {subset:?}: {c:>9.0}");
    }
    let (best_cols, best) = optimal_probe_exhaustive(&ex52, &stats, cost_p_ts).expect("non-empty");
    println!(
        "   exhaustive optimum: {best_cols:?} at {:.0} — found by the bounded\n\
         search too, since |optimal| ≤ min(k, 2g) (Theorem 5.3).",
        ex52.price(&best).total()
    );
}

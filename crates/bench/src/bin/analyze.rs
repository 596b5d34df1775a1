//! Plan-quality observability report: EXPLAIN ANALYZE on the chosen Q5
//! plan, counterfactual-regret tables over the fault-free, chaos, and
//! multi-join workloads, per-tenant plan-quality columns from a served
//! stream, and both misestimation-detector scenarios (drifted constants
//! vs stale statistics). Everything is seeded and simulated — two
//! invocations print byte-identical output, and CI diffs them.

use textjoin_bench::experiments::{analyze_report, default_world, RegretRow};

fn regret_table(title: &str, rows: &[RegretRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<4} {:>5} {:<22} {:>10} {:<22} {:>10} {:>9} {:>7} {:>7}\n",
        "qry", "cands", "chosen", "actual", "best", "actual", "regret", "share", "cost q"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:>5} {:<22} {:>10.2} {:<22} {:>10.2} {:>9.2} {:>6.1}% {:>7.2}\n",
            r.query,
            r.candidates,
            r.chosen,
            r.chosen_actual,
            r.best,
            r.best_actual,
            r.regret,
            r.regret_share * 100.0,
            r.cost_q
        ));
    }
    out
}

fn main() {
    let w = default_world();
    println!(
        "Plan-quality observability — counterfactual regret and misestimation\n\
         (D = {} documents, seed = {}; all costs are simulated seconds)\n",
        w.server.doc_count(),
        w.spec.seed
    );
    let r = analyze_report(&w);

    println!("== EXPLAIN ANALYZE: chosen Q5 plan (PrL+residuals) ==");
    print!("{}", r.explain);

    println!("\n== counterfactual regret: single joins, fault-free ==");
    print!(
        "{}",
        regret_table(
            "each candidate replayed on its own charge-free sandbox",
            &r.fault_free
        )
    );

    println!("\n== counterfactual regret: single joins, transient faults (rate 0.20, <=2) ==");
    print!(
        "{}",
        regret_table("same seeded fault plan on every sandbox", &r.chaos)
    );

    println!("\n== counterfactual regret: multi-join text-method grafts ==");
    print!(
        "{}",
        regret_table(
            "chosen plan vs every text-join method grafted into the same tree",
            &r.multi
        )
    );

    println!("\n== per-tenant plan quality (served stream, analyze on) ==");
    println!(
        "{:<8} {:>9} {:>8} {:>8} {:>8}",
        "tenant", "analyzed", "p50 q", "p90 q", "max q"
    );
    for t in &r.serve {
        println!(
            "{:<8} {:>9} {:>8.2} {:>8.2} {:>8.2}",
            t.tenant, t.analyzed, t.p50_q, t.p90_q, t.max_q
        );
    }

    println!("\n== misestimation detector: server prices drifted 8x ==");
    print!("{}", r.monitor_constants);

    println!("\n== misestimation detector: statistics exported from a stale corpus ==");
    print!("{}", r.monitor_stale);
}

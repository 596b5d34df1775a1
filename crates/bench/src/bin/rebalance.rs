//! Rebalance experiment: what stats-aware routing saves and what online
//! migration costs.
//!
//! Two tables, both fully seeded and byte-identical across runs:
//!
//! 1. **Fan-out** — TS over a 4-shard server with vocabulary-based shard
//!    pruning off vs on. The pruned fan-out column is computed from the
//!    same selection masks the executor folds into
//!    `CostParams::with_scatter_fanout`, so this table and the planner's
//!    `effective_c_i` can never drift (the lockstep rule in
//!    `optimizer/multi.rs::stats_for`).
//! 2. **Amortization** — a full fault-free drain of one shard at several
//!    batch sizes: smaller batches mean finer interruption granularity
//!    but more `c_i` invocations; every charge comes from the dedicated
//!    migration bucket (`migration_usage`), disjoint from query charges.

use textjoin_bench::experiments::{default_world, rebalance_table, DST_SHARD, N_SHARDS, SRC_SHARD};
use textjoin_bench::format::table;

fn main() {
    let w = default_world();
    let t = rebalance_table(&w);
    println!(
        "Rebalance — stats-aware routing and online migration over a\n\
         {}-shard server (D = {} documents, seed = {})\n",
        N_SHARDS,
        w.server.doc_count(),
        w.spec.seed
    );

    println!("Scatter fan-out, TS per query (routing off vs on; rows asserted equal):\n");
    let fanout_rows: Vec<Vec<String>> = t
        .fanout
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.full.to_string(),
                r.pruned.to_string(),
                format!("{:.1}", r.secs_off),
                format!("{:.1}", r.secs_on),
                format!("{:+.1}", (r.secs_on / r.secs_off - 1.0) * 100.0),
                r.rows.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["Query", "shards", "plan fan-out", "secs off", "secs on", "Δ%", "rows"],
            &fanout_rows,
        )
    );
    println!();
    println!("The plan fan-out folds only the query's selection terms into the");
    println!("vocabulary masks — a sound superset the planner prices through");
    println!("effective_c_i (here every shard may match a lone selection term,");
    println!("so the plan never undercounts). Each *executed* search also");
    println!("carries its join binding and prunes finer; the Δ% column is that");
    println!("per-search pruning, always ≤ what the plan promised.\n");

    println!(
        "Migration amortization — drain shard {} into shard {} (fault-free):\n",
        SRC_SHARD, DST_SHARD
    );
    let amort_rows: Vec<Vec<String>> = t
        .amortization
        .iter()
        .map(|r| {
            vec![
                r.batch_docs.to_string(),
                r.batches.to_string(),
                r.docs.to_string(),
                r.postings.to_string(),
                r.invocations.to_string(),
                format!("{:.1}", r.total_cost),
                format!("{:.3}", r.cost_per_doc),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["batch", "batches", "docs", "postings", "inv", "cost", "cost/doc"],
            &amort_rows,
        )
    );
    println!();
    println!("Each batch buys a source leg (c_i + c_l per doc) and a");
    println!("destination leg (c_i + c_p per posting); the posting and");
    println!("document totals are batch-size invariant, so the cost/doc");
    println!("column isolates the per-invocation overhead a finer");
    println!("interruption granularity costs.");
}

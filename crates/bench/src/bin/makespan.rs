//! Makespan experiment: concurrent scatter/gather transport with hedged
//! replica reads against a replicated sharded server whose primaries run
//! slow (latency-only faults — they always answer, sometimes late).
//!
//! Every (method × query) cell runs on a fresh seeded virtual-time
//! scheduler under a per-query deadline. Legs on different shards overlap
//! up to the per-shard lane limit; a primary leg that lands above the
//! adaptive budget's latency quantile races a hedge read on the secondary
//! and the loser's charge is rebated. The table compares the serial
//! transport time (every leg issued, cancelled hedges included) against
//! the concurrent makespan, and counts hedges, cancellations, and
//! deadline crossings — none of which ever surface as an error or change
//! a result (asserted).
//!
//! The second section plans and executes Q5 twice: unbounded, then under
//! a deadline derived from the unbounded makespan, showing the executor
//! degrade probing methods TS-style under deadline pressure instead of
//! erroring — same rows, fewer text round-trips on the critical path.

use textjoin_bench::experiments::{
    deadline_demo, default_world, makespan_table, DEADLINE, METHODS, N_REPLICAS, N_SHARDS,
    SLOW_RATE,
};
use textjoin_obs::secs;

fn main() {
    let w = default_world();
    let t = makespan_table(&w);
    println!(
        "Makespan — concurrent transport over Q1–Q4, {} shards × {} replicas,\n\
         each shard's primary on a seeded slow plan (rate {}, latency-only),\n\
         per-query deadline {}s, hedged reads from the adaptive budget's\n\
         latency EWMA, losers cancelled and rebated\n\
         (D = {} documents, seed = {})\n",
        N_SHARDS,
        N_REPLICAS,
        SLOW_RATE,
        DEADLINE,
        w.server.doc_count(),
        w.spec.seed
    );
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>7} {:>8} {:>8} {:>6}",
        "method", "serial", "makespan", "speedup", "hedges", "cancels", "dl-miss", "rows"
    );
    for ((m, _), cell) in METHODS.iter().zip(&t) {
        match cell {
            Some(c) => println!(
                "{:<10} {:>9.1}s {:>9.1}s {:>7.2}x {:>7} {:>8} {:>8} {:>6}",
                m,
                secs(c.serial as i64),
                secs(c.makespan as i64),
                c.serial as f64 / c.makespan as f64,
                c.hedges,
                c.cancels,
                c.deadline_misses,
                c.rows
            ),
            None => println!("{m:<10} {:>10}", "n/a"),
        }
    }
    println!();
    println!("Every cell returns the fault-free answer (asserted): slow legs");
    println!("and deadline crossings are flagged, hedged, or degraded — never");
    println!("errors. Makespan sits strictly below serial in every cell");
    println!("(asserted): scatter legs overlap across shards.");
    println!();

    let runs = deadline_demo(&w);
    println!("Deadline degradation — Q6 (two chained text joins) planned and");
    println!("executed on the same replicated server, unbounded vs a deadline");
    println!("at 60% of the unbounded makespan:\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>8} {:>6}",
        "run", "total", "serial", "makespan", "degraded", "dl-miss", "rows"
    );
    for r in &runs {
        println!(
            "{:<14} {:>9.1}s {:>9.1}s {:>9.1}s {:>9} {:>8} {:>6}",
            r.label,
            r.total,
            secs(r.serial as i64),
            secs(r.makespan as i64),
            r.degradations,
            r.deadline_misses,
            r.rows
        );
    }
    println!();
    for r in &runs {
        println!("{}:", r.label);
        for line in r.plan.lines() {
            println!("  {line}");
        }
    }
    println!();
    println!("Under pressure the executor skips probe phases and runs probing");
    println!("text joins TS-style: same rows (asserted), no probe round-trips");
    println!("spent on pruning that can no longer pay for itself.");
}

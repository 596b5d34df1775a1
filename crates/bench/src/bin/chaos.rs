//! Chaos experiment: cost overhead of each join method under seeded
//! transient fault injection (Unavailable / Timeout / cap renegotiation)
//! with the standard retry policy absorbing the faults.
//!
//! Fault plans are bounded to 2 consecutive faults per operation, below
//! the 4-attempt retry budget, so every run completes with the fault-free
//! answer; the table shows what the robustness costs.
//!
//! With `--sharded`, the same queries run against a 4-shard scatter/gather
//! server whose shards carry independent fault plans, with the adaptive
//! retry budget steering per-shard attempts.
//!
//! With `--replicated`, every shard carries two replicas and one shard's
//! primary replica is permanently dead: every cell exercises failover
//! routing and the per-shard circuit breaker, and still returns the
//! fault-free answer.
//!
//! With `--rebalance`, every cell runs *during* a paced online migration
//! whose source primary dies after the first committed batch: queries
//! race live topology-epoch bumps, transfers drain via the surviving
//! replica, and the journal finishes every move — still returning the
//! fault-free answer.

use textjoin_bench::experiments::{
    chaos_table, default_world, rebalance_chaos_table, replicated_chaos_table, sharded_chaos_table,
    BATCH_DOCS, DEAD_SHARD, DST_SHARD, METHODS, N_REPLICAS, N_SHARDS, SRC_SHARD,
};
use textjoin_bench::format::chaos_report;

/// Which server every cell of the grid builds.
#[derive(Debug, PartialEq)]
enum Scenario {
    Single,
    Sharded,
    Replicated,
    Rebalance,
}

/// Parses the argument list (without the program name): at most one
/// scenario flag, nothing else.
fn parse_args(args: &[String]) -> Result<Scenario, String> {
    match args {
        [] => Ok(Scenario::Single),
        [flag] => match flag.as_str() {
            "--sharded" => Ok(Scenario::Sharded),
            "--replicated" => Ok(Scenario::Replicated),
            "--rebalance" => Ok(Scenario::Rebalance),
            _ => Err(format!("unknown argument {flag}")),
        },
        _ => Err("at most one scenario flag".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("chaos: {msg}");
        eprintln!("usage: chaos [--sharded | --replicated | --rebalance]");
        std::process::exit(2);
    });
    let labels = METHODS.map(|(label, _)| label);
    let w = default_world();
    match scenario {
        Scenario::Rebalance => {
            let (t, migrated_docs) = rebalance_chaos_table(&w);
            println!(
                "Rebalance chaos — total simulated cost over Q1–Q4 vs per-operation\n\
                 fault rate while an online migration drains shard {} into shard {}\n\
                 ({} docs in {}-doc batches, paced between query legs), {} shards ×\n\
                 {} replicas, source primary dead after batch 1\n\
                 (D = {} documents, seed = {}, transient faults, ≤2 consecutive on\n\
                 survivors, adaptive retry budget + journal-resume transfers)\n",
                SRC_SHARD,
                DST_SHARD,
                migrated_docs,
                BATCH_DOCS,
                N_SHARDS,
                N_REPLICAS,
                w.server.doc_count(),
                w.spec.seed
            );
            print!(
                "{}",
                chaos_report(&labels, &t.rates, &t.cells, &t.fault_cells)
            );
            println!("Every cell returns the fault-free answer (asserted) while rows");
            println!("physically move between shards mid-query: stale gathers re-");
            println!("scatter only the shards a commit touched, source transfer legs");
            println!("drain via the surviving replica once the primary dies, and the");
            println!("journal resumes interrupted batches without re-buying postings");
            println!("— every cell also drains its migration to completion.");
        }
        Scenario::Replicated => {
            let t = replicated_chaos_table(&w);
            println!(
                "Replicated chaos — total simulated cost over Q1–Q4 vs per-operation\n\
                 fault rate on the surviving replicas, {} shards × {} replicas with\n\
                 shard {}'s primary permanently dead\n\
                 (D = {} documents, seed = {}, transient faults, ≤2 consecutive on\n\
                 survivors, adaptive retry budget + per-shard circuit breaker)\n",
                N_SHARDS,
                N_REPLICAS,
                DEAD_SHARD,
                w.server.doc_count(),
                w.spec.seed
            );
            print!(
                "{}",
                chaos_report(&labels, &t.rates, &t.cells, &t.fault_cells)
            );
            println!("Every cell returns the fault-free answer (asserted) even though");
            println!("one replica never answers: gather legs fail over to the");
            println!("surviving replica, and once the per-shard breaker opens the");
            println!("dead primary is skipped entirely (probed on a fixed cadence).");
            println!("The rate-0 column is no longer free — it prices discovering");
            println!("the dead primary before the breaker opens.");
        }
        Scenario::Sharded => {
            let t = sharded_chaos_table(&w);
            println!(
                "Sharded chaos — total simulated cost over Q1–Q4 vs per-operation\n\
                 fault rate, {} shards with independent fault plans\n\
                 (D = {} documents, seed = {}, transient faults, ≤2 consecutive,\n\
                 adaptive retry budget over the 4-attempt/1s/2s/4s base policy)\n",
                N_SHARDS,
                w.server.doc_count(),
                w.spec.seed
            );
            print!(
                "{}",
                chaos_report(&labels, &t.rates, &t.cells, &t.fault_cells)
            );
            println!("Every cell returns the fault-free answer (asserted). Scatter");
            println!("charges one invocation per shard, so sharded baselines sit");
            println!("above the single-server table; the adaptive budget widens");
            println!("attempts on healthy shards and absorbs the bounded faults.");
        }
        Scenario::Single => {
            let t = chaos_table(&w);
            println!(
                "Chaos — total simulated cost over Q1–Q4 vs per-operation fault rate\n\
                 (D = {} documents, seed = {}, transient faults, ≤2 consecutive,\n\
                 retry policy: 4 attempts, 1s/2s/4s simulated backoff)\n",
                w.server.doc_count(),
                w.spec.seed
            );
            print!(
                "{}",
                chaos_report(&labels, &t.rates, &t.cells, &t.fault_cells)
            );
            println!("Every cell returns the fault-free answer (asserted); the");
            println!("overhead is retries, simulated backoff, and partially-charged");
            println!("timeouts — never a changed result.");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Scenario, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn at_most_one_known_scenario_flag() {
        assert_eq!(parse(&[]), Ok(Scenario::Single));
        assert_eq!(parse(&["--sharded"]), Ok(Scenario::Sharded));
        assert_eq!(parse(&["--replicated"]), Ok(Scenario::Replicated));
        assert_eq!(parse(&["--rebalance"]), Ok(Scenario::Rebalance));
        assert!(
            parse(&["--shraded"]).is_err(),
            "a typo is not the default table"
        );
        assert!(
            parse(&["--sharded", "--replicated"]).is_err(),
            "two scenarios"
        );
        assert!(
            parse(&["--sharded", "--sharded"]).is_err(),
            "a repeated scenario"
        );
        assert!(parse(&["trace.jsonl"]).is_err(), "no positional arguments");
    }
}

//! Continuous telemetry demo: the windowed monitor consuming the flight
//! recorder live, with all three detectors exercised on seeded workloads.
//!
//! Three sections, all byte-identical across runs:
//!
//! 1. **Skew closed loop** — the paper workload against a server whose
//!    shard 1 replicas fault transiently; the load-skew detector trips on
//!    that shard's invoice share, derives a migration advisory from the
//!    docid traffic it observed, and executing the advisory through the
//!    online migration engine measurably lowers the hot shard's share on
//!    the re-run.
//! 2. **SLO burn rate** — a healthy / degraded (slow primaries under a
//!    deadline) / recovered timeline on one continuous simulated clock;
//!    the dual-window burn rate fires during the sustained degradation
//!    and clears on recovery.
//! 3. **Cost drift** — the watchdog re-fitting the Table-2 trace stays
//!    silent on the faithful recording and flags `c_i` after a simulated
//!    mid-trace repricing.

use textjoin_bench::experiments::{
    default_world, monitor_drift_report, monitor_skew_report, monitor_slo_report, BATCH_DOCS,
    DEADLINE, N_REPLICAS, N_SHARDS, SLOW_RATE,
};

fn main() {
    let w = default_world();
    println!(
        "Monitor — windowed telemetry over the flight-recorder stream\n\
         (D = {} documents, seed = {}; clocks are simulated seconds)\n",
        w.server.doc_count(),
        w.spec.seed
    );

    let skew = monitor_skew_report(&w);
    println!(
        "== Load skew: closed loop over a {}x{} server, shard {} degraded \
         (transient rate {:.2})\n",
        N_SHARDS, N_REPLICAS, skew.hot_shard, skew.fault_rate
    );
    println!("-- phase A: observe (monitor teed into the recorder)\n");
    print!("{}", skew.before.table);
    let shares = |phase: &textjoin_bench::experiments::SkewPhase| {
        phase
            .shares
            .iter()
            .enumerate()
            .map(|(i, s)| format!("s{i}={:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("\nledger shares (whole phase): {}", shares(&skew.before));
    let a = &skew.before.advice[0];
    println!(
        "advice taken: shard{} -> shard{} docs [{},{}) ({} hits), executed in \
         batches of {} ({} docs migrated)\n",
        a.src, a.dst, a.lo, a.hi, a.hits, BATCH_DOCS, skew.migrated_docs
    );
    println!("-- phase B: same workload after executing the advice\n");
    print!("{}", skew.after.table);
    println!("\nledger shares (whole phase): {}", shares(&skew.after));
    println!(
        "max shard share: {:.1}% -> {:.1}%\n",
        skew.before.max_share * 100.0,
        skew.after.max_share * 100.0
    );

    let slo = monitor_slo_report(&w);
    println!(
        "== SLO burn rate: healthy / slow-primary episode (rate {:.2}, \
         deadline {:.0}s) / recovery\n",
        SLOW_RATE, DEADLINE
    );
    print!("{}", slo.table);
    println!(
        "\n{} deadline misses and {} hedges over the timeline; alert \
         transitions: {}\n",
        slo.misses,
        slo.hedges,
        slo.transitions
            .iter()
            .map(|(w, f)| format!("w{w}:{}", if *f { "fire" } else { "clear" }))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let drift = monitor_drift_report(&w);
    println!(
        "== Cost drift: watchdog re-fit over the Table-2 trace every 2 \
         windows of {:.0}s\n",
        drift.window_secs
    );
    println!("clean trace: {} drift alerts", drift.clean_alerts);
    println!(
        "after a {:.1}x invocation repricing at the halfway clock:",
        drift.repricing
    );
    for (component, configured, fitted) in &drift.flagged {
        println!("  flagged {component}: configured {configured:.6} fitted {fitted:.6}");
    }
}

//! Continuous telemetry: windowed monitor, advice closed loop, SLO burn.

use std::rc::Rc;

use textjoin_core::methods::ExecContext;
use textjoin_core::retry::{RetryBudget, RetryPolicy};
use textjoin_obs::{
    ns, parse_jsonl, secs, Advice, Event, EventKind, FanoutSink, JsonlSink, Monitor, MonitorConfig,
    Recorder, Sink,
};
use textjoin_text::faults::FaultPlan;
use textjoin_text::rebalance::MigrationPlan;
use textjoin_text::shard::{Partition, ShardedTextServer};
use textjoin_workload::world::World;

use super::chaos::table2_trace;
use super::scenario::{
    begin_drain, cell_seed, cluster, drain, paper_queries, partition, run_budgeted, run_method_ctx,
    scheduler, slow_primaries, world_params, BATCH_DOCS, DEADLINE, N_REPLICAS, N_SHARDS,
};

/// One observed phase of the monitor's skew closed loop: the rendered
/// per-window health table plus the ledger-side ground truth the windows
/// summarize (per-shard invoice shares over the whole phase).
#[derive(Debug, Clone)]
pub struct SkewPhase {
    /// `render_windows` output for the phase.
    pub table: String,
    /// Advisory migrations the monitor derived during the phase.
    pub advice: Vec<Advice>,
    /// Per-shard share of the total query invoice (`shard_usage`,
    /// fractions summing to 1).
    pub shares: Vec<f64>,
    /// The largest entry of `shares`.
    pub max_share: f64,
}

/// The skew closed loop over an [`N_SHARDS`] × [`N_REPLICAS`] server:
/// observe a degraded shard, execute the monitor's advice through the
/// migration engine in [`BATCH_DOCS`]-document batches, observe again.
#[derive(Debug, Clone)]
pub struct MonitorSkewReport {
    /// The shard whose replicas carry the transient fault plan.
    pub hot_shard: usize,
    /// Per-operation fault probability on the hot shard's replicas.
    pub fault_rate: f64,
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// Documents the executed advice actually migrated.
    pub migrated_docs: u64,
    /// Phase A: the skewed workload, monitor attached.
    pub before: SkewPhase,
    /// Phase B: the same workload after executing the first advice.
    pub after: SkewPhase,
}

/// The SLO burn-rate episode: healthy traffic, a degraded episode of slow
/// primaries (`SLOW_RATE`) under the [`DEADLINE`], then recovery — one
/// continuous monitored timeline.
#[derive(Debug, Clone)]
pub struct MonitorSloReport {
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// `render_windows` output for the whole timeline.
    pub table: String,
    /// SLO alert transitions `(window, firing)` in order.
    pub transitions: Vec<(u64, bool)>,
    /// Deadline misses summed over all windows.
    pub misses: u64,
    /// Hedged reads summed over all windows.
    pub hedges: u64,
}

/// The drift watchdog on a recorded workload: silent on the faithful
/// trace, flagging within one re-fit after a mid-trace repricing.
#[derive(Debug, Clone)]
pub struct MonitorDriftReport {
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// Drift alerts on the unmodified trace (must be 0).
    pub clean_alerts: usize,
    /// The simulated repricing factor applied to `c_i` halfway through
    /// the perturbed replay.
    pub repricing: f64,
    /// Components flagged on the perturbed replay:
    /// `(component, configured, fitted)`.
    pub flagged: Vec<(&'static str, f64, f64)>,
}

/// Builds the skew scenario's server: a replicated sharded server whose
/// `hot_shard` replicas carry independent bounded transient fault plans —
/// retries and backoff inflate that shard's invoice share well above its
/// even split, which is exactly the signal the skew detector watches.
fn skew_scenario_server(partition: &Partition, hot_shard: usize, rate: f64) -> ShardedTextServer {
    let mut sharded = cluster(partition, N_REPLICAS);
    for r in 0..N_REPLICAS {
        sharded
            .replica_mut(hot_shard, r)
            .set_fault_plan(FaultPlan::transient(0x5EA7 ^ ((r as u64) << 32), rate, 2));
    }
    sharded
}

/// Runs the full method × query workload against `sharded` with a live
/// monitor teed next to a JSONL trace sink, then proves the offline path
/// agrees: replaying the parsed JSONL through a fresh monitor must
/// reproduce the live windows and alerts byte-for-byte.
fn run_monitored_phase(w: &World, sharded: &ShardedTextServer, cfg: &MonitorConfig) -> SkewPhase {
    let jsonl = Rc::new(JsonlSink::new());
    let mon = Rc::new(Monitor::new(cfg.clone()));
    let tee = Rc::new(FanoutSink::new(vec![
        jsonl.clone() as Rc<dyn Sink>,
        mon.clone(),
    ]));
    sharded.set_recorder(Some(Recorder::new(tee)));
    // One budget for the whole phase: its adaptive state carrying over
    // from query to query is part of what the monitor observes.
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(sharded, &budget);
    for pq in &paper_queries(w) {
        for (_, kind, cols) in pq.methods() {
            // Bounded transient faults never error.
            let _ = run_method_ctx(&ctx, &pq.prepared, kind, cols);
        }
    }
    mon.finish();
    sharded.set_recorder(None);

    // Live tee and offline replay must agree exactly — same code path,
    // same windows, same alerts.
    let events = parse_jsonl(&jsonl.contents()).expect("recorded trace parses");
    let replayed = Monitor::replay(cfg.clone(), &events);
    assert_eq!(
        replayed.render_table(),
        mon.render_table(),
        "offline replay diverged from the live monitor"
    );

    let totals: Vec<f64> = (0..N_SHARDS)
        .map(|i| sharded.shard_usage(i).total_cost())
        .collect();
    let sum: f64 = totals.iter().sum();
    let shares: Vec<f64> = totals.iter().map(|t| t / sum).collect();
    let max_share = shares.iter().cloned().fold(0.0, f64::max);
    SkewPhase {
        table: mon.render_table(),
        advice: mon.advice(),
        shares,
        max_share,
    }
}

/// The tentpole closed loop, end to end: (A) run the paper workload
/// against a server whose shard 1 is degraded, with the windowed monitor
/// teed into the flight recorder; the skew detector trips on shard 1's
/// invoice share and derives a migration advisory from the docid traffic
/// it observed. (B) execute exactly that advisory through the online
/// migration engine ([`MigrationPlan::from_advice`]), then run the same
/// workload again — the hot shard's invoice share must drop, which the
/// `monitor` test pins. Fully seeded and byte-identical across runs.
pub fn monitor_skew_report(w: &World) -> MonitorSkewReport {
    const HOT_SHARD: usize = 1;
    const FAULT_RATE: f64 = 0.35;
    const WINDOW_SECS: f64 = 400.0;

    let cfg = MonitorConfig::new(WINDOW_SECS).with_skew(400_000, 320_000);

    let partition = partition(w);
    let before_server = skew_scenario_server(&partition, HOT_SHARD, FAULT_RATE);
    let before = run_monitored_phase(w, &before_server, &cfg);
    let advice = before
        .advice
        .first()
        .expect("the degraded shard must trip the skew detector")
        .clone();
    assert_eq!(
        advice.src, HOT_SHARD,
        "advice must target the degraded shard"
    );

    // The hot shard's replicas keep faulting transiently while it drains.
    let mut after_server = skew_scenario_server(&partition, HOT_SHARD, FAULT_RATE);
    let migrated_docs = begin_drain(
        &mut after_server,
        MigrationPlan::from_advice(&advice, BATCH_DOCS),
    );
    drain(&after_server);
    let after = run_monitored_phase(w, &after_server, &cfg);

    MonitorSkewReport {
        hot_shard: HOT_SHARD,
        fault_rate: FAULT_RATE,
        window_secs: WINDOW_SECS,
        migrated_docs,
        before,
        after,
    }
}

/// The SLO burn-rate monitor over a three-episode timeline sharing one
/// recorder (so the simulated clock runs continuously): a healthy episode,
/// a degraded episode in which every shard's primary replica is slow and
/// each query runs under the makespan deadline (hedges and deadline misses
/// are the SLO-threatening events), then a healthy recovery episode. The
/// dual-window burn rate ignores the first stray bad events, fires during
/// the sustained degradation, and clears during recovery.
pub fn monitor_slo_report(w: &World) -> MonitorSloReport {
    const WINDOW_SECS: f64 = 600.0;

    let queries = paper_queries(w);
    let partition = partition(w);
    let cfg = MonitorConfig::new(WINDOW_SECS).with_slo(2, 6, 2.0);
    let mon = Rc::new(Monitor::new(cfg));
    let rec = Recorder::new(mon.clone() as Rc<dyn Sink>);

    for episode in 0..3u32 {
        let degraded = episode == 1;
        for (qi, pq) in queries.iter().enumerate() {
            for (mi, kind, cols) in pq.methods() {
                let mut sharded = cluster(&partition, N_REPLICAS);
                if degraded {
                    slow_primaries(&mut sharded, cell_seed(0x510, qi, mi, 0));
                }
                sharded.set_recorder(Some(rec.clone()));
                let sched = scheduler(Some(DEADLINE));
                // Latency-only faults never error.
                let _ = run_budgeted(&sharded, Some(&sched), &pq.prepared, kind, cols);
            }
        }
    }
    mon.finish();

    let transitions: Vec<(u64, bool)> = mon
        .alerts()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SloAlert { window, firing, .. } => Some((window, firing)),
            _ => None,
        })
        .collect();
    let (misses, hedges) = mon
        .windows()
        .iter()
        .fold((0, 0), |(m, h), w| (m + w.deadline_misses, h + w.hedges));
    MonitorSloReport {
        window_secs: WINDOW_SECS,
        table: mon.render_table(),
        transitions,
        misses,
        hedges,
    }
}

/// The drift watchdog on the recorded Table-2 workload. The unmodified
/// trace is priced exactly at the configured Mercury constants, so the
/// periodic re-fit stays silent. The perturbed replay simulates the server
/// repricing invocations 1.5× halfway through the trace — the watchdog
/// must flag `c_i` (and only components that actually moved) at its next
/// re-fit over the trailing window.
pub fn monitor_drift_report(w: &World) -> MonitorDriftReport {
    const WINDOW_SECS: f64 = 150.0;
    const REPRICING: f64 = 1.5;

    let params = world_params(w);
    let cfg = MonitorConfig::new(WINDOW_SECS)
        .with_baseline(
            params.constants.c_i,
            params.constants.c_p,
            params.constants.c_s,
            params.constants.c_l,
        )
        .with_drift(2, 4);
    let events = table2_trace(w);

    let clean = Monitor::replay(cfg.clone(), &events);
    let clean_alerts = clean
        .alerts()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DriftAlert { .. }))
        .count();

    // Mid-trace repricing: from the halfway clock on, every invocation
    // costs 1.5× — the charges stay linear, just in a moved c_i.
    let half = events.last().map(|e| e.clock / 2.0).unwrap_or(0.0);
    let perturbed: Vec<Event> = events
        .iter()
        .map(|ev| {
            let mut ev = ev.clone();
            if ev.clock >= half {
                if let EventKind::Call { charge, .. } = &mut ev.kind {
                    charge.ns_invocation = ns(secs(charge.ns_invocation) * REPRICING);
                }
            }
            ev
        })
        .collect();
    let mon = Monitor::replay(cfg, &perturbed);
    let flagged: Vec<(&'static str, f64, f64)> = mon
        .alerts()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DriftAlert {
                component,
                configured,
                fitted,
                drifted: true,
                ..
            } => Some((component, configured, fitted)),
            _ => None,
        })
        .collect();
    MonitorDriftReport {
        window_secs: WINDOW_SECS,
        clean_alerts,
        repricing: REPRICING,
        flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::default_world;

    #[test]
    fn monitor_skew_closed_loop_reduces_the_hot_share() {
        let w = default_world();
        let r = monitor_skew_report(&w);
        // run_monitored_phase itself asserts offline replay == live tee;
        // here pin the loop's semantics. The advice targets the degraded
        // shard (asserted inside) and actually moved documents.
        assert!(r.migrated_docs > 0, "the advice must migrate something");
        let adv = &r.before.advice[0];
        assert_eq!(adv.src, r.hot_shard);
        assert!(adv.hits > 0 && adv.lo < adv.hi);
        // Executing the advice measurably reduces the hot shard's share
        // of the query invoice on the identical re-run.
        assert!(
            r.after.shares[r.hot_shard] < r.before.shares[r.hot_shard],
            "hot shard share must drop: {:?} -> {:?}",
            r.before.shares,
            r.after.shares
        );
        assert!(r.after.max_share < r.before.max_share);
    }

    #[test]
    fn monitor_slo_burn_fires_during_degradation_and_clears() {
        let w = default_world();
        let r = monitor_slo_report(&w);
        assert!(r.misses > 0, "the deadline never bit");
        assert!(r.hedges > 0, "no hedge ever fired");
        assert!(
            r.transitions.first().is_some_and(|&(_, f)| f),
            "the first SLO transition must be a fire: {:?}",
            r.transitions
        );
        assert!(
            r.transitions.iter().any(|&(_, f)| !f),
            "the alert must clear after the episode: {:?}",
            r.transitions
        );
        // Edge-triggered: transitions strictly alternate.
        for pair in r.transitions.windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "duplicate edge: {:?}", r.transitions);
        }
    }

    #[test]
    fn monitor_drift_flags_repricing_and_stays_silent_when_clean() {
        let w = default_world();
        let r = monitor_drift_report(&w);
        assert_eq!(r.clean_alerts, 0, "faithful trace must not flag drift");
        assert!(
            r.flagged.iter().any(|(c, ..)| *c == "c_i"),
            "the repriced component must be flagged: {:?}",
            r.flagged
        );
        for (component, configured, fitted) in &r.flagged {
            assert!(
                (fitted - configured).abs() > 0.25 * configured.abs(),
                "{component} flagged inside tolerance"
            );
        }
    }
}

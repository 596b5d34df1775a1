//! The windowed monitor's acceptance tests: the advice closed loop runs
//! end to end through the migration engine, and the drift watchdog flags
//! a repricing within one trailing window while staying silent on a
//! faithful trace.
//!
//! The monitor's *passivity* (attaching one never changes a result row or
//! a ledger field) is pinned separately in `tests/audit.rs`.

use std::rc::Rc;

use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::{ExecContext, ForeignJoin, MethodError, MethodOutcome};
use textjoin::core::retry::{RetryBudget, RetryPolicy};
use textjoin::obs::{Event, EventKind, Monitor, MonitorConfig, Recorder};
use textjoin::text::faults::FaultPlan;
use textjoin::text::rebalance::{MigrationPlan, MoveStatus};
use textjoin::text::server::TextServer;
use textjoin::text::shard::ShardedTextServer;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

const N_SHARDS: usize = 4;
const N_REPLICAS: usize = 2;
const PARTITION_SEED: u64 = 0x5AD;
const HOT_SHARD: usize = 1;
const FAULT_RATE: f64 = 0.35;

fn compact_world(seed: u64) -> World {
    World::generate(WorldSpec {
        seed,
        background_docs: 120,
        students: 30,
        projects: 10,
        ..WorldSpec::default()
    })
}

fn run_one(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    method: &str,
) -> Result<MethodOutcome, MethodError> {
    match method {
        "TS" => textjoin::core::methods::ts::tuple_substitution(ctx, fj, true),
        "RTP" => textjoin::core::methods::rtp::relational_text_processing(ctx, fj),
        "SJ" => textjoin::core::methods::sj::semi_join(ctx, fj),
        "P+TS" => textjoin::core::methods::probe::probe_tuple_substitution(
            ctx,
            fj,
            &[0],
            ProbeSchedule::ProbeFirst,
        ),
        "P+RTP" => textjoin::core::methods::probe::probe_rtp(ctx, fj, &[0]),
        other => panic!("unknown method {other}"),
    }
}

fn methods_for(fj: &ForeignJoin<'_>) -> Vec<&'static str> {
    let mut m = vec!["TS", "SJ", "P+TS", "P+RTP"];
    if !fj.selections.is_empty() {
        m.insert(1, "RTP");
    }
    m
}

/// A replicated server whose `HOT_SHARD` replicas fault transiently —
/// retries and backoff inflate that shard's invoice share, which is the
/// signal the skew detector watches.
fn degraded_server(w: &World) -> ShardedTextServer {
    let mut s =
        ShardedTextServer::replicated(w.server.collection(), N_SHARDS, N_REPLICAS, PARTITION_SEED);
    for r in 0..N_REPLICAS {
        s.replica_mut(HOT_SHARD, r).set_fault_plan(FaultPlan::transient(
            0x5EA7 ^ ((r as u64) << 32),
            FAULT_RATE,
            2,
        ));
    }
    s
}

/// Runs the compact paper workload on `s` with a live monitor attached,
/// returning the monitor and the per-shard ledger invoice shares.
fn monitored_workload(w: &World, s: &ShardedTextServer, cfg: MonitorConfig) -> (Rc<Monitor>, Vec<f64>) {
    let schema = w.server.collection().schema();
    let mon = Rc::new(Monitor::new(cfg));
    s.set_recorder(Some(Recorder::new(mon.clone())));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(s, &budget);
    for q in [paper::q3(w), paper::q4(w)] {
        let p = textjoin::core::query::prepare(&q, &w.catalog, schema)
            .expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            run_one(&ctx, &fj, method).expect("bounded faults never exhaust retries");
        }
    }
    mon.finish();
    s.set_recorder(None);
    let totals: Vec<f64> = (0..N_SHARDS).map(|i| s.shard_usage(i).total_cost()).collect();
    let sum: f64 = totals.iter().sum();
    (mon, totals.iter().map(|t| t / sum).collect())
}

/// The tentpole acceptance: the skew detector trips on the degraded
/// shard, its advice converts to a [`MigrationPlan`] and drains through
/// the online migration engine, and the identical workload afterwards
/// books a measurably lower invoice share on that shard.
#[test]
fn advice_closed_loop_reduces_the_hot_shard_share() {
    let w = compact_world(7);
    let cfg = || MonitorConfig::new(100.0).with_skew(400_000, 320_000);

    let before_server = degraded_server(&w);
    let (mon, shares_before) = monitored_workload(&w, &before_server, cfg());
    let advice = mon.advice();
    let adv = advice.first().expect("the degraded shard must trip the skew detector");
    assert_eq!(adv.src, HOT_SHARD, "advice targets the degraded shard");
    assert!(adv.lo < adv.hi && adv.hits > 0);
    // The advisory also surfaced on the alert stream, disjoint from the
    // recorded trace (its own dense sequence numbers).
    let alerts = mon.alerts();
    assert!(alerts
        .iter()
        .any(|e| matches!(e.kind, EventKind::RebalanceAdvice { .. })));
    for (i, ev) in alerts.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "alert stream has its own sequence");
    }

    // Execute exactly the advised plan through the migration engine. The
    // degraded replicas keep faulting; refused batches resume from the
    // journal, so the drain terminates.
    let mut after_server = degraded_server(&w);
    let journal = after_server.begin_migration(MigrationPlan::from_advice(adv, 16));
    let staged: u64 = journal.entries.iter().map(|e| e.docs).sum();
    assert!(staged > 0, "the advised range must stage documents");
    let mut steps = 0u32;
    while !after_server.journal().expect("journal exists").finished() {
        let _ = after_server.migrate_batch();
        steps += 1;
        assert!(steps < 10_000, "advice migration failed to drain");
    }
    assert!(after_server
        .journal()
        .expect("journal exists")
        .entries
        .iter()
        .all(|e| e.status == MoveStatus::Done));

    let (_, shares_after) = monitored_workload(&w, &after_server, cfg());
    assert!(
        shares_after[HOT_SHARD] < shares_before[HOT_SHARD],
        "executing the advice must lower the hot shard's invoice share: \
         {shares_before:?} -> {shares_after:?}"
    );
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    assert!(
        max(&shares_after) < max(&shares_before),
        "the advised move must lower the max share: {shares_before:?} -> {shares_after:?}"
    );
}

/// Records a healthy single-server run of Q3/Q4 (priced exactly at the
/// Mercury constants) for the drift tests.
fn healthy_trace(w: &World) -> Vec<Event> {
    use textjoin::obs::RingSink;

    let schema = w.server.collection().schema();
    let s = TextServer::new(w.server.collection().clone());
    let sink = Rc::new(RingSink::unbounded());
    s.set_recorder(Some(Recorder::new(sink.clone())));
    let ctx = ExecContext::new(&s);
    for q in [paper::q3(w), paper::q4(w)] {
        let p = textjoin::core::query::prepare(&q, &w.catalog, schema)
            .expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            run_one(&ctx, &fj, method).expect("healthy server never faults");
        }
    }
    sink.events()
}

/// The drift watchdog stays silent replaying the faithful trace and flags
/// the repriced component within one trailing window of the perturbation.
#[test]
fn drift_watchdog_flags_repricing_within_one_trailing_window() {
    use textjoin::core::cost::params::CostParams;

    const WINDOW: f64 = 40.0;
    const TRAILING: usize = 4;

    let w = compact_world(7);
    let events = healthy_trace(&w);
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let cfg = || {
        MonitorConfig::new(WINDOW)
            .with_baseline(
                params.constants.c_i,
                params.constants.c_p,
                params.constants.c_s,
                params.constants.c_l,
            )
            .with_drift(1, TRAILING)
    };

    // Faithful replay: the trace is priced exactly at the baseline, so
    // the periodic re-fit never alerts.
    let clean = Monitor::replay(cfg(), &events);
    assert!(
        clean
            .alerts()
            .iter()
            .all(|e| !matches!(e.kind, EventKind::DriftAlert { .. })),
        "faithful trace must not flag drift"
    );

    // Inject a repricing: from the halfway clock on, every invocation
    // costs 1.5×. The charges stay linear — just in a moved c_i.
    let half = events.last().expect("trace is non-empty").clock / 2.0;
    let perturbed: Vec<Event> = events
        .iter()
        .map(|ev| {
            let mut ev = ev.clone();
            if ev.clock >= half {
                if let EventKind::Call { charge, .. } = &mut ev.kind {
                    charge.time_invocation *= 1.5;
                }
            }
            ev
        })
        .collect();
    let mon = Monitor::replay(cfg(), &perturbed);
    let flags: Vec<(u64, &'static str)> = mon
        .alerts()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DriftAlert { window, component, drifted: true, .. } => {
                Some((window, component))
            }
            _ => None,
        })
        .collect();
    let first_c_i = flags
        .iter()
        .find(|(_, c)| *c == "c_i")
        .map(|&(w, _)| w)
        .expect("the repriced c_i must be flagged");
    let perturbed_from = (half / WINDOW).floor() as u64;
    assert!(
        first_c_i >= perturbed_from,
        "flagged before the perturbation began: w{first_c_i} < w{perturbed_from}"
    );
    assert!(
        first_c_i < perturbed_from + TRAILING as u64,
        "flag must land within one trailing window of the repricing: \
         w{first_c_i} vs perturbation at w{perturbed_from} (trail {TRAILING})"
    );
}

/// Offline replay of a live-monitored run's trace reproduces the live
/// windows and alerts byte-for-byte — the two ingestion paths can never
/// drift apart.
#[test]
fn offline_replay_matches_the_live_tee() {
    use textjoin::obs::{parse_jsonl, FanoutSink, JsonlSink, Sink};

    let w = compact_world(7);
    let s = degraded_server(&w);
    let schema = w.server.collection().schema();
    let cfg = || MonitorConfig::new(100.0).with_skew(400_000, 320_000);
    let jsonl = Rc::new(JsonlSink::new());
    let live = Rc::new(Monitor::new(cfg()));
    let tee = Rc::new(FanoutSink::new(vec![
        jsonl.clone() as Rc<dyn Sink>,
        live.clone(),
    ]));
    s.set_recorder(Some(Recorder::new(tee)));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);
    let q = paper::q3(&w);
    let p = textjoin::core::query::prepare(&q, &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();
    for method in methods_for(&fj) {
        run_one(&ctx, &fj, method).expect("bounded faults never exhaust retries");
    }
    live.finish();

    let events = parse_jsonl(&jsonl.contents()).expect("recorded trace parses");
    let replayed = Monitor::replay(cfg(), &events);
    assert_eq!(
        replayed.render_table(),
        live.render_table(),
        "offline replay diverged from the live monitor"
    );
    assert_eq!(replayed.windows(), live.windows());
    assert_eq!(replayed.advice(), live.advice());
}

//! Trace↔ledger audit: the flight recorder must be a *faithful, passive*
//! observer of the cost model.
//!
//! Faithful: summing the charge fields of every recorded event reproduces
//! the server's `Usage` ledger exactly, field for field, counters and time
//! ticks alike — for every join method, on both the single
//! server and the sharded scatter/gather server, with and without injected
//! faults. Nothing is charged off-trace and nothing is traced un-charged.
//!
//! Passive: attaching a recorder (even a discard-everything sink) must not
//! add a single entry to any `Usage` field — observation never perturbs
//! the costs the experiments report.

use std::rc::Rc;

use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::{ExecContext, ForeignJoin, MethodError, MethodOutcome};
use textjoin::core::retry::{RetryBudget, RetryPolicy};
use textjoin::obs::{Charge, Event, NoopSink, Recorder, RingSink};
use textjoin::text::faults::FaultPlan;
use textjoin::text::server::{TextServer, Usage};
use textjoin::text::shard::ShardedTextServer;
use textjoin::text::TextService;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

fn compact_world(seed: u64) -> World {
    World::generate(WorldSpec {
        seed,
        background_docs: 120,
        students: 30,
        projects: 10,
        ..WorldSpec::default()
    })
}

/// Field-wise sum of every chargeable event in a trace.
fn charge_sum(events: &[Event]) -> Charge {
    let mut sum = Charge::default();
    for ev in events {
        if let Some(c) = ev.kind.charge() {
            sum.accumulate(c);
        }
    }
    sum
}

/// The audit proper: every field must match exactly. (A sharded aggregate
/// sums shard ledgers in shard order while the trace accumulated them in
/// temporal order; integer sums agree in any order.)
fn assert_reconciles(label: &str, sum: Charge, ledger: &Usage) {
    assert_eq!(
        sum.invocations, ledger.invocations as i64,
        "{label}: invocations"
    );
    assert_eq!(sum.rejected, ledger.rejected as i64, "{label}: rejected");
    assert_eq!(
        sum.postings, ledger.postings_processed as i64,
        "{label}: postings"
    );
    assert_eq!(
        sum.docs_short, ledger.docs_short as i64,
        "{label}: docs_short"
    );
    assert_eq!(sum.docs_long, ledger.docs_long as i64, "{label}: docs_long");
    assert_eq!(sum.faults, ledger.faults as i64, "{label}: faults");
    assert_eq!(sum.retries, ledger.retries as i64, "{label}: retries");
    assert_eq!(
        sum.ns_invocation, ledger.ns_invocation as i64,
        "{label}: ns_invocation"
    );
    assert_eq!(
        sum.ns_processing, ledger.ns_processing as i64,
        "{label}: ns_processing"
    );
    assert_eq!(
        sum.ns_transmission, ledger.ns_transmission as i64,
        "{label}: ns_transmission"
    );
    assert_eq!(
        sum.ns_backoff, ledger.ns_backoff as i64,
        "{label}: ns_backoff"
    );
}

/// Runs one method through an explicit context, tolerating the typed
/// failures bounded sharded chaos can legitimately produce — the audit
/// must reconcile the trace against the ledger on *both* paths.
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

#[test]
fn trace_charges_reconcile_with_single_server_ledger() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let mut audited = 0u32;
    let mut faulted_traces = 0u32;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for rate in [0.0, 0.3] {
            for method in methods_for(&fj) {
                let mut s = TextServer::new(w.server.collection().clone());
                // ≤2 consecutive faults: below the 4-attempt policy, so
                // every run completes and the trace covers the retries.
                s.set_fault_plan(FaultPlan::transient(11, rate, 2));
                let sink = Rc::new(RingSink::unbounded());
                s.set_recorder(Some(Recorder::new(sink.clone())));
                let ctx = ExecContext::new(&s);
                run_one(&ctx, &fj, method).expect("bounded faults never exhaust retries");
                let label = format!("{qname}/{method}@{rate}");
                let events = sink.events();
                assert_reconciles(&label, charge_sum(&events), &s.usage());
                audited += 1;
                if s.usage().faults > 0 {
                    faulted_traces += 1;
                }
            }
        }
    }
    assert!(audited >= 16, "audit matrix too small ({audited})");
    assert!(
        faulted_traces > 0,
        "the faulted half of the matrix must actually fault"
    );
}

/// The recorder's clock is the ledger's total, bit for bit: both are the
/// one exact tick sum, read in seconds once. A clock that summed each
/// charge's seconds instead would drift from the ledger in the last bits.
#[test]
fn recorder_clock_is_the_ledger_total_bit_for_bit() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p = textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema)
        .expect("paper query prepares");
    let fj = p.foreign_join();
    let mut s = TextServer::new(w.server.collection().clone());
    s.set_fault_plan(FaultPlan::transient(11, 0.3, 2));
    let rec = Recorder::new(Rc::new(NoopSink));
    s.set_recorder(Some(rec.clone()));
    let ctx = ExecContext::new(&s);
    for method in methods_for(&fj) {
        run_one(&ctx, &fj, method).expect("bounded faults never exhaust retries");
        let ledger = s.usage();
        assert_eq!(
            rec.clock().to_bits(),
            ledger.total_cost().to_bits(),
            "after {method}: clock {} vs ledger {}",
            rec.clock(),
            ledger.total_cost()
        );
    }
    assert!(s.usage().faults > 0, "the run must fault");
}

#[test]
fn trace_charges_reconcile_with_sharded_aggregate_ledger() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let mut audited = 0u32;
    let mut faulted_traces = 0u32;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for rate in [0.0, 0.3] {
            for method in methods_for(&fj) {
                let mut s = ShardedTextServer::new(w.server.collection(), 4, 0x5AD);
                for i in 0..4 {
                    s.shard_mut(i).set_fault_plan(FaultPlan::transient(
                        11 ^ ((i as u64) << 24),
                        rate,
                        2,
                    ));
                }
                let sink = Rc::new(RingSink::unbounded());
                s.set_recorder(Some(Recorder::new(sink.clone())));
                let budget = RetryBudget::new(RetryPolicy::standard());
                let ctx = ExecContext::with_budget(&s, &budget);
                // Bounded sharded chaos may still surface a typed partial
                // failure; the trace must reconcile either way.
                let _ = run_one(&ctx, &fj, method);
                let label = format!("sharded {qname}/{method}@{rate}");
                let events = sink.events();
                assert_reconciles(&label, charge_sum(&events), &s.usage());
                audited += 1;
                if s.usage().faults > 0 {
                    faulted_traces += 1;
                }
            }
        }
    }
    assert!(audited >= 16, "audit matrix too small ({audited})");
    assert!(
        faulted_traces > 0,
        "the faulted half of the matrix must actually fault"
    );
}

#[test]
fn trace_charges_reconcile_with_replicated_failover_ledger() {
    use textjoin::obs::EventKind;

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let mut audited = 0u32;
    let mut failover_traces = 0u32;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for rate in [0.0, 0.3] {
            for method in methods_for(&fj) {
                // 4 shards × 2 replicas, shard 2's primary permanently
                // dead, independent bounded transient plans everywhere
                // else: every trace contains failover (and possibly
                // breaker) events, and all of them are charge-free — the
                // audit must still reconcile exactly.
                let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
                let dead = s.primary_of(2);
                for i in 0..4 {
                    for r in 0..2 {
                        let plan = if (i, r) == (2, dead) {
                            FaultPlan::dead(11)
                        } else {
                            FaultPlan::transient(
                                11 ^ ((i as u64) << 24) ^ ((r as u64) << 32),
                                rate,
                                2,
                            )
                        };
                        s.replica_mut(i, r).set_fault_plan(plan);
                    }
                }
                let sink = Rc::new(RingSink::unbounded());
                s.set_recorder(Some(Recorder::new(sink.clone())));
                let budget = RetryBudget::new(RetryPolicy::standard());
                let ctx = ExecContext::with_budget(&s, &budget);
                // Bounded faults on the survivors can still (rarely) take
                // both replicas of a shard down at once; the trace must
                // reconcile either way.
                let _ = run_one(&ctx, &fj, method);
                let label = format!("replicated {qname}/{method}@{rate}");
                let events = sink.events();
                assert_reconciles(&label, charge_sum(&events), &s.usage());
                audited += 1;
                if events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::Failover { .. }))
                {
                    failover_traces += 1;
                }
            }
        }
    }
    assert!(audited >= 16, "audit matrix too small ({audited})");
    assert_eq!(
        failover_traces, audited,
        "every run scatters to the dead primary, so every trace fails over"
    );
}

/// The sampled-audit invariant, measured on the full replicated chaos
/// grid (q1–q4 × methods × fault rates, dead primary on shard 2 — the
/// same shape as the bench `chaos-replicated` table): for every cell,
///
/// - `charge_sum(kept events) + dropped_charge` reconciles with the
///   ledger exactly — sampling never changes what the ledger charges;
/// - the kept stream is a strict subsequence of the full stream;
/// - every chaos *signal* survives: faulted calls on closed-breaker
///   shards, circuit transitions, and at least one failover per outage
///   episode (steady-state failover repeats and open-breaker probe
///   repeats are volume, sampled at the span rate);
///
/// and in aggregate 1/16 sampling shrinks the recorded event count by
/// at least 8× — the affordability claim behind sampled tracing.
#[test]
fn sampled_audit_reconciles_and_reduces_on_replicated_chaos_grid() {
    use std::collections::BTreeSet;
    use textjoin::obs::{is_hot, EventKind, SamplePolicy, SampledSink, Sink};

    struct Tee {
        full: Rc<RingSink>,
        sampled: Rc<SampledSink>,
    }
    impl Sink for Tee {
        fn record(&self, ev: &Event) {
            self.full.record(ev);
            self.sampled.record(ev);
        }
    }

    let w = World::generate(WorldSpec::default());
    let schema = w.server.collection().schema();
    let mut total_full = 0u64;
    let mut total_kept = 0u64;
    for rate in [0.0, 0.05, 0.1, 0.2] {
        for (qname, q) in [
            ("q1", paper::q1(&w)),
            ("q2", paper::q2(&w)),
            ("q3", paper::q3(&w)),
            ("q4", paper::q4(&w)),
        ] {
            let p = textjoin::core::query::prepare(&q, &w.catalog, schema)
                .expect("paper query prepares");
            let fj = p.foreign_join();
            for method in methods_for(&fj) {
                let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
                let dead = s.primary_of(2);
                for i in 0..4 {
                    for r in 0..2 {
                        let plan = if (i, r) == (2, dead) {
                            FaultPlan::dead(11)
                        } else {
                            FaultPlan::transient(
                                11 ^ ((i as u64) << 24) ^ ((r as u64) << 32),
                                rate,
                                2,
                            )
                        };
                        s.replica_mut(i, r).set_fault_plan(plan);
                    }
                }
                let full = Rc::new(RingSink::unbounded());
                let kept = Rc::new(RingSink::unbounded());
                let sampled = Rc::new(SampledSink::new(
                    kept.clone(),
                    SamplePolicy::one_in(0xCAFE, 16),
                ));
                s.set_recorder(Some(Recorder::new(Rc::new(Tee {
                    full: full.clone(),
                    sampled: sampled.clone(),
                }))));
                let budget = RetryBudget::new(RetryPolicy::standard());
                let ctx = ExecContext::with_budget(&s, &budget);
                let _ = run_one(&ctx, &fj, method);
                let label = format!("sampled {qname}/{method}@{rate}");

                // Reconciliation: kept charges + dropped charges == ledger.
                let mut sum = charge_sum(&kept.events());
                sum.accumulate(&sampled.dropped_charge());
                assert_reconciles(&label, sum, &s.usage());

                // Subsequence: kept seqs appear in the full stream, in order.
                let full_events = full.events();
                let kept_events = kept.events();
                let full_seqs: Vec<u64> = full_events.iter().map(|e| e.seq).collect();
                let kept_seqs: Vec<u64> = kept_events.iter().map(|e| e.seq).collect();
                assert!(
                    kept_seqs.windows(2).all(|w| w[0] < w[1]),
                    "{label}: kept stream out of order"
                );
                let full_set: BTreeSet<u64> = full_seqs.iter().copied().collect();
                assert!(
                    kept_seqs.iter().all(|s| full_set.contains(s)),
                    "{label}: kept an event the recorder never emitted"
                );

                // Chaos-signal retention under the episode rules.
                let kept_set: BTreeSet<u64> = kept_seqs.iter().copied().collect();
                let mut open: BTreeSet<usize> = BTreeSet::new();
                let mut failovers = (0u64, 0u64);
                for ev in &full_events {
                    match &ev.kind {
                        EventKind::Failover { .. } => {
                            failovers.0 += 1;
                            if kept_set.contains(&ev.seq) {
                                failovers.1 += 1;
                            }
                        }
                        EventKind::CircuitOpen { shard, .. } => {
                            open.insert(*shard);
                            assert!(kept_set.contains(&ev.seq), "{label}: circuit event lost");
                        }
                        EventKind::CircuitClose { shard, .. } => {
                            open.remove(shard);
                            assert!(kept_set.contains(&ev.seq), "{label}: circuit event lost");
                        }
                        EventKind::Call {
                            shard: Some(sh),
                            err: Some(_),
                            ..
                        } if open.contains(sh) => {} // open-breaker probe: may be sampled
                        k if is_hot(k) => {
                            assert!(kept_set.contains(&ev.seq), "{label}: faulted call lost");
                        }
                        _ => {}
                    }
                }
                assert!(
                    failovers.0 > 0,
                    "{label}: the dead primary must force failovers"
                );
                assert!(
                    failovers.1 >= 1,
                    "{label}: the failover story vanished from the sample"
                );

                total_full += full_events.len() as u64;
                total_kept += kept_events.len() as u64;
            }
        }
    }
    let ratio = total_full as f64 / total_kept as f64;
    assert!(
        ratio >= 8.0,
        "1/16 sampling must shrink the grid's event volume ≥8× (got {ratio:.2}: \
         {total_full} full vs {total_kept} kept)"
    );
}

/// Hedged reads charge the race loser and then rebate it: the trace must
/// carry both sides — the loser's `Call` charges *and* a `Rebate` with the
/// exact inverse — so the audit reconciles against the post-rebate ledger,
/// and the scheduler's hedge/cancel counters must agree with the emitted
/// `Hedge`/`Cancel` events one for one.
#[test]
fn hedge_and_cancel_traces_reconcile_with_the_rebated_ledger() {
    use textjoin::core::sched::{SchedConfig, Scheduler};
    use textjoin::obs::EventKind;

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let mut hedged_traces = 0u32;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
            for i in 0..4 {
                let pri = s.primary_of(i);
                s.replica_mut(i, pri)
                    .set_fault_plan(FaultPlan::slow(11 ^ ((i as u64) << 24), 0.5));
            }
            let sink = Rc::new(RingSink::unbounded());
            s.set_recorder(Some(Recorder::new(sink.clone())));
            let budget = RetryBudget::new(RetryPolicy::standard());
            let sched = Scheduler::new(SchedConfig::new(0x7E97));
            let ctx = ExecContext::with_budget(&s, &budget).with_transport(&sched);
            run_one(&ctx, &fj, method).expect("slow replicas never fail the join");
            let label = format!("hedged {qname}/{method}");
            let events = sink.events();
            assert_reconciles(&label, charge_sum(&events), &s.usage());

            let hedges = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Hedge { .. }))
                .count() as u64;
            let cancels = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Cancel { .. }))
                .count() as u64;
            let rebates = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Rebate { .. }))
                .count() as u64;
            assert_eq!(hedges, sched.hedges(), "{label}: hedge events vs counter");
            assert_eq!(
                cancels,
                sched.cancels(),
                "{label}: cancel events vs counter"
            );
            assert_eq!(hedges, cancels, "{label}: every race has exactly one loser");
            assert!(
                rebates >= cancels,
                "{label}: every cancelled leg must carry its inverse charge"
            );
            if hedges > 0 {
                hedged_traces += 1;
            }
        }
    }
    assert!(hedged_traces > 0, "no trace in the matrix ever hedged");
}

/// Tail-based sampling under hedging and deadlines: a head-dropped span
/// that turns out to contain a `Cancel` or `DeadlineMiss` is retroactively
/// kept, so the sampled trace never loses a cancellation or deadline
/// story — while `charge_sum(kept) + dropped_charge` still reconciles with
/// the rebated ledger exactly.
#[test]
fn tail_sampling_keeps_cancellation_and_deadline_stories() {
    use std::collections::BTreeSet;
    use textjoin::core::sched::{SchedConfig, Scheduler};
    use textjoin::obs::{EventKind, SamplePolicy, SampledSink, Sink};

    struct Tee {
        full: Rc<RingSink>,
        sampled: Rc<SampledSink>,
    }
    impl Sink for Tee {
        fn record(&self, ev: &Event) {
            self.full.record(ev);
            self.sampled.record(ev);
        }
    }

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let mut cancel_stories = 0u64;
    let mut miss_stories = 0u64;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
            for i in 0..4 {
                let pri = s.primary_of(i);
                s.replica_mut(i, pri)
                    .set_fault_plan(FaultPlan::slow(11 ^ ((i as u64) << 24), 0.5));
            }
            let full = Rc::new(RingSink::unbounded());
            let kept = Rc::new(RingSink::unbounded());
            let sampled = Rc::new(SampledSink::new(
                kept.clone(),
                SamplePolicy::one_in(0xCAFE, 16).with_tail_keep(),
            ));
            s.set_recorder(Some(Recorder::new(Rc::new(Tee {
                full: full.clone(),
                sampled: sampled.clone(),
            }))));
            let budget = RetryBudget::new(RetryPolicy::standard());
            // A deliberately tight deadline (5 s, in ticks): the first
            // crossing emits a DeadlineMiss — flagged and traced, never an
            // error.
            let sched = Scheduler::new(SchedConfig::new(0x7E97).with_deadline(5_000_000_000));
            let ctx = ExecContext::with_budget(&s, &budget).with_transport(&sched);
            run_one(&ctx, &fj, method).expect("deadline misses never error");
            let label = format!("tail {qname}/{method}");

            // The sampled-audit invariant holds with tail retention on.
            let mut sum = charge_sum(&kept.events());
            sum.accumulate(&sampled.dropped_charge());
            assert_reconciles(&label, sum, &s.usage());

            // Every cancellation and deadline miss survives sampling.
            let kept_set: BTreeSet<u64> = kept.events().iter().map(|e| e.seq).collect();
            for ev in &full.events() {
                match ev.kind {
                    EventKind::Cancel { .. } => {
                        cancel_stories += 1;
                        assert!(kept_set.contains(&ev.seq), "{label}: cancel lost");
                    }
                    EventKind::DeadlineMiss { .. } => {
                        miss_stories += 1;
                        assert!(kept_set.contains(&ev.seq), "{label}: deadline miss lost");
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(cancel_stories > 0, "the matrix never cancelled a hedge");
    assert!(miss_stories > 0, "the matrix never crossed its deadline");
}

/// Attaching a recorder with the discard-everything sink must leave every
/// `Usage` field byte-identical to an unrecorded run — observation is free
/// by contract.
#[test]
fn noop_recorder_never_perturbs_the_ledger() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for rate in [0.0, 0.3] {
            for method in methods_for(&fj) {
                let run = |record: bool| -> Usage {
                    let mut s = TextServer::new(w.server.collection().clone());
                    s.set_fault_plan(FaultPlan::transient(11, rate, 2));
                    if record {
                        s.set_recorder(Some(Recorder::new(Rc::new(NoopSink))));
                    }
                    let ctx = ExecContext::new(&s);
                    run_one(&ctx, &fj, method).expect("bounded faults complete");
                    s.usage()
                };
                let bare = run(false);
                let recorded = run(true);
                assert_eq!(
                    bare, recorded,
                    "{qname}/{method}@{rate}: a no-op recorder changed the ledger"
                );
            }
        }
    }
}

/// The passivity contract extended to the *windowed monitor*: wiring the
/// full telemetry pipeline (monitor teed with a JSONL sink, exactly as
/// the bench harness attaches it) must leave every method's result
/// multiset and every ledger view — the single server's `Usage`, the
/// sharded aggregate, and each per-shard view — byte-identical to the
/// unmonitored run. Detectors may fire; they never charge.
#[test]
fn monitor_never_perturbs_results_or_ledgers() {
    use textjoin::obs::{FanoutSink, JsonlSink, Monitor, MonitorConfig, Sink};
    use textjoin::rel::table::Table;

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            // Single faulted server: result rows + the one ledger.
            let run_single = |monitored: bool| -> (Table, Usage) {
                let mut s = TextServer::new(w.server.collection().clone());
                s.set_fault_plan(FaultPlan::transient(11, 0.3, 2));
                let mon = Rc::new(Monitor::new(MonitorConfig::new(50.0)));
                if monitored {
                    let tee = Rc::new(FanoutSink::new(vec![
                        Rc::new(JsonlSink::new()) as Rc<dyn Sink>,
                        mon.clone(),
                    ]));
                    s.set_recorder(Some(Recorder::new(tee)));
                }
                let ctx = ExecContext::new(&s);
                let out = run_one(&ctx, &fj, method).expect("bounded faults complete");
                mon.finish();
                (out.table, s.usage())
            };
            let bare = run_single(false);
            let monitored = run_single(true);
            assert_eq!(
                bare.0, monitored.0,
                "{qname}/{method}: the monitor changed a result row"
            );
            assert_eq!(
                bare.1, monitored.1,
                "{qname}/{method}: the monitor changed the single-server ledger"
            );

            // Replicated sharded server with a degraded shard: result
            // rows, the aggregate ledger, and all four per-shard views.
            let run_sharded = |monitored: bool| -> (Table, Usage, Vec<Usage>) {
                let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
                for r in 0..2 {
                    s.replica_mut(1, r).set_fault_plan(FaultPlan::transient(
                        0x5EA7 ^ ((r as u64) << 32),
                        0.3,
                        2,
                    ));
                }
                let mon = Rc::new(Monitor::new(
                    MonitorConfig::new(50.0).with_skew(400_000, 320_000),
                ));
                if monitored {
                    s.set_recorder(Some(Recorder::new(mon.clone())));
                }
                let budget = RetryBudget::new(RetryPolicy::standard());
                let ctx = ExecContext::with_budget(&s, &budget);
                let out = run_one(&ctx, &fj, method).expect("bounded faults complete");
                mon.finish();
                let shards: Vec<Usage> = (0..4).map(|i| s.shard_usage(i)).collect();
                (out.table, s.usage(), shards)
            };
            let bare = run_sharded(false);
            let monitored = run_sharded(true);
            assert_eq!(
                bare.0, monitored.0,
                "{qname}/{method}: the monitor changed a sharded result row"
            );
            assert_eq!(
                bare.1, monitored.1,
                "{qname}/{method}: the monitor changed the aggregate ledger"
            );
            assert_eq!(
                bare.2, monitored.2,
                "{qname}/{method}: the monitor changed a per-shard ledger view"
            );
        }
    }
}

/// The trace↔ledger audit extended to transfers: an online migration runs
/// to completion twice — once fault-free (the control) and once with the
/// source primary permanently dead *and* a scripted destination outage
/// that interrupts one batch after a partially-charged timeout, forcing a
/// journal resume. In both runs, summing every recorded `Call` charge
/// (`search`/`xfer.out`/`xfer.in` alike) reconciles exactly with the
/// aggregate ledger (which folds the dedicated migration bucket). And the
/// interrupted run buys exactly the control's posting and document
/// totals: the timeout's delivered prefix is journaled, so resumption
/// ingests only the remainder — transferred postings are never re-bought.
#[test]
fn migration_transfer_traces_reconcile_and_never_rebuy_postings() {
    use textjoin::text::doc::DocId;
    use textjoin::text::faults::Fault;
    use textjoin::text::rebalance::{MigrationPlan, Move, MoveStatus};

    let w = compact_world(7);
    let n = w.server.collection().doc_count() as u32;
    let drain = |configure: &dyn Fn(&mut ShardedTextServer)| -> (Vec<Event>, Usage, Usage) {
        let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
        let sink = Rc::new(RingSink::unbounded());
        s.set_recorder(Some(Recorder::new(sink.clone())));
        s.begin_migration(MigrationPlan::new(
            vec![Move {
                range: (DocId(0), DocId(n)),
                src: 1,
                dst: 3,
            }],
            16,
        ));
        configure(&mut s);
        let mut steps = 0u32;
        while !s.journal().expect("journal exists").finished() {
            let _ = s.migrate_batch();
            steps += 1;
            assert!(steps < 10_000, "migration failed to drain");
        }
        assert!(s
            .journal()
            .expect("journal exists")
            .entries
            .iter()
            .all(|e| e.status == MoveStatus::Done));
        (sink.events(), s.usage(), s.migration_usage())
    };

    // Control: healthy replicas end to end.
    let (ctrl_events, ctrl_usage, ctrl_mig) = drain(&|_s| {});
    assert_reconciles("control migration", charge_sum(&ctrl_events), &ctrl_usage);
    assert_eq!(ctrl_mig.faults, 0);
    assert!(ctrl_mig.postings_processed > 0);

    // Interrupted: the source primary is dead for the whole drain (every
    // batch's out-leg fails over to the replica), and the destination
    // shard scripts a Timeout-then-Unavailable outage on one batch — the
    // fetched batch stays in flight and the next call resumes it.
    let (evts, usage, mig) = drain(&|s: &mut ShardedTextServer| {
        let src_pri = s.primary_of(1);
        s.replica_mut(1, src_pri)
            .set_fault_plan(FaultPlan::dead(0xD1E));
        let dst_pri = s.primary_of(3);
        s.replica_mut(3, dst_pri)
            .set_fault_plan(FaultPlan::scripted(vec![(
                1,
                Fault::Timeout { after_postings: 7 },
            )]));
        s.replica_mut(3, 1 - dst_pri)
            .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
    });
    assert_reconciles("interrupted migration", charge_sum(&evts), &usage);
    assert!(
        mig.faults >= 3,
        "dead primary legs + the scripted outage are booked"
    );
    let jsonl: Vec<String> = evts.iter().map(|e| e.to_jsonl()).collect();
    assert!(
        jsonl.iter().any(|l| l.contains("migration_resume")),
        "the interrupted batch went through the journal-resume path"
    );
    assert!(jsonl.iter().any(|l| l.contains("xfer.out")));
    assert!(jsonl.iter().any(|l| l.contains("xfer.in")));

    // Exactly-once delivery, proven by the ledger: the interrupted run
    // ingests precisely the control's posting total (the timeout's prefix
    // plus the resumed remainder — never the prefix twice), and reads
    // each document's long form off a source replica exactly once.
    assert_eq!(mig.postings_processed, ctrl_mig.postings_processed);
    assert_eq!(mig.docs_long, ctrl_mig.docs_long);
}

/// The passivity contract extended to EXPLAIN ANALYZE: switching
/// `ExecHooks::analyze` on must leave the multi-join result multiset and
/// every ledger view — the single faulted server's `Usage`, the
/// replicated sharded aggregate, and each per-shard view — byte-identical
/// to the unanalyzed run, on both paper multi-join queries. Attribution
/// only reads ledgers the executor's methods already booked, and the
/// estimate walk prices plan nodes without issuing a single text call.
#[test]
fn explain_analyze_never_perturbs_results_or_ledgers() {
    use textjoin::core::cost::params::CostParams;
    use textjoin::core::exec::{execute_prepared, prepare_plan, ExecHooks};
    use textjoin::core::optimizer::multi::ExecutionSpace;
    use textjoin::rel::table::Table;

    let w = compact_world(7);
    for (qname, q) in [("q5", paper::q5(&w)), ("q6", paper::q6(&w))] {
        // Single faulted server: result rows + the one ledger.
        let run_single = |analyze: bool| -> (Table, Usage, bool) {
            let mut s = TextServer::new(w.server.collection().clone());
            s.set_fault_plan(FaultPlan::transient(11, 0.2, 2));
            let params = CostParams::mercury(s.doc_count() as f64);
            let (input, planned) = prepare_plan(
                &q,
                &w.catalog,
                &s,
                params,
                ExecutionSpace::PrlResiduals,
                None,
                None,
            )
            .expect("paper query plans");
            let hooks = ExecHooks {
                analyze,
                ..ExecHooks::default()
            };
            let out = execute_prepared(&input, &planned, &w.catalog, &s, &hooks)
                .expect("bounded faults complete");
            (out.table, s.usage(), out.plan_quality.is_some())
        };
        let bare = run_single(false);
        let analyzed = run_single(true);
        assert_eq!(
            bare.0, analyzed.0,
            "{qname}: EXPLAIN ANALYZE changed a result row"
        );
        assert_eq!(
            bare.1, analyzed.1,
            "{qname}: EXPLAIN ANALYZE changed the single-server ledger"
        );
        assert!(!bare.2, "{qname}: unanalyzed run grew a PlanQuality");
        assert!(analyzed.2, "{qname}: analyzed run must attach PlanQuality");

        // Replicated sharded server with a degraded shard: result rows,
        // the aggregate ledger, and all four per-shard views.
        let run_sharded = |analyze: bool| -> (Table, Usage, Vec<Usage>) {
            let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
            for r in 0..2 {
                s.replica_mut(1, r).set_fault_plan(FaultPlan::transient(
                    0x5EA7 ^ ((r as u64) << 32),
                    0.2,
                    2,
                ));
            }
            let params = CostParams::mercury(s.doc_count() as f64);
            let (input, planned) = prepare_plan(
                &q,
                &w.catalog,
                &s,
                params,
                ExecutionSpace::PrlResiduals,
                None,
                None,
            )
            .expect("paper query plans");
            let budget = RetryBudget::new(RetryPolicy::standard());
            let hooks = ExecHooks {
                analyze,
                retry_budget: Some(&budget),
                ..ExecHooks::default()
            };
            let out = execute_prepared(&input, &planned, &w.catalog, &s, &hooks)
                .expect("bounded faults complete");
            let shards: Vec<Usage> = (0..4).map(|i| s.shard_usage(i)).collect();
            (out.table, s.usage(), shards)
        };
        let bare = run_sharded(false);
        let analyzed = run_sharded(true);
        assert_eq!(
            bare.0, analyzed.0,
            "{qname}: EXPLAIN ANALYZE changed a sharded result row"
        );
        assert_eq!(
            bare.1, analyzed.1,
            "{qname}: EXPLAIN ANALYZE changed the aggregate ledger"
        );
        assert_eq!(
            bare.2, analyzed.2,
            "{qname}: EXPLAIN ANALYZE changed a per-shard ledger view"
        );
    }

    // Serving sessions: the config's `analyze` flag must leave every
    // tenant's invoice (and the result counts behind them) untouched —
    // only the plan-quality columns appear.
    use textjoin::core::serve::{Backend, ServeConfig, ServeSession, TenantSpec};
    let run_serve = |analyze: bool| -> Vec<(String, Usage, usize)> {
        let server = TextServer::new(w.server.collection().clone());
        let mut cfg = ServeConfig::new(CostParams::mercury(server.doc_count() as f64));
        cfg.analyze = analyze;
        let tenants = vec![
            TenantSpec::new("alpha", 1e9, 1),
            TenantSpec::new("beta", 1e9, 1),
        ];
        let stream = vec![
            (0usize, paper::q5(&w)),
            (1, paper::q6(&w)),
            (0, paper::q6(&w)),
            (1, paper::q5(&w)),
        ];
        let report =
            ServeSession::new(Backend::Single(&server), &w.catalog, tenants, cfg).run(&stream);
        report
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.invoice, t.cost_qs.len()))
            .collect()
    };
    let bare = run_serve(false);
    let analyzed = run_serve(true);
    for ((bn, bi, bq), (an, ai, aq)) in bare.iter().zip(analyzed.iter()) {
        assert_eq!(bn, an);
        assert_eq!(bi, ai, "{bn}: the analyze flag changed a tenant invoice");
        assert_eq!(*bq, 0, "{bn}: unanalyzed session recorded a cost_q");
        assert!(*aq > 0, "{an}: analyzed session must record cost_qs");
    }
}

/// The counterfactual-regret replays run every unchosen candidate on a
/// sandboxed clone of the collection: repeating them must be
/// byte-identical (the regret tables CI diffs), and the audited world's
/// real server ledger must never move — shadow execution is free by
/// contract.
#[test]
fn regret_replays_are_deterministic_and_never_touch_the_audited_ledger() {
    use textjoin_bench::experiments::{multi_join_regret, single_join_regret};

    let w = compact_world(7);
    let before = w.server.usage();

    let a = single_join_regret(&w, None);
    let b = single_join_regret(&w, None);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "fault-free regret table drifted between runs"
    );
    let c = single_join_regret(&w, Some((0.2, 2)));
    let d = single_join_regret(&w, Some((0.2, 2)));
    assert_eq!(
        format!("{c:?}"),
        format!("{d:?}"),
        "chaos regret table drifted between runs"
    );
    let (m1, e1) = multi_join_regret(&w);
    let (m2, e2) = multi_join_regret(&w);
    assert_eq!(e1, e2, "EXPLAIN ANALYZE render drifted between runs");
    assert_eq!(
        format!("{m1:?}"),
        format!("{m2:?}"),
        "multi-join regret table drifted between runs"
    );
    for rows in [&a, &c, &m1] {
        for r in rows {
            assert!(
                r.best_actual <= r.chosen_actual + 1e-9,
                "{}: best candidate costs more than the chosen one",
                r.query
            );
            assert!(r.regret >= 0.0 && r.regret_share >= 0.0);
        }
    }
    assert_eq!(
        w.server.usage(),
        before,
        "counterfactual replays charged the audited server"
    );
}

/// The invoice audit: every call returns its invoice, and what a context
/// adds up from them is a record of its own, independent of the servers'
/// ledgers. The two must agree, `u64` for `u64` on every field.
fn assert_invoices_sum_to(label: &str, invoices: &Usage, ledger_delta: &Usage) {
    let fields = |u: &Usage| {
        [
            ("invocations", u.invocations),
            ("rejected", u.rejected),
            ("postings_processed", u.postings_processed),
            ("docs_short", u.docs_short),
            ("docs_long", u.docs_long),
            ("ns_invocation", u.ns_invocation),
            ("ns_processing", u.ns_processing),
            ("ns_transmission", u.ns_transmission),
            ("faults", u.faults),
            ("retries", u.retries),
            ("ns_backoff", u.ns_backoff),
            ("cache_hits", u.cache_hits),
            ("cache_misses", u.cache_misses),
            ("cache_evicted", u.cache_evicted),
        ]
    };
    for ((name, billed), (_, booked)) in fields(invoices).into_iter().zip(fields(ledger_delta)) {
        assert_eq!(billed, booked, "{label}: {name}");
    }
}

/// Every topology the transport drives — a lone server, 4×1 and 4×2 with
/// a dead primary under transient faults, a hedging scheduler over slow
/// primaries, and a migration paced under the queries — runs every method
/// of q3 and q4 through one context, and the invoices that context
/// received sum to the aggregate ledger's delta: faulted attempts,
/// backoffs, hedges, rebates and paced transfers included.
#[test]
fn the_invoices_a_run_received_sum_to_the_aggregate_ledger_delta() {
    use textjoin::core::sched::{SchedConfig, Scheduler};
    use textjoin::text::doc::DocId;
    use textjoin::text::rebalance::{MigrationPlan, Move};

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let n = w.server.collection().doc_count() as u32;
    let transient = |seed: u64| FaultPlan::transient(seed, 0.3, 2);
    let sharded = |replicas: usize| {
        let mut s = ShardedTextServer::replicated(w.server.collection(), 4, replicas, 0x5AD);
        for i in 0..4 {
            for r in 0..replicas {
                let plan = transient(11 ^ ((i as u64) << 24) ^ ((r as u64) << 32));
                s.replica_mut(i, r).set_fault_plan(plan);
            }
        }
        s
    };
    let lone = || {
        let mut s = TextServer::new(w.server.collection().clone());
        s.set_fault_plan(transient(11));
        s
    };
    let dead_primary = || {
        let mut s = sharded(2);
        let dead = s.primary_of(2);
        s.replica_mut(2, dead).set_fault_plan(FaultPlan::dead(11));
        s
    };
    let slow_primaries = || {
        let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
        for i in 0..4 {
            let pri = s.primary_of(i);
            s.replica_mut(i, pri)
                .set_fault_plan(FaultPlan::slow(11 ^ ((i as u64) << 24), 0.5));
        }
        s
    };
    let paced = || {
        let mut s = sharded(2);
        s.begin_migration(MigrationPlan::new(
            vec![Move {
                range: (DocId(0), DocId(n)),
                src: 1,
                dst: 3,
            }],
            8,
        ));
        s.set_migration_pacing(2);
        s
    };
    let mut paced_transfers = 0;
    let mut hedges = 0;
    for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
        let p =
            textjoin::core::query::prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let fj = p.foreign_join();
        for method in methods_for(&fj) {
            let topologies: Vec<(&str, Box<dyn TextService>)> = vec![
                ("lone", Box::new(lone())),
                ("4x1", Box::new(sharded(1))),
                ("4x2 dead primary", Box::new(dead_primary())),
                ("4x2 hedged", Box::new(slow_primaries())),
                ("4x2 paced", Box::new(paced())),
            ];
            for (topology, s) in &topologies {
                let sched = Scheduler::new(SchedConfig::new(0x7E97));
                let budget = RetryBudget::new(RetryPolicy::standard());
                let ctx = ExecContext::with_budget(s.as_ref(), &budget).with_transport(&sched);
                let before = s.usage();
                let mig_before = s.as_sharded().map(|sh| sh.migration_usage());
                // Bounded chaos may surface a typed failure; what was
                // billed must reconcile either way.
                let _ = run_one(&ctx, &fj, method);
                let label = format!("{topology} {qname}/{method}");
                let delta = s.usage().since(&before);
                assert_invoices_sum_to(&label, &ctx.invoice.get(), &delta);
                hedges += sched.hedges();
                if let (Some(sh), Some(m)) = (s.as_sharded(), mig_before) {
                    paced_transfers += sh.migration_usage().since(&m).invocations;
                }
            }
        }
    }
    assert!(hedges > 0, "the hedged topology never hedged");
    assert!(paced_transfers > 0, "the paced topology never transferred");
}

/// A serving session bills each query what its execution received; with
/// the migration bucket, those invoices are everything the servers booked
/// over the session.
#[test]
fn a_serve_session_invoices_sum_to_the_aggregate_ledger_delta() {
    use textjoin::core::cost::params::CostParams;
    use textjoin::core::serve::{Backend, ServeConfig, ServeSession, TenantSpec};
    use textjoin::obs::MonitorConfig;

    let w = compact_world(7);
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    s.replica_mut(2, dead).set_fault_plan(FaultPlan::dead(11));
    for r in 0..2 {
        s.replica_mut(1, r).set_fault_plan(FaultPlan::transient(
            0x5EA7 ^ ((r as u64) << 32),
            0.35,
            2,
        ));
    }
    let (before, mig_before) = (s.usage(), s.migration_usage());
    let mut cfg = ServeConfig::new(CostParams::mercury(w.server.doc_count() as f64));
    cfg.quantum = 1e9;
    cfg.monitor = Some(MonitorConfig::new(100.0).with_skew(400_000, 320_000));
    cfg.migration_budget = 1e9;
    let tenants = vec![TenantSpec::new("a", 1e9, 1), TenantSpec::new("b", 60.0, 1)];
    let stream: Vec<_> = (0..8)
        .map(|i| {
            (
                i % 2,
                if i % 3 == 0 {
                    paper::q5(&w)
                } else {
                    paper::q6(&w)
                },
            )
        })
        .collect();
    let report = ServeSession::new(Backend::Elastic(&mut s), &w.catalog, tenants, cfg).run(&stream);
    let mut billed = s.migration_usage().since(&mig_before);
    for r in &report.records {
        billed.accumulate(&r.invoice);
    }
    assert!(
        report.records.iter().any(|r| r.invoice.faults > 0),
        "the fixture must bill faulted attempts"
    );
    assert_invoices_sum_to("serve session", &billed, &s.usage().since(&before));
}

/// A context's invoice is a running sum, and a method reports what it
/// added: one context reused across two methods reports exactly what two
/// fresh contexts report over the same calls, and it holds their sum.
#[test]
fn a_reused_context_reports_what_fresh_contexts_report() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p = textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema)
        .expect("paper query prepares");
    let fj = p.foreign_join();
    let server = || {
        let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
        for i in 0..4 {
            for r in 0..2 {
                let seed = 11 ^ ((i as u64) << 24) ^ ((r as u64) << 32);
                s.replica_mut(i, r)
                    .set_fault_plan(FaultPlan::transient(seed, 0.3, 2));
            }
        }
        s
    };
    let (reused_server, fresh_server) = (server(), server());
    let (reused_budget, fresh_budget) = (
        RetryBudget::new(RetryPolicy::standard()),
        RetryBudget::new(RetryPolicy::standard()),
    );
    let reused = ExecContext::with_budget(&reused_server, &reused_budget);
    let mut sum = Usage::default();
    for method in ["TS", "P+RTP"] {
        let fresh = ExecContext::with_budget(&fresh_server, &fresh_budget);
        let again = run_one(&reused, &fj, method).expect("the method runs");
        let once = run_one(&fresh, &fj, method).expect("the method runs");
        assert_eq!(again.report, once.report, "{method}: the reused context");
        // A report also counts its probe-cache traffic, which is free and
        // was never invoiced.
        let invoiced = Usage {
            cache_hits: 0,
            cache_misses: 0,
            cache_evicted: 0,
            ..once.report.text
        };
        assert_eq!(fresh.invoice.get(), invoiced, "{method}: the fresh context");
        sum.accumulate(&invoiced);
    }
    assert!(sum.faults > 0, "the fixture must bill faulted attempts");
    assert_eq!(reused.invoice.get(), sum);
}

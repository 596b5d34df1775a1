//! Trace-driven cost-model re-calibration, end to end.
//!
//! The flight recorder stamps every server call with the exact `Charge`
//! the ledger booked. Calibration inverts that: replay a recorded trace,
//! fit the per-unit constants by least squares over the charge vectors,
//! and hand the planner a `CostParams` grounded in observation instead of
//! configuration. These tests close the loop on a server whose *true*
//! constants differ from the configured ones — the situation the paper's
//! §4.1 calibration experiment simulates.

use std::rc::Rc;

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::{plan_and_execute, plan_and_execute_with, row_strings};
use textjoin::core::methods::ExecContext;
use textjoin::core::optimizer::multi::ExecutionSpace;
use textjoin::obs::{calibrate_trace, Event, Recorder, RingSink, SamplePolicy, SampledSink, Sink};
use textjoin::text::faults::FaultPlan;
use textjoin::text::server::{CostConstants, TextServer};
use textjoin::text::shard::{Partition, ShardedTextServer};
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

/// A server whose true per-unit prices differ from every configured
/// default — nothing the calibrator could recover by accident.
fn skewed_constants() -> CostConstants {
    CostConstants {
        c_i: 4.5,
        c_p: 0.000_25,
        c_s: 0.042,
        c_l: 1.75,
    }
}

/// Runs a retrieval-heavy method mix against `server`, recording into
/// `sink`s already attached: q3 and q4 under TS (with long-form
/// reconstruction) and P+RTP — enough variety that invocations, postings,
/// short forms, and long forms all vary independently across calls.
fn run_workload(w: &World, server: &TextServer) {
    let schema = server.collection().schema();
    for q in [paper::q3(w), paper::q4(w)] {
        let p = textjoin::core::query::prepare(&q, &w.catalog, schema).expect("query prepares");
        let fj = p.foreign_join();
        let ctx = ExecContext::new(server);
        textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).expect("TS runs");
        textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).expect("P+RTP runs");
    }
}

#[test]
fn calibrator_recovers_generating_constants_within_5_percent() {
    let w = compact_world(7);
    let truth = skewed_constants();
    let server = TextServer::with_constants(w.server.collection().clone(), truth);
    let sink = Rc::new(RingSink::unbounded());
    server.set_recorder(Some(Recorder::new(sink.clone())));
    run_workload(&w, &server);

    let cal = calibrate_trace(&sink.events());
    for (fit, want) in [
        (&cal.c_i, truth.c_i),
        (&cal.c_p, truth.c_p),
        (&cal.c_s, truth.c_s),
        (&cal.c_l, truth.c_l),
    ] {
        assert!(
            fit.determined,
            "{}: the workload must determine every component",
            fit.name
        );
        let rel = (fit.fitted - want).abs() / want;
        assert!(
            rel <= 0.05,
            "{}: fitted {} vs true {} ({}% off)",
            fit.name,
            fit.fitted,
            want,
            rel * 100.0
        );
    }
    // Linear pricing, full trace: the fit is exact, not merely within 5%.
    assert!(
        cal.rms_residual() < 1e-9,
        "linear charges must fit with ~zero residual, got {}",
        cal.rms_residual()
    );
}

#[test]
fn calibration_from_a_sampled_trace_recovers_the_same_constants() {
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

    // Head sampling keeps or drops whole spans, and a single-server run
    // is one span per method — all or nothing. Sample where sampling is
    // actually deployed: the sharded scatter/gather topology, whose
    // per-gather spans make a 1/16 sample a real sub-workload. The full
    // default world supplies enough gathers to matter.
    let w = World::generate(WorldSpec::default());
    let truth = skewed_constants();
    let partition = Partition::new(w.server.collection(), 4, 0x5AD);
    let server = ShardedTextServer::over(&partition, 1, truth);
    let full = Rc::new(RingSink::unbounded());
    let kept = Rc::new(RingSink::unbounded());
    let sampled = Rc::new(SampledSink::new(
        kept.clone(),
        SamplePolicy::one_in(0xCAFE, 16),
    ));
    server.set_recorder(Some(Recorder::new(Rc::new(Tee {
        full: full.clone(),
        sampled,
    }))));
    let schema = w.server.collection().schema();
    for q in [paper::q3(&w), paper::q4(&w)] {
        let p = textjoin::core::query::prepare(&q, &w.catalog, schema).expect("query prepares");
        let fj = p.foreign_join();
        let ctx = ExecContext::new(&server);
        textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).expect("TS runs");
        textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).expect("P+RTP runs");
    }

    // The keep decision never inspects charges, so the kept calls are an
    // unbiased charge sample: whatever the sample determines, it
    // determines *exactly* (every row still lies on the true price plane).
    let cal = calibrate_trace(&kept.events());
    assert!(
        kept.events().len() * 4 < full.events().len(),
        "sampling must actually drop most of this healthy trace"
    );
    let mut determined = 0;
    for (fit, want) in [
        (&cal.c_i, truth.c_i),
        (&cal.c_p, truth.c_p),
        (&cal.c_s, truth.c_s),
        (&cal.c_l, truth.c_l),
    ] {
        if fit.determined {
            determined += 1;
            let rel = (fit.fitted - want).abs() / want;
            assert!(
                rel <= 0.05,
                "{}: sampled fit {} vs true {}",
                fit.name,
                fit.fitted,
                want
            );
        }
    }
    assert!(
        determined >= 3,
        "a 1/16 sample of this workload must still determine most components"
    );
}

#[test]
fn planner_adopts_calibrated_params_and_preserves_results() {
    let w = compact_world(7);
    let truth = skewed_constants();

    // Record a calibration workload against the mispriced server.
    let traced = TextServer::with_constants(w.server.collection().clone(), truth);
    let sink = Rc::new(RingSink::unbounded());
    traced.set_recorder(Some(Recorder::new(sink.clone())));
    run_workload(&w, &traced);
    let cal = calibrate_trace(&sink.events());

    // Plan q5 twice against a fresh mispriced server: once with the
    // configured (wrong) constants, once adopting the calibration. Method
    // equivalence guarantees identical result rows either way — adoption
    // may change the *plan*, never the answer.
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let q5 = paper::q5(&w);
    let run = |cal: Option<&textjoin::obs::TraceCalibration>| {
        let server = TextServer::with_constants(w.server.collection().clone(), truth);
        let (planned, outcome) = plan_and_execute_with(
            &q5,
            &w.catalog,
            &server,
            params,
            ExecutionSpace::PrlResiduals,
            cal,
        )
        .expect("q5 plans and executes");
        (planned, row_strings(&outcome.table))
    };
    let (_, rows_configured) = run(None);
    let (planned_cal, rows_calibrated) = run(Some(&cal));
    assert_eq!(
        rows_configured, rows_calibrated,
        "calibration must never change the result multiset"
    );
    drop(planned_cal);

    // Adoption visibly reprices the plan: the drift table records how far
    // each configured constant was from the server's true price.
    let adopted = params.with_calibration(&cal);
    for (component, truth_v, configured) in [
        ("c_i", truth.c_i, params.constants.c_i),
        ("c_p", truth.c_p, params.constants.c_p),
        ("c_s", truth.c_s, params.constants.c_s),
        ("c_l", truth.c_l, params.constants.c_l),
    ] {
        let want = (truth_v - configured) / configured;
        let got = adopted
            .drift(component)
            .unwrap_or_else(|| panic!("{component} missing from drift table"));
        assert!(
            (got - want).abs() < 5e-3,
            "{component}: drift {got} vs expected {want}"
        );
    }
}

#[test]
fn calibration_refits_the_fault_model_from_observed_backoff() {
    let w = compact_world(7);
    let mut server = TextServer::new(w.server.collection().clone());
    server.set_fault_plan(FaultPlan::transient(0xC0FFEE, 0.3, 2));
    let sink = Rc::new(RingSink::unbounded());
    server.set_recorder(Some(Recorder::new(sink.clone())));
    run_workload(&w, &server);

    let cal = calibrate_trace(&sink.events());
    assert!(cal.faults > 0, "a 30% plan must fault");
    assert!(cal.backoff_seconds > 0.0, "faults must have paid backoff");

    // The adopted fault model is the observed one: the effective
    // invocation price carries exactly the backoff seconds per invocation
    // the trace actually paid — no schedule-mean approximation.
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let adopted = params.with_calibration(&cal).fitted;
    let want = adopted.constants.c_i + cal.backoff_per_invocation();
    assert!(
        (adopted.effective_c_i() - want).abs() < 1e-9,
        "effective_c_i {} vs observed {}",
        adopted.effective_c_i(),
        want
    );

    // And the plain plan_and_execute path (analytic fold) still gives the
    // same rows when handed the calibration instead.
    let q5 = paper::q5(&w);
    let fresh = TextServer::new(w.server.collection().clone());
    let (_, a) = plan_and_execute(
        &q5,
        &w.catalog,
        &fresh,
        CostParams::mercury(w.server.doc_count() as f64),
        ExecutionSpace::PrlResiduals,
    )
    .expect("plain path runs");
    let fresh2 = TextServer::new(w.server.collection().clone());
    let (_, b) = plan_and_execute_with(
        &q5,
        &w.catalog,
        &fresh2,
        CostParams::mercury(w.server.doc_count() as f64),
        ExecutionSpace::PrlResiduals,
        Some(&cal),
    )
    .expect("calibrated path runs");
    assert_eq!(row_strings(&a.table), row_strings(&b.table));
}

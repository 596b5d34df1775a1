//! `trace_pipeline`: the observability layer alone.
//!
//! Set-up captures, once, the full trace of a 16-query `serve_stream`
//! session (≈10k events, ≈2 MB of JSONL). A round then
//!
//! * **writes**: re-drives every captured event through
//!   `Recorder::emit` / `Recorder::span` into
//!   `FanoutSink[JsonlSink, Monitor, SampledSink → RingSink]`, and
//! * **reads**: `parse_jsonl` on the text just written, then
//!   `Monitor::replay`, `calibrate_trace`, `MetricsSnapshot::from_events`
//!   and `render` on the parsed events.
//!
//! `obs` does all the work and no other layer any, so the schema rewrite
//! of ROADMAP item 5 and "what does observing cost" land here; the write
//! and the read side share a round so that a faster encoder which slows
//! the parser still shows.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use textjoin_core::cost::params::CostParams;
use textjoin_core::serve::{Backend, ServeSession};
use textjoin_obs::{
    calibrate_trace, parse_jsonl, render, Event, EventKind, FanoutSink, JsonlSink, MetricsSnapshot,
    Monitor, MonitorConfig, NoopSink, Recorder, RingSink, SamplePolicy, SampledSink, Sink,
    SpanGuard,
};

use super::serve_stream::{build_topology, serve_config, stream, tenants};
use super::{
    fold, fold_bytes, generate, p50, RoundOutcome, Size, Workload, FNV, MS, PINNED_WORLD_SEED,
};
use crate::metrics::Values;
use crate::span::{Span, Tracer, OUTSIDE_ROUNDS};

/// Queries in the captured session.
const CAPTURE_QUERIES: usize = 16;

/// Monitor window, simulated seconds: a few hundred windows over the
/// captured session.
const WINDOW_SECS: f64 = 30.0;

/// Sampling rate of the sampled ring.
const SAMPLE_ONE_IN: u64 = 16;

fn monitor_config() -> MonitorConfig {
    MonitorConfig::new(WINDOW_SECS).with_baseline(3.0, 1e-5, 0.015, 4.0)
}

/// Re-emits `events` through `rec`, reproducing the span structure with
/// real `span` guards. A fresh recorder stamps the same sequence numbers,
/// clock and span ids the capturing one did.
fn redrive(rec: &Rc<Recorder>, events: &[Event]) {
    let mut open: HashMap<u64, SpanGuard> = HashMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::SpanBegin { id, label, .. } => {
                let guard = rec.span(label);
                debug_assert_eq!(guard.id(), *id);
                open.insert(*id, guard);
            }
            EventKind::SpanEnd { id, .. } => drop(open.remove(id)),
            kind => rec.emit(kind.clone()),
        }
    }
}

/// What the read side produces, kept for the correctness gate.
struct ReadSide {
    parsed: Vec<Event>,
    replay_table: String,
    calibration_rows: u64,
    metrics_text: String,
    tree: String,
}

/// The workload state.
pub struct TracePipeline {
    events: Vec<Event>,
    /// The captured trace as the capturing session would have written it.
    jsonl: String,
    /// Seed of the sampled ring's keep decisions.
    sample_seed: u64,
}

impl TracePipeline {
    /// Runs the capture session and keeps its trace.
    pub fn setup(seed: u64, size: Size, t: &Tracer) -> Self {
        let world = generate(PINNED_WORLD_SEED, 1, t);
        let mut server = build_topology(&world, t);
        let per_tenant = match size {
            Size::Full => CAPTURE_QUERIES / super::serve_stream::TENANTS,
            Size::Smoke => 1,
        };
        // The captured session is pinned like the world: another arrival
        // order is another trace (94–100 bytes an event, ±4 % round time
        // over seeds 1–10). The seed drives which spans the sampler keeps.
        let stream = stream(&world, PINNED_WORLD_SEED, per_tenant);
        let params = CostParams::mercury(world.server.doc_count() as f64);
        let report = t.time("core.serve.session", || {
            ServeSession::new(
                Backend::Elastic(&mut server),
                &world.catalog,
                tenants(),
                serve_config(params),
            )
            .run(&stream)
        });
        let events = report.trace;
        let jsonl = events.iter().fold(String::new(), |mut s, e| {
            s.push_str(&e.to_jsonl());
            s.push('\n');
            s
        });
        Self {
            events,
            jsonl,
            sample_seed: seed,
        }
    }

    fn sample_policy(&self) -> SamplePolicy {
        SamplePolicy::one_in(self.sample_seed, SAMPLE_ONE_IN).with_tail_keep()
    }

    /// Queries behind the captured trace.
    fn queries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Admit { .. }))
            .count()
            .max(1)
    }

    /// The write path. Returns the JSONL text, the live monitor's table,
    /// the sampled ring's length and the recorder's final clock.
    fn write(&self, t: &Tracer) -> (String, String, usize, f64) {
        let jsonl = Rc::new(JsonlSink::new());
        let monitor = Rc::new(Monitor::new(monitor_config()));
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(ring.clone(), self.sample_policy()));
        let sinks: Vec<Rc<dyn Sink>> = vec![jsonl.clone(), monitor.clone(), sampled];
        let rec = Recorder::new(Rc::new(FanoutSink::new(sinks)));
        t.time("obs.emit", || redrive(&rec, &self.events));
        t.time("obs.monitor_finish", || monitor.finish());
        (
            jsonl.take(),
            monitor.render_table(),
            ring.len(),
            rec.clock(),
        )
    }

    /// The read path over `text`.
    fn read(&self, text: &str, t: &Tracer) -> Option<ReadSide> {
        let parsed = t.time("obs.parse_jsonl", || parse_jsonl(text)).ok()?;
        let replay = t.time("obs.monitor_replay", || {
            Monitor::replay(monitor_config(), &parsed)
        });
        let cal = t.time("obs.calibrate_trace", || calibrate_trace(&parsed));
        let metrics = t.time("obs.metrics_from_events", || {
            MetricsSnapshot::from_events(&parsed)
        });
        let tree = t.time("obs.render", || render(&parsed));
        Some(ReadSide {
            replay_table: replay.render_table(),
            calibration_rows: cal.invocations.unsigned_abs(),
            metrics_text: metrics.render(),
            tree,
            parsed,
        })
    }

    /// Re-drives the trace into one sink flavour, `reps` times.
    fn emit_probe(
        &self,
        t: &Tracer,
        name: &'static str,
        make: impl Fn() -> Rc<dyn Sink>,
        reps: usize,
    ) {
        for _ in 0..reps {
            let rec = Recorder::new(make());
            t.time(name, || redrive(&rec, &self.events));
        }
    }
}

impl Workload for TracePipeline {
    fn round(&mut self, t: &Tracer) -> RoundOutcome {
        let events = self.events.len() as u64;
        let (text, live_table, kept, clock) = self.write(t);
        let mut out = RoundOutcome {
            attempted: events,
            failed: 0,
            checksum: fold(fold_bytes(FNV, text.as_bytes()), kept as u64),
            sim_cost: clock,
        };
        match self.read(&text, t) {
            Some(r) => {
                out.checksum = fold(out.checksum, r.parsed.len() as u64);
                out.checksum = fold(out.checksum, r.calibration_rows);
                for s in [&r.replay_table, &r.metrics_text, &r.tree] {
                    out.checksum = fold_bytes(out.checksum, s.as_bytes());
                }
                // Live tee and offline replay are the same code: their
                // tables must agree in every round.
                if r.replay_table != live_table {
                    out.failed = events;
                }
            }
            None => out.failed = events,
        }
        out
    }

    fn verify(&mut self) -> Result<RoundOutcome, String> {
        if self.events.len() < 100 {
            return Err(format!(
                "trace_pipeline: captured only {} events",
                self.events.len()
            ));
        }
        let off = Tracer::off();
        let (text, live_table, kept, clock) = self.write(&off);
        if text != self.jsonl {
            return Err("trace_pipeline: re-driven JSONL differs from the captured trace's".into());
        }
        let r = self
            .read(&text, &off)
            .ok_or("trace_pipeline: the JSONL just written does not parse")?;
        if r.parsed != self.events {
            return Err(
                "trace_pipeline: parse ∘ emit is not the identity on the captured trace".into(),
            );
        }
        if r.replay_table != live_table {
            return Err(
                "trace_pipeline: live-tee monitor table differs from offline replay".into(),
            );
        }
        let last_clock = self.events.last().map(|e| e.clock).unwrap_or(0.0);
        if clock.to_bits() != last_clock.to_bits() {
            return Err(format!(
                "trace_pipeline: re-driven clock {clock} != captured {last_clock}"
            ));
        }
        if kept == 0 || kept >= self.events.len() {
            return Err(format!(
                "trace_pipeline: the sampled ring kept {kept} of {} events",
                self.events.len()
            ));
        }
        if MetricsSnapshot::from_events(&self.events).render() != r.metrics_text {
            return Err(
                "trace_pipeline: metrics from parsed events differ from the captured events'"
                    .into(),
            );
        }
        Ok(self.round(&off))
    }

    fn layer_metrics(&mut self, t: &Tracer, spans: &[Span], budget: Duration, out: &mut Values) {
        let n = self.events.len() as f64;
        for (metric, span) in [
            ("obs.parse_jsonl_ns", "obs.parse_jsonl"),
            ("obs.monitor_replay_ns", "obs.monitor_replay"),
            ("obs.calibrate_trace_ns", "obs.calibrate_trace"),
            ("obs.metrics_from_events_ns", "obs.metrics_from_events"),
            ("obs.render_ns", "obs.render"),
        ] {
            out.set(metric, p50(spans, span, 1.0) / n);
        }
        let parse_s = p50(spans, "obs.parse_jsonl", 1e9);
        if parse_s > 0.0 {
            out.set(
                "obs.parse_jsonl_mb_per_s",
                self.jsonl.len() as f64 / 1e6 / parse_s,
            );
        }
        out.set("obs.jsonl_bytes_per_event", self.jsonl.len() as f64 / n);
        out.set("obs.events_per_query", n / self.queries() as f64);
        out.set("text.shard.build_ms", p50(spans, "text.shard.build", MS));

        // The write path per sink flavour.
        t.set_round(OUTSIDE_ROUNDS);
        let one_pass = Instant::now();
        self.emit_probe(t, "obs.emit_noop", || Rc::new(NoopSink), 1);
        let reps = (budget.as_secs_f64() / (one_pass.elapsed().as_secs_f64() * 12.0))
            .clamp(3.0, 30.0) as usize;
        self.emit_probe(t, "obs.emit_noop", || Rc::new(NoopSink), reps);
        self.emit_probe(t, "obs.emit_ring", || Rc::new(RingSink::unbounded()), reps);
        self.emit_probe(t, "obs.emit_jsonl", || Rc::new(JsonlSink::new()), reps);
        self.emit_probe(
            t,
            "obs.emit_fanout_monitor",
            || {
                let sinks: Vec<Rc<dyn Sink>> = vec![
                    Rc::new(JsonlSink::new()),
                    Rc::new(Monitor::new(monitor_config())),
                ];
                Rc::new(FanoutSink::new(sinks))
            },
            reps,
        );
        self.emit_probe(
            t,
            "obs.emit_sampled",
            || {
                Rc::new(SampledSink::new(
                    Rc::new(RingSink::unbounded()),
                    self.sample_policy(),
                ))
            },
            reps,
        );
        let probes = t.spans();
        for (metric, span) in [
            ("obs.emit_noop_ns", "obs.emit_noop"),
            ("obs.emit_ring_ns", "obs.emit_ring"),
            ("obs.emit_jsonl_ns", "obs.emit_jsonl"),
            ("obs.emit_fanout_monitor_ns", "obs.emit_fanout_monitor"),
            ("obs.emit_sampled_ns", "obs.emit_sampled"),
        ] {
            out.set(metric, p50(&probes, span, 1.0) / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redrive_reproduces_the_captured_trace_byte_for_byte() {
        let mut w = TracePipeline::setup(42, Size::Smoke, &Tracer::off());
        let reference = w.verify().expect("verifies");
        assert_eq!(reference.failed, 0);
        assert_eq!(reference.attempted, w.events.len() as u64);
        let again = w.round(&Tracer::off());
        assert!(again.repeats(&reference));
    }

    #[test]
    fn traced_round_covers_write_and_read_sides() {
        let mut w = TracePipeline::setup(42, Size::Smoke, &Tracer::off());
        let t = Tracer::on();
        w.round(&t);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        for want in [
            "obs.emit",
            "obs.parse_jsonl",
            "obs.monitor_replay",
            "obs.calibrate_trace",
            "obs.metrics_from_events",
            "obs.render",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }
}

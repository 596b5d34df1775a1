//! Where events go: nothing (default), an in-memory ring, JSONL text, or
//! a fan-out tee feeding several sinks at once.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{push_f64, Event};

/// Receives every event the recorder emits, in sequence order. Sinks are
/// passive observers — they must never touch a ledger.
pub trait Sink {
    /// Accepts one event.
    fn record(&self, ev: &Event);
}

/// Drops everything: the reference point for the "observation never
/// perturbs the cost model" audit.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _ev: &Event) {}
}

/// Keeps every event in memory; tests hold their own `Rc<RingSink>` and
/// inspect [`RingSink::events`] after the run.
#[derive(Debug, Default)]
pub struct RingSink {
    buf: RefCell<Vec<Event>>,
}

impl RingSink {
    /// An empty ring.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().clone()
    }

    /// Drains and returns the retained events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.buf.borrow_mut())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl Sink for RingSink {
    fn record(&self, ev: &Event) {
        self.buf.borrow_mut().push(ev.clone());
    }
}

/// Serializes each event as one JSON line into an in-memory buffer with a
/// fixed field order; two identical runs produce byte-identical output
/// (the trace-determinism golden test diffs exactly this).
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: RefCell<String>,
    /// The last event's clock, as bits, and its text (empty before the
    /// first): most events repeat it, and it is the costliest field to
    /// spell.
    clock: RefCell<(u64, String)>,
}

impl JsonlSink {
    /// An empty JSONL buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSONL text accumulated so far (one `\n`-terminated line per
    /// event).
    pub fn contents(&self) -> String {
        self.buf.borrow().clone()
    }

    /// Drains and returns the accumulated text.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.buf.borrow_mut())
    }
}

impl Sink for JsonlSink {
    fn record(&self, ev: &Event) {
        let mut clock = self.clock.borrow_mut();
        let (bits, text) = &mut *clock;
        if text.is_empty() || *bits != ev.clock.to_bits() {
            text.clear();
            push_f64(text, ev.clock);
            *bits = ev.clock.to_bits();
        }
        let mut buf = self.buf.borrow_mut();
        ev.write_line(&mut buf, Some(text));
        buf.push('\n');
    }
}

/// Forwards every event to each of several sinks, in order. This is how a
/// live [`Monitor`](crate::Monitor) tees off the same stream a trace sink
/// is already consuming: the recorder still stamps each event exactly
/// once, so the teed copies are identical and attaching more observers
/// can never change what any single observer sees.
pub struct FanoutSink {
    sinks: Vec<Rc<dyn Sink>>,
}

impl FanoutSink {
    /// A tee over `sinks`; events are delivered in the given order.
    pub fn new(sinks: Vec<Rc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, ev: &Event) {
        for sink in &self.sinks {
            sink.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            clock: 0.0,
            kind: EventKind::Retry {
                shard: None,
                attempt: 1,
            },
        }
    }

    #[test]
    fn fanout_delivers_to_every_sink_in_order() {
        let a = Rc::new(RingSink::unbounded());
        let b = Rc::new(RingSink::unbounded());
        let tee = FanoutSink::new(vec![a.clone() as Rc<dyn Sink>, b.clone()]);
        tee.record(&ev(0));
        tee.record(&ev(1));
        let seqs = |r: &RingSink| r.events().iter().map(|e| e.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&a), vec![0, 1]);
        assert_eq!(seqs(&a), seqs(&b), "both sinks see the identical stream");
    }

    #[test]
    fn jsonl_appends_lines() {
        let sink = JsonlSink::new();
        sink.record(&ev(0));
        sink.record(&ev(1));
        let text = sink.contents();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert_eq!(sink.take(), text);
        assert!(sink.contents().is_empty());
    }

    #[test]
    fn jsonl_contents_are_the_per_event_lines() {
        let sink = JsonlSink::new();
        // Clocks that repeat, move, and differ only in sign or not at all
        // as floats compare (`0.0 == -0.0`, `NaN != NaN`).
        let clocks = [
            0.0,
            0.0,
            -0.0,
            1.5,
            1.5,
            f64::NAN,
            f64::NAN,
            f64::INFINITY,
            0.1,
        ];
        let stream: Vec<Event> = clocks
            .iter()
            .enumerate()
            .map(|(seq, &clock)| Event {
                clock,
                ..ev(seq as u64)
            })
            .collect();
        let mut want = String::new();
        for e in &stream {
            sink.record(e);
            want.push_str(&e.to_jsonl());
            want.push('\n');
        }
        assert_eq!(sink.contents(), want);
    }
}

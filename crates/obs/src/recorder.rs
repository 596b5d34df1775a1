//! The recorder: sequence numbers, the simulated clock, and span
//! tracking.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::event::{Event, EventKind};
use crate::sink::Sink;

/// Observes charges and scopes; stamps every event with a dense sequence
/// number and the simulated clock.
///
/// The simulated clock is defined as the cumulative [`Charge::total`]
/// (simulated seconds) of every chargeable event observed so far — it
/// advances exactly as fast as the ledgers it watches, involves no
/// wall-clock reads, and is therefore deterministic.
///
/// [`Charge::total`]: crate::event::Charge::total
pub struct Recorder {
    sink: Rc<dyn Sink>,
    seq: Cell<u64>,
    clock: Cell<f64>,
    next_span: Cell<u64>,
    stack: RefCell<Vec<u64>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("seq", &self.seq.get())
            .field("clock", &self.clock.get())
            .field("open_spans", &self.stack.borrow().len())
            .finish()
    }
}

impl Recorder {
    /// A recorder feeding `sink`.
    pub fn new(sink: Rc<dyn Sink>) -> Rc<Self> {
        Rc::new(Self {
            sink,
            seq: Cell::new(0),
            clock: Cell::new(0.0),
            next_span: Cell::new(0),
            stack: RefCell::new(Vec::new()),
        })
    }

    /// Current simulated clock (seconds).
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        self.stack.borrow().len()
    }

    /// Stamps and emits one event: assigns the next sequence number,
    /// advances the clock by the event's charge, and forwards to the sink.
    pub fn emit(&self, kind: EventKind) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        if let Some(charge) = kind.charge() {
            self.clock.set(self.clock.get() + charge.total());
        }
        let ev = Event {
            seq,
            clock: self.clock.get(),
            kind,
        };
        self.sink.record(&ev);
    }

    /// Opens a span; the returned guard closes it on drop (including on
    /// early returns and error unwinds, so a failed scatter/gather never
    /// leaves a dangling open span).
    pub fn span(self: &Rc<Self>, label: &str) -> SpanGuard {
        let id = self.next_span.get();
        self.next_span.set(id + 1);
        let parent = self.stack.borrow().last().copied();
        self.stack.borrow_mut().push(id);
        self.emit(EventKind::SpanBegin {
            id,
            parent,
            label: label.to_string(),
        });
        SpanGuard {
            rec: Rc::clone(self),
            id,
            label: label.to_string(),
        }
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Rc<Recorder>,
    id: u64,
    label: String,
}

impl SpanGuard {
    /// The span id this guard closes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Guards normally drop innermost-first; truncating at this span's
        // position also closes any children a panic or early return left
        // on the stack.
        {
            let mut st = self.rec.stack.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&x| x == self.id) {
                st.truncate(pos);
            }
        }
        self.rec.emit(EventKind::SpanEnd {
            id: self.id,
            label: std::mem::take(&mut self.label),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Charge;
    use crate::sink::RingSink;

    #[test]
    fn clock_advances_by_charge_totals() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        rec.emit(EventKind::Call {
            op: "search",
            shard: None,
            terms: 1,
            err: None,
            charge: Charge {
                invocations: 1,
                time_invocation: 3.0,
                ..Charge::default()
            },
        });
        rec.emit(EventKind::Retry {
            shard: None,
            attempt: 1,
        });
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert!((evs[0].clock - 3.0).abs() < 1e-12);
        assert!((evs[1].clock - 3.0).abs() < 1e-12, "free events hold the clock");
        assert_eq!(evs[1].seq, 1);
    }

    #[test]
    fn spans_nest_and_close_on_drop() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        {
            let _outer = rec.span("outer");
            {
                let _inner = rec.span("inner");
                assert_eq!(rec.open_spans(), 2);
            }
            assert_eq!(rec.open_spans(), 1);
        }
        assert_eq!(rec.open_spans(), 0);
        let kinds: Vec<String> = ring
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::SpanBegin { label, parent, .. } => {
                    format!("begin:{label}:{parent:?}")
                }
                EventKind::SpanEnd { label, .. } => format!("end:{label}"),
                _ => "other".into(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "begin:outer:None",
                "begin:inner:Some(0)",
                "end:inner",
                "end:outer"
            ]
        );
    }

    #[test]
    fn out_of_order_drop_still_closes_children() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        let outer = rec.span("outer");
        let _inner = rec.span("inner");
        drop(outer); // closes outer AND pops inner off the open stack
        assert_eq!(rec.open_spans(), 0);
    }
}

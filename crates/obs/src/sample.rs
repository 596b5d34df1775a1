//! Deterministic head sampling: a [`SampledSink`] wrapper that keeps a
//! seeded fraction of spans (and the cold events inside them) while
//! *always* keeping the chaos signal — faulted calls, circuit-breaker
//! transitions, and failover *transitions* — so a sampled trace of an
//! unhealthy run never hides why it was unhealthy.
//!
//! The keep decision for a span is a pure function of the policy seed and
//! the span's begin-event sequence number (`splitmix64(seed ^ span_seq)`),
//! so two identical runs sample identically and the sampled golden trace
//! is byte-identical across runs. Decisions are independent per span —
//! a kept span under a dropped ancestor is still kept (the replay
//! attaches it to the nearest kept enclosing span).
//!
//! The always-keep rule covers fault *signals*, not fault *volume*. A
//! replicated server with a dead primary fails over on every single call
//! to that shard, forever — the first hop tells the story, the thousandth
//! is bookkeeping. Three novelty rules encode that:
//!
//! - a `Failover` is hot only when it changes state: a different replica
//!   than the shard's previous hop, or the first hop after a
//!   circuit-breaker transition opened a new outage episode;
//! - while a shard's breaker is *open*, its faulted calls are half-open
//!   probes (or bypassed-primary legs) against a known-bad primary — the
//!   first after each breaker transition is kept, repeats are sampled;
//!   faulted calls on closed-breaker shards are always kept;
//! - the retry/backoff machinery that follows a fault, whose schedule is
//!   fully determined by the kept faulted call and the policy in force,
//!   is sampled at the span rate like any other in-span event.
//!
//! Sampling is *observational only*: the wrapped recorder still stamps
//! every event (sequence numbers in a sampled trace are gapped but
//! monotonic) and the ledgers never see the sampler. Charges attached to
//! dropped events are accumulated in [`SampledSink::dropped_charge`], so
//! the trace↔ledger audit extends to sampled traces as
//! `kept + dropped == ledger`, field for field.
//!
//! Because the keep decision never looks at an event's charge, the kept
//! `Call`/`Rebate` events are an unbiased sample of the charge population
//! — fitting cost constants on a sampled trace estimates the same
//! constants as the full trace (see `calibrate`). The always-keep rule
//! intentionally oversamples faulted calls, so *aggregate* fault rates
//! must be read from the full trace or the ledger, not the sample.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::event::{Charge, Event, EventKind};
use crate::sink::Sink;

/// SplitMix64's output mixer: a well-distributed 64-bit hash used for all
/// sampling decisions. Pure and seedable — no global RNG state.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded sampling rate. A span beginning at trace sequence `s` is kept
/// iff `splitmix64(seed ^ s) % denom == 0`; `denom == 1` keeps everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePolicy {
    seed: u64,
    denom: u64,
    tail: bool,
}

impl SamplePolicy {
    /// Keeps roughly one span in `denom`.
    pub fn one_in(seed: u64, denom: u64) -> Self {
        Self {
            seed,
            denom: denom.max(1),
            tail: false,
        }
    }

    /// Enables tail-based retention: the events of a head-dropped span are
    /// buffered instead of discarded, and the moment a descendant event is
    /// kept anyway — a faulted call, a cancelled leg, a deadline miss, or
    /// any other always-keep signal — the whole enclosing span chain is
    /// retroactively flushed to the inner sink, in original order.
    ///
    /// Retention is *span-scoped*: the signal retains the whole span's
    /// events, not just those recorded before it. A clean child span that
    /// closed *before* the signal folds its buffer into the enclosing
    /// undecided span and is flushed with it; a child span opened *after*
    /// the signal inherits the promotion. Only a span whose entire scope
    /// resolves without a signal is dropped, its buffered charges
    /// accounted in [`SampledSink::dropped_charge`] as usual.
    pub fn with_tail_keep(mut self) -> Self {
        self.tail = true;
        self
    }

    /// The head-sampling decision for a span: deterministic in
    /// `(seed, begin-event sequence number)`.
    pub(crate) fn keeps(&self, span_seq: u64) -> bool {
        self.denom <= 1 || splitmix64(self.seed ^ span_seq).is_multiple_of(self.denom)
    }
}

/// Whether an event belongs to the always-keep chaos classes: faulted or
/// rejected calls, failovers, and circuit-breaker transitions. For
/// `Failover` — and for faulted calls on a shard whose breaker is open —
/// the sampler additionally requires *novelty*: steady-state repeats
/// inside the same outage episode are sampled like cold events (see the
/// module docs). Retry and backoff events are not hot: their schedule is
/// fully determined by the kept faulted call and the retry policy in
/// force, and their charges stay accounted via
/// [`SampledSink::dropped_charge`].
pub fn is_hot(kind: &EventKind) -> bool {
    match kind {
        EventKind::Call { err, .. } => err.is_some(),
        EventKind::Failover { .. }
        | EventKind::CircuitOpen { .. }
        | EventKind::CircuitClose { .. }
        | EventKind::Cancel { .. }
        | EventKind::DeadlineMiss { .. }
        | EventKind::MigrationBegin { .. }
        | EventKind::MigrationBatch { .. }
        | EventKind::MigrationResume { .. }
        | EventKind::MigrationAbort { .. }
        | EventKind::RoutingStale { .. }
        | EventKind::SkewAlert { .. }
        | EventKind::SloAlert { .. }
        | EventKind::DriftAlert { .. }
        | EventKind::RebalanceAdvice { .. } => true,
        _ => false,
    }
}

struct Frame {
    id: u64,
    keep: bool,
    /// Tail mode only: the span was retroactively promoted by a descendant
    /// signal (as opposed to head-kept). Spans opened under a promoted
    /// frame inherit the promotion, so *the whole span's events* — clean
    /// child spans opened after the signal included — are retained.
    promoted: bool,
    /// Tail mode only: events of a head-dropped span, held back until the
    /// span is either promoted (a descendant signal flushes them) or
    /// closed. A closed clean span under a still-undecided ancestor folds
    /// its buffer into the ancestor's, so a *later* signal anywhere in the
    /// ancestor's scope still retains the whole subtree; only when the
    /// enclosing scope resolves clean do the buffered charges resolve as
    /// dropped.
    buf: Vec<Event>,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    /// Spans popped by an out-of-order ancestor close whose own `SpanEnd`
    /// has not arrived yet: id → keep.
    force_closed: BTreeMap<u64, bool>,
    /// Per-shard replica of the last observed failover: a failover is
    /// novel (always kept) iff it differs, or iff a circuit transition on
    /// that shard opened a new outage episode since.
    last_failover: BTreeMap<usize, usize>,
    /// Shards whose circuit breaker is currently open, mapped to whether
    /// a faulted call has already been kept during this open episode.
    /// While open, faulted calls on the shard are half-open-probe (or
    /// bypassed-primary) bookkeeping against a *known-bad* primary: the
    /// first is kept, repeats are sampled like cold events.
    open_breakers: BTreeMap<usize, bool>,
    dropped: Charge,
}

/// A [`Sink`] adapter that forwards a deterministic sample of the event
/// stream to `inner` and accounts for everything it drops. See the module
/// docs for the retention rules.
pub struct SampledSink {
    inner: Rc<dyn Sink>,
    policy: SamplePolicy,
    state: RefCell<State>,
}

impl SampledSink {
    /// Samples the stream into `inner` under `policy`.
    pub fn new(inner: Rc<dyn Sink>, policy: SamplePolicy) -> Self {
        Self {
            inner,
            policy,
            state: RefCell::new(State::default()),
        }
    }

    /// Field-wise sum of the charges attached to every dropped event. The
    /// sampled-audit invariant is `charge_sum(kept) + dropped_charge ==
    /// ledger`, exactly.
    pub fn dropped_charge(&self) -> Charge {
        self.state.borrow().dropped
    }

    /// Forwards one event. In tail mode, first retroactively promotes
    /// every still-unkept enclosing span: their buffered events (span
    /// begins and cold interior events, in original order) flush to the
    /// inner sink *before* this event, so the kept stream stays a strictly
    /// ordered subsequence of the full stream.
    fn forward(&self, st: &mut State, ev: &Event) {
        if self.policy.tail {
            for i in 0..st.stack.len() {
                if !st.stack[i].keep {
                    st.stack[i].keep = true;
                    st.stack[i].promoted = true;
                    let buf = std::mem::take(&mut st.stack[i].buf);
                    for held in &buf {
                        self.inner.record(held);
                    }
                }
            }
        }
        self.inner.record(ev);
    }

    fn drop_event(&self, st: &mut State, ev: &Event) {
        if let Some(c) = ev.kind.charge() {
            st.dropped.accumulate(c);
        }
    }

    /// A cold event the head decision rejects: dropped outright, or — in
    /// tail mode, inside a still-unkept span — held back in case a later
    /// descendant signal promotes the span.
    fn drop_or_buffer(&self, st: &mut State, ev: &Event) {
        if self.policy.tail {
            if let Some(f) = st.stack.last_mut() {
                if !f.keep {
                    f.buf.push(ev.clone());
                    return;
                }
            }
        }
        self.drop_event(st, ev);
    }

    /// Resolves a head-dropped frame's buffer at close. If the enclosing
    /// frame is itself still head-dropped, the buffer folds into it: a
    /// *later* signal anywhere in the enclosing span retroactively retains
    /// the whole closed subtree (span-scoped retention). Only when no
    /// undecided enclosing scope remains do the buffered charges resolve
    /// as dropped charges.
    fn fold_or_resolve(&self, st: &mut State, buf: Vec<Event>) {
        if let Some(f) = st.stack.last_mut() {
            if !f.keep {
                f.buf.extend(buf);
                return;
            }
        }
        for held in &buf {
            if let Some(c) = held.kind.charge() {
                st.dropped.accumulate(c);
            }
        }
    }

    /// The span-sampling decision that applies to a cold event: that of
    /// the innermost open span (root-level events are always kept).
    fn cold_keep(&self, st: &State) -> bool {
        st.stack.last().map(|f| f.keep).unwrap_or(true)
    }
}

impl Sink for SampledSink {
    fn record(&self, ev: &Event) {
        let mut st = self.state.borrow_mut();
        match &ev.kind {
            EventKind::SpanBegin { id, .. } => {
                // A span opened while the innermost enclosing span is
                // *promoted* (tail-retained by a signal) belongs to the
                // retained scope: it inherits the promotion so the whole
                // span's events — clean children included — are kept.
                let inherited = self.policy.tail
                    && st.stack.last().map(|f| f.promoted).unwrap_or(false);
                let keep = inherited || self.policy.keeps(ev.seq);
                let mut buf = Vec::new();
                if !keep && self.policy.tail {
                    buf.push(ev.clone());
                }
                st.stack.push(Frame {
                    id: *id,
                    keep,
                    promoted: inherited,
                    buf,
                });
                if keep {
                    self.forward(&mut st, ev);
                }
            }
            EventKind::SpanEnd { id, .. } => {
                // Mirror the recorder's out-of-order-drop semantics:
                // closing a span force-pops any children still open; each
                // child's own SpanEnd arrives later and must resolve to
                // the keep decision made at its begin.
                let keep = if let Some(pos) = st.stack.iter().rposition(|f| f.id == *id) {
                    for popped in st.stack.split_off(pos + 1) {
                        st.force_closed.insert(popped.id, popped.keep);
                        self.fold_or_resolve(&mut st, popped.buf);
                    }
                    match st.stack.pop() {
                        Some(f) => {
                            if !f.keep && self.policy.tail {
                                // The span closed without a signal: its
                                // whole buffered subtree (this end
                                // included) folds into the enclosing
                                // undecided scope, or resolves as
                                // dropped.
                                let mut buf = f.buf;
                                buf.push(ev.clone());
                                self.fold_or_resolve(&mut st, buf);
                            }
                            f.keep
                        }
                        None => true,
                    }
                } else {
                    // Unknown spans (opened before the sampler attached)
                    // are kept: never drop an end we cannot account for.
                    st.force_closed.remove(id).unwrap_or(true)
                };
                if keep {
                    self.forward(&mut st, ev);
                }
                // A dropped SpanEnd carries no charge: nothing to account.
            }
            EventKind::Failover { shard, replica } => {
                let novel = st.last_failover.insert(*shard, *replica) != Some(*replica);
                if novel || self.cold_keep(&st) {
                    self.forward(&mut st, ev);
                } else {
                    self.drop_or_buffer(&mut st, ev);
                }
            }
            EventKind::CircuitOpen { shard, .. } => {
                // A breaker transition starts a new outage episode: the
                // next failover and the next faulted probe on this shard
                // are novel again.
                st.last_failover.remove(shard);
                st.open_breakers.insert(*shard, false);
                self.forward(&mut st, ev);
            }
            EventKind::CircuitClose { shard, .. } => {
                st.last_failover.remove(shard);
                st.open_breakers.remove(shard);
                self.forward(&mut st, ev);
            }
            EventKind::Call {
                shard: Some(s),
                err: Some(_),
                ..
            } if st.open_breakers.contains_key(s) => {
                // Probe of a shard already known to be bad: first kept,
                // repeats sampled (the open breaker is the standing fact).
                let novel = !std::mem::replace(st.open_breakers.get_mut(s).unwrap(), true);
                if novel || self.cold_keep(&st) {
                    self.forward(&mut st, ev);
                } else {
                    self.drop_or_buffer(&mut st, ev);
                }
            }
            kind if is_hot(kind) => self.forward(&mut st, ev),
            _ => {
                if self.cold_keep(&st) {
                    self.forward(&mut st, ev);
                } else {
                    self.drop_or_buffer(&mut st, ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::RingSink;

    fn call(err: Option<&str>, secs: f64) -> EventKind {
        EventKind::Call {
            op: "search",
            shard: None,
            terms: 1,
            err: err.map(str::to_string),
            charge: Charge {
                invocations: 1,
                time_invocation: secs,
                ..Charge::default()
            },
        }
    }

    #[test]
    fn splitmix64_is_a_fixed_function() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Reference value pinned so the sampling decisions (and therefore
        // the golden sampled traces) can never drift silently.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn hot_events_survive_any_rate_and_dropped_charge_balances() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            // denom too large for any span to be kept by chance
            SamplePolicy::one_in(99, u64::MAX),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _g = rec.span("gather");
            rec.emit(call(None, 3.0)); // cold: dropped
            rec.emit(call(Some("injected fault"), 3.0)); // hot: kept
            rec.emit(EventKind::Failover { shard: 0, replica: 1 });
        }
        let kept = ring.events();
        assert!(kept.iter().all(|e| is_hot(&e.kind)), "only hot events kept");
        assert_eq!(kept.len(), 2);
        let dropped = sampled.dropped_charge();
        assert_eq!(dropped.invocations, 1, "the cold call's charge is accounted");
        assert!((dropped.time_invocation - 3.0).abs() < 1e-12);
    }

    #[test]
    fn failover_repeats_are_cold_until_the_episode_changes() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX),
        ));
        let rec = Recorder::new(sampled);
        {
            let _g = rec.span("gather");
            rec.emit(EventKind::Failover { shard: 2, replica: 1 }); // novel: first hop
            rec.emit(EventKind::Failover { shard: 2, replica: 1 }); // repeat: sampled out
            rec.emit(EventKind::Failover { shard: 0, replica: 1 }); // novel: other shard
            rec.emit(EventKind::Failover { shard: 2, replica: 2 }); // novel: replica change
            rec.emit(EventKind::CircuitOpen { shard: 2, rate: 512 }); // new episode
            rec.emit(EventKind::Failover { shard: 2, replica: 2 }); // novel again
            rec.emit(EventKind::Failover { shard: 2, replica: 2 }); // repeat
        }
        let hops: Vec<(usize, usize)> = ring
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Failover { shard, replica } => Some((shard, replica)),
                _ => None,
            })
            .collect();
        assert_eq!(hops, vec![(2, 1), (0, 1), (2, 2), (2, 2)]);
    }

    #[test]
    fn probe_faults_on_an_open_breaker_are_cold_after_the_first() {
        let probe = |shard: usize| EventKind::Call {
            op: "search",
            shard: Some(shard),
            terms: 1,
            err: Some("injected fault".to_string()),
            charge: Charge {
                rejected: 1,
                ..Charge::default()
            },
        };
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _g = rec.span("gather");
            rec.emit(probe(2)); // breaker closed: genuine fault, kept
            rec.emit(probe(2)); // still closed: kept
            rec.emit(EventKind::CircuitOpen { shard: 2, rate: 512 });
            rec.emit(probe(2)); // first probe of the episode: kept
            rec.emit(probe(2)); // repeat probe: sampled out
            rec.emit(probe(0)); // other shard's breaker closed: kept
            rec.emit(EventKind::CircuitClose { shard: 2, rate: 0 });
            rec.emit(probe(2)); // closed again: kept
        }
        let kept_faults = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Call { err: Some(_), .. }))
            .count();
        assert_eq!(kept_faults, 5);
        // the dropped probe's charge is still accounted
        assert_eq!(sampled.dropped_charge().rejected, 1);
    }

    #[test]
    fn kept_spans_keep_their_cold_events_and_both_ends() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(ring.clone(), SamplePolicy::one_in(1, 1)));
        let rec = Recorder::new(sampled);
        {
            let _g = rec.span("gather");
            rec.emit(call(None, 3.0));
        }
        let kept = ring.events();
        assert_eq!(kept.len(), 3);
        assert!(matches!(kept[0].kind, EventKind::SpanBegin { .. }));
        assert!(matches!(kept[2].kind, EventKind::SpanEnd { .. }));
    }

    #[test]
    fn span_end_matches_its_begin_decision_even_out_of_order() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX),
        ));
        let rec = Recorder::new(sampled);
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        drop(outer); // force-pops inner off the recorder stack
        drop(inner); // its SpanEnd still arrives, and must still be dropped
        assert!(ring.events().is_empty(), "no span was sampled in");
    }

    #[test]
    fn tail_keep_promotes_the_whole_span_on_a_descendant_signal() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _g = rec.span("gather");
            rec.emit(call(None, 3.0)); // cold: buffered
            rec.emit(call(Some("injected fault"), 1.0)); // signal: promotes
            rec.emit(call(None, 2.0)); // span now kept
        }
        let kept = ring.events();
        // Span begin, the buffered cold call, the fault, the later cold
        // call, and the span end — all kept, in original order.
        assert_eq!(kept.len(), 5);
        assert!(matches!(kept[0].kind, EventKind::SpanBegin { .. }));
        assert!(matches!(kept[4].kind, EventKind::SpanEnd { .. }));
        let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "ordered: {seqs:?}");
        assert_eq!(
            sampled.dropped_charge(),
            Charge::default(),
            "nothing was dropped"
        );
    }

    #[test]
    fn tail_keep_promotes_on_cancel_and_deadline_miss() {
        for signal in [
            EventKind::Cancel { shard: 1, replica: 0 },
            EventKind::DeadlineMiss { shard: Some(1) },
        ] {
            let ring = Rc::new(RingSink::unbounded());
            let sampled = Rc::new(SampledSink::new(
                ring.clone(),
                SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
            ));
            let rec = Recorder::new(sampled.clone());
            {
                let _g = rec.span("gather");
                rec.emit(call(None, 3.0));
                rec.emit(signal.clone());
            }
            let kept = ring.events();
            assert_eq!(kept.len(), 4, "begin + cold + signal + end");
            assert_eq!(sampled.dropped_charge(), Charge::default());
        }
    }

    #[test]
    fn tail_keep_resolves_clean_spans_as_dropped() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _g = rec.span("gather");
            rec.emit(call(None, 3.0));
        }
        assert!(ring.events().is_empty(), "clean span stays dropped");
        let dropped = sampled.dropped_charge();
        assert_eq!(dropped.invocations, 1);
        assert!((dropped.time_invocation - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keep_nested_spans_flush_ancestors_in_order() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _outer = rec.span("gather");
            rec.emit(call(None, 1.0));
            {
                let _clean = rec.span("gather/shard0");
                rec.emit(call(None, 1.0)); // folds into the outer buffer
            }
            {
                let _faulty = rec.span("gather/shard1");
                rec.emit(call(Some("injected fault"), 1.0));
            }
        }
        let kept = ring.events();
        let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "ordered: {seqs:?}");
        // Span-scoped retention: the clean sibling closed *before* the
        // signal, but the signal fired inside the same enclosing span, so
        // the whole folded subtree is retained with it.
        for want in ["gather", "gather/shard0", "gather/shard1"] {
            assert!(
                kept.iter().any(|e| matches!(
                    &e.kind,
                    EventKind::SpanBegin { label, .. } if label == want
                )),
                "{want} begin retained"
            );
        }
        // begin + cold + (begin + cold + end) + (begin + fault + end) + end
        assert_eq!(kept.len(), 9);
        assert_eq!(
            sampled.dropped_charge(),
            Charge::default(),
            "nothing was dropped"
        );
    }

    #[test]
    fn tail_keep_retains_clean_children_opened_after_promotion() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _outer = rec.span("gather");
            rec.emit(call(Some("injected fault"), 1.0)); // promotes outer
            {
                // Opened under the now-promoted span: inherits retention,
                // so "the whole span's events" really means all of them.
                let _clean = rec.span("gather/shard0");
                rec.emit(call(None, 2.0));
            }
        }
        let kept = ring.events();
        // begin + fault + (begin + cold + end) + end
        assert_eq!(kept.len(), 6);
        let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "ordered: {seqs:?}");
        assert_eq!(
            sampled.dropped_charge(),
            Charge::default(),
            "nothing was dropped"
        );
    }

    #[test]
    fn tail_keep_resolves_clean_subtrees_with_charges_accounted() {
        let ring = Rc::new(RingSink::unbounded());
        let sampled = Rc::new(SampledSink::new(
            ring.clone(),
            SamplePolicy::one_in(99, u64::MAX).with_tail_keep(),
        ));
        let rec = Recorder::new(sampled.clone());
        {
            let _outer = rec.span("gather");
            {
                let _clean = rec.span("gather/shard0");
                rec.emit(call(None, 2.0));
            }
            rec.emit(call(None, 3.0));
        }
        assert!(ring.events().is_empty(), "fully clean subtree stays dropped");
        let dropped = sampled.dropped_charge();
        assert_eq!(dropped.invocations, 2, "both buffered calls accounted");
        assert!((dropped.time_invocation - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_across_runs() {
        let run = || {
            let ring = Rc::new(RingSink::unbounded());
            let sampled = Rc::new(SampledSink::new(ring.clone(), SamplePolicy::one_in(42, 3)));
            let rec = Recorder::new(sampled);
            for i in 0..20 {
                let _s = rec.span(&format!("work{i}"));
                rec.emit(call(None, 1.0));
            }
            ring.events()
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty() && a.len() < 60, "a strict subsample: {a:?}");
    }
}

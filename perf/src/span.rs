//! Harness-side spans for the traced run.
//!
//! A span is recorded around every call the harness makes into a layer's
//! public function (and, through [`TimedService`](crate::timed::TimedService),
//! around every call the library makes into the text service). Spans stay
//! in memory and are written out once, when the run ends. A span's name
//! starts with its layer (`text.`, `rel.`, `core.`, `obs.`, `workload.`,
//! `bench.`); its *self time* is its duration minus the part its direct
//! children cover, so layer totals never count an interval twice.
//!
//! With tracing off every entry point is a plain call: the untraced run —
//! the one the end-to-end metrics come from — pays nothing for this module.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Round id of spans recorded outside the timed rounds (layer probes).
pub const OUTSIDE_ROUNDS: i32 = -1;

/// The name of the span that brackets one round.
pub const ROUND: &str = "bench.round";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round the span belongs to, or [`OUTSIDE_ROUNDS`].
    pub round: i32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; a no-op when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    round: Cell<i32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            round: Cell::new(OUTSIDE_ROUNDS),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with `round`.
    pub fn set_round(&self, round: i32) {
        self.round.set(round);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    #[inline]
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn begin(&self, name: &'static str) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        let parent = self.stack.borrow().last().copied().unwrap_or(NO_PARENT);
        self.stack.borrow_mut().push(id);
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            round: self.round.get(),
        });
        // Stamp last, so the bookkeeping above is charged to the parent.
        spans[id as usize].start_ns = self.now_ns();
        id
    }

    fn end(&self, id: u32) {
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
        self.stack.borrow_mut().pop();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What a set of spans says about where round time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Σ duration of the [`ROUND`] spans, ns.
    pub round_ns: u64,
    /// Self time per layer inside rounds, ns. The `bench` entry is the
    /// round spans' own self time: what no named layer span covers.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// A layer's share of round time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.round_ns == 0 {
            return 0.0;
        }
        *self.layer_self_ns.get(layer).unwrap_or(&0) as f64 / self.round_ns as f64
    }

    /// Share of round time inside named layer spans (everything but the
    /// harness's own `bench` self time).
    pub fn attributed_share(&self) -> f64 {
        if self.round_ns == 0 {
            return 0.0;
        }
        1.0 - self.share("bench")
    }
}

/// Sums self time per layer over the spans that belong to a round.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = self_times(spans);
    let mut b = Breakdown::default();
    for (s, own_ns) in spans.iter().zip(own) {
        if s.round == OUTSIDE_ROUNDS {
            continue;
        }
        if s.name == ROUND {
            b.round_ns += s.dur_ns();
        }
        *b.layer_self_ns.entry(s.layer()).or_default() += own_ns;
    }
    b
}

/// Durations (ns, as `f64`) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Median duration of the spans called `name`, in nanoseconds (0 when
/// there is none).
pub fn p50_ns(spans: &[Span], name: &str) -> f64 {
    crate::stats::median(&durations(spans, name))
}

/// Σ duration of spans whose name starts with `prefix`, ns.
pub fn total_ns(spans: &[Span], prefix: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(Span::dur_ns)
        .sum()
}

/// Serialises spans as `{"workload", "names", "spans"}` with one
/// `[name, start_ns, end_ns, parent, round]` row per span (`parent` is -1
/// for roots).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut rows = String::new();
    for (i, s) in spans.iter().enumerate() {
        let n = *index.entry(s.name).or_insert_with(|| {
            names.push(s.name);
            names.len() - 1
        });
        if i > 0 {
            rows.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        rows.push_str(&format!(
            "[{n},{},{},{parent},{}]",
            s.start_ns, s.end_ns, s.round
        ));
    }
    let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"round\"],\"names\":[{}],\"spans\":[{rows}]}}\n",
        names.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, round: i32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100] ⊃ core [10,90] ⊃ text [20,50], text [60,80]
        let spans = vec![
            span(ROUND, 0, 100, NO_PARENT, 0),
            span("core.methods.ts", 10, 90, 0, 0),
            span("text.search", 20, 50, 1, 0),
            span("text.search", 60, 80, 1, 0),
        ];
        assert_eq!(self_times(&spans), [20, 30, 30, 20]);
        let b = breakdown(&spans);
        assert_eq!(b.round_ns, 100);
        assert_eq!(b.layer_self_ns["text"], 50);
        assert_eq!(b.layer_self_ns["core"], 30);
        assert_eq!(b.layer_self_ns["bench"], 20);
        assert!((b.share("text") - 0.5).abs() < 1e-12);
        assert!((b.attributed_share() - 0.8).abs() < 1e-12);
        // Layer self times partition the round exactly.
        assert_eq!(b.layer_self_ns.values().sum::<u64>(), b.round_ns);
    }

    #[test]
    fn spans_outside_rounds_do_not_enter_the_breakdown() {
        let spans = vec![
            span(ROUND, 0, 10, NO_PARENT, 0),
            span("rel.filter", 20, 50, NO_PARENT, OUTSIDE_ROUNDS),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.round_ns, 10);
        assert_eq!(b.share("rel"), 0.0);
        assert_eq!(p50_ns(&spans, "rel.filter"), 30.0);
    }

    #[test]
    fn tracer_nests_and_tags_rounds() {
        let t = Tracer::on();
        t.set_round(3);
        let v = t.time(ROUND, || t.time("text.search", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].round, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "text");
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.time("text.search", || 1), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_interns_names() {
        let spans = vec![
            span(ROUND, 0, 9, NO_PARENT, 0),
            span("text.search", 1, 2, 0, 0),
            span("text.search", 3, 4, 0, 0),
        ];
        let j = to_json("w", &spans);
        assert!(j.contains("\"names\":[\"bench.round\",\"text.search\"]"));
        assert!(j.contains("[0,0,9,-1,0],[1,1,2,0,0],[1,3,4,0,0]"));
    }
}

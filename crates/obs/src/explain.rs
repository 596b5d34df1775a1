//! Trace replay: renders a recorded event stream as an indented span tree
//! with per-phase cost rollups. Backs the `explain` bench binary.

use std::collections::BTreeMap;

use crate::event::{Charge, Event, EventKind};

/// One span of the tree. The spans of a trace sit in one flat list and
/// name their children by index, so building, summing, printing and
/// dropping a tree all take heap, not stack, however deep the spans nest.
#[derive(Default)]
struct Node {
    label: String,
    t0: f64,
    t1: f64,
    direct: Charge,
    /// `direct` plus every child's `inclusive`; set when the span closes.
    inclusive: Charge,
    ok_calls: BTreeMap<&'static str, (u64, Charge)>,
    items: Vec<Item>,
}

enum Item {
    /// Index of a closed child span.
    Child(usize),
    Line(String),
}

fn shard_tag(shard: Option<usize>) -> String {
    match shard {
        Some(i) => format!("@shard{i}"),
        None => String::new(),
    }
}

/// Compact human summary of a charge: only the non-zero components.
fn brief(c: &Charge) -> String {
    let mut parts = Vec::new();
    if c.invocations != 0 {
        parts.push(format!("inv {}", c.invocations));
    }
    if c.rejected != 0 {
        parts.push(format!("rej {}", c.rejected));
    }
    if c.postings != 0 {
        parts.push(format!("post {}", c.postings));
    }
    if c.docs_short != 0 || c.docs_long != 0 {
        parts.push(format!("xmit {}s/{}l", c.docs_short, c.docs_long));
    }
    if c.faults != 0 {
        parts.push(format!("faults {}", c.faults));
    }
    if c.retries != 0 {
        parts.push(format!("retries {}", c.retries));
    }
    if c.time_backoff != 0.0 {
        parts.push(format!("backoff {:.2}s", c.time_backoff));
    }
    if parts.is_empty() {
        "free".to_string()
    } else {
        parts.join(", ")
    }
}

impl Node {
    fn absorb(&mut self, ev: &Event) {
        if let Some(c) = ev.kind.charge() {
            self.direct.accumulate(c);
        }
        match &ev.kind {
            EventKind::Call {
                op,
                shard,
                err: Some(e),
                charge,
                ..
            } => self.items.push(Item::Line(format!(
                "! {op}{} failed: {e} ({})",
                shard_tag(*shard),
                brief(charge)
            ))),
            EventKind::Call {
                op,
                err: None,
                charge,
                ..
            } => {
                let slot = self.ok_calls.entry(op).or_insert((0, Charge::default()));
                slot.0 += 1;
                slot.1.accumulate(charge);
            }
            EventKind::Backoff { shard, seconds, .. } => self.items.push(Item::Line(format!(
                "~ backoff{} {seconds:.2}s",
                shard_tag(*shard)
            ))),
            EventKind::Retry { shard, attempt } => self.items.push(Item::Line(format!(
                "~ retry{} attempt {attempt}",
                shard_tag(*shard)
            ))),
            EventKind::Rebate { shard, charge } => self.items.push(Item::Line(format!(
                "- batch rebate{}: {}",
                shard_tag(*shard),
                brief(charge)
            ))),
            EventKind::Failover { shard, replica } => self.items.push(Item::Line(format!(
                "> failover@shard{shard} -> replica {replica}"
            ))),
            EventKind::CircuitOpen { shard, rate } => self.items.push(Item::Line(format!(
                "x circuit open@shard{shard} (ewma {rate}/1024)"
            ))),
            EventKind::CircuitClose { shard, rate } => self.items.push(Item::Line(format!(
                "o circuit close@shard{shard} (ewma {rate}/1024)"
            ))),
            EventKind::Hedge { shard, replica } => self.items.push(Item::Line(format!(
                "+ hedge@shard{shard} -> replica {replica}"
            ))),
            EventKind::Cancel { shard, replica } => self.items.push(Item::Line(format!(
                "x cancel@shard{shard} replica {replica}"
            ))),
            EventKind::DeadlineMiss { shard } => self.items.push(Item::Line(format!(
                "! deadline miss{}",
                shard_tag(*shard)
            ))),
            EventKind::MigrationBegin { moves, docs, epoch } => {
                self.items.push(Item::Line(format!(
                    "# migration begin: {moves} moves, {docs} docs (epoch {epoch})"
                )));
            }
            EventKind::MigrationBatch {
                mv,
                src,
                dst,
                docs,
                postings,
                high_water,
                epoch,
            } => {
                self.items.push(Item::Line(format!(
                    "# migration batch mv{mv} shard{src} -> shard{dst}: {docs} docs, {postings} postings, high-water {high_water} (epoch {epoch})"
                )));
            }
            EventKind::MigrationResume { mv, src, dst, docs, epoch } => {
                self.items.push(Item::Line(format!(
                    "# migration resume mv{mv} shard{src} -> shard{dst}: {docs} docs in flight (epoch {epoch})"
                )));
            }
            EventKind::MigrationAbort {
                mv,
                src,
                dst,
                reverted,
                epoch,
            } => {
                self.items.push(Item::Line(format!(
                    "! migration abort mv{mv} shard{src} -> shard{dst}: {reverted} docs reverted (epoch {epoch})"
                )));
            }
            EventKind::RoutingStale {
                from_epoch,
                to_epoch,
                shards,
            } => {
                let list: Vec<String> = shards.iter().map(|s| format!("shard{s}")).collect();
                self.items.push(Item::Line(format!(
                    "~ routing stale: epoch {from_epoch} -> {to_epoch}, re-scatter [{}]",
                    list.join(" ")
                )));
            }
            EventKind::DocTraffic { shard, docs } => self.items.push(Item::Line(format!(
                "· traffic{}: {} docs",
                shard_tag(*shard),
                docs.len()
            ))),
            EventKind::SkewAlert {
                window,
                shard,
                share_ppm,
                hot,
            } => self.items.push(Item::Line(format!(
                "{} skew {}@shard{shard} window {window}: share {:.1}%",
                if *hot { "!" } else { "o" },
                if *hot { "hot" } else { "clear" },
                *share_ppm as f64 / 10_000.0
            ))),
            EventKind::SloAlert {
                window,
                fast_ppm,
                slow_ppm,
                firing,
            } => self.items.push(Item::Line(format!(
                "{} slo {} window {window}: burn fast {:.2}x slow {:.2}x",
                if *firing { "!" } else { "o" },
                if *firing { "alert" } else { "clear" },
                *fast_ppm as f64 / 1_000_000.0,
                *slow_ppm as f64 / 1_000_000.0
            ))),
            EventKind::DriftAlert {
                window,
                component,
                configured,
                fitted,
                drifted,
            } => self.items.push(Item::Line(format!(
                "{} drift {} {component} window {window}: configured {configured} fitted {fitted}",
                if *drifted { "!" } else { "o" },
                if *drifted { "alert" } else { "clear" },
            ))),
            EventKind::EstimateSample {
                cost_q,
                selectivity_q,
                constants_q,
                regret_share,
            } => self.items.push(Item::Line(format!(
                "? plan quality: cost q {cost_q:.2} (sel {selectivity_q:.2} const {constants_q:.2}) regret share {regret_share:.2}"
            ))),
            EventKind::EstimateDrift {
                window,
                component,
                p90_q,
                regret_share,
                firing,
            } => self.items.push(Item::Line(format!(
                "{} estimates {} {component} window {window}: p90 q {p90_q:.2} regret share {regret_share:.2}",
                if *firing { "!" } else { "o" },
                if *firing { "alert" } else { "clear" },
            ))),
            EventKind::RebalanceAdvice {
                window,
                src,
                dst,
                lo,
                hi,
                hits,
            } => self.items.push(Item::Line(format!(
                "# advise rebalance window {window}: shard{src} -> shard{dst} docs [{lo},{hi}) ({hits} hits observed)"
            ))),
            EventKind::Admit {
                tenant,
                arrival,
                est_cost,
            } => self.items.push(Item::Line(format!(
                "> admit tenant{tenant} req#{arrival}: est {est_cost:.2}s"
            ))),
            EventKind::Shed {
                tenant,
                arrival,
                queued,
            } => self.items.push(Item::Line(format!(
                "! shed tenant{tenant} req#{arrival} ({queued} still queued)"
            ))),
            EventKind::BudgetExhausted {
                tenant,
                arrival,
                spent_ms,
                remaining_ms,
            } => self.items.push(Item::Line(format!(
                "! budget exhausted tenant{tenant} req#{arrival}: spent {:.1}s of {:.1}s remaining",
                *spent_ms as f64 / 1000.0,
                *remaining_ms as f64 / 1000.0
            ))),
            EventKind::CacheHit { scope, epoch } => self.items.push(Item::Line(format!(
                "= cache hit [{scope}] epoch {epoch}"
            ))),
            EventKind::Planner(p) => {
                let total = p.invocation + p.processing + p.transmission + p.rtp;
                self.items.push(Item::Line(format!(
                    "? candidate {}{} est {total:.2}s (inv {:.2} proc {:.2} xmit {:.2} rtp {:.2}; eff c_i {:.2})",
                    p.label,
                    if p.chosen { " [chosen]" } else { "" },
                    p.invocation,
                    p.processing,
                    p.transmission,
                    p.rtp,
                    p.effective_c_i
                )));
            }
            // The two kinds that shape the tree instead of filling it:
            // `render` opens and closes nodes on them.
            EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. } => {}
        }
    }

    /// The span's own lines: its rollup, then its successful calls by op.
    fn head(&self, pad: &str, out: &mut String) {
        out.push_str(&format!(
            "{pad}{}  [{:.3}s → {:.3}s]  Σ {:.3}s ({})\n",
            self.label,
            self.t0,
            self.t1,
            self.inclusive.total(),
            brief(&self.inclusive)
        ));
        for (op, (n, c)) in &self.ok_calls {
            out.push_str(&format!(
                "{pad}  • {n}× {op}: {} = {:.3}s\n",
                brief(c),
                c.total()
            ));
        }
    }
}

/// Closes span `i` at clock `t1`. Its inclusive charge is its own charges,
/// then each child's inclusive in item order — the order the sums have
/// always been taken in, so every `Σ` keeps its digits. Children close
/// before their parent, so theirs are already there.
fn seal(nodes: &mut [Node], i: usize, t1: f64) {
    let mut total = nodes[i].direct;
    for item in &nodes[i].items {
        if let Item::Child(ch) = item {
            total.accumulate(&nodes[*ch].inclusive);
        }
    }
    nodes[i].inclusive = total;
    nodes[i].t1 = t1;
}

/// Replays `events` into an indented span tree. Events outside any span
/// are attributed to a synthetic `(trace)` root; per-span rollups are
/// inclusive of children.
pub fn render(events: &[Event]) -> String {
    const ROOT: usize = 0;
    let final_clock = events.last().map(|e| e.clock).unwrap_or(0.0);
    let mut nodes = vec![Node {
        label: "(trace)".to_string(),
        ..Node::default()
    }];
    // The spans still open, outermost first; events land in the innermost.
    let mut open: Vec<usize> = Vec::new();
    let innermost = |open: &[usize]| open.last().copied().unwrap_or(ROOT);
    for ev in events {
        match &ev.kind {
            EventKind::SpanBegin { label, .. } => {
                open.push(nodes.len());
                nodes.push(Node {
                    label: label.clone(),
                    t0: ev.clock,
                    ..Node::default()
                });
            }
            EventKind::SpanEnd { .. } => {
                if let Some(done) = open.pop() {
                    seal(&mut nodes, done, ev.clock);
                    nodes[innermost(&open)].items.push(Item::Child(done));
                }
            }
            _ => nodes[innermost(&open)].absorb(ev),
        }
    }
    // A truncated trace may leave spans open; attach them unclosed.
    while let Some(done) = open.pop() {
        nodes[done].label.push_str(" (unclosed)");
        seal(&mut nodes, done, final_clock);
        nodes[innermost(&open)].items.push(Item::Child(done));
    }
    seal(&mut nodes, ROOT, final_clock);

    let mut out = format!("trace: {} events, clock 0s → {final_clock:.3}s\n", events.len());
    nodes[ROOT].head("", &mut out);
    // What is left to print of each span on the way down to the current
    // one; `pad` indents the current span's items.
    let mut path = vec![nodes[ROOT].items.iter()];
    let mut pad = String::from("  ");
    while let Some(item) = path.last_mut().map(Iterator::next) {
        match item {
            Some(Item::Line(l)) => out.push_str(&format!("{pad}{l}\n")),
            Some(Item::Child(ch)) => {
                nodes[*ch].head(&pad, &mut out);
                path.push(nodes[*ch].items.iter());
                pad.push_str("  ");
            }
            None => {
                path.pop();
                pad.truncate(pad.len() - 2);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::RingSink;
    use std::rc::Rc;

    #[test]
    fn renders_nested_spans_with_rollups() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        {
            let _m = rec.span("RTP");
            {
                let _p = rec.span("selection-search");
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
            }
        }
        let text = render(&ring.events());
        assert!(text.contains("RTP"), "{text}");
        assert!(text.contains("selection-search"), "{text}");
        assert!(text.contains("1× search"), "{text}");
        // The method span's inclusive rollup covers the nested call.
        assert!(text.contains("Σ 3.000s"), "{text}");
    }

    #[test]
    fn renders_failover_and_breaker_lines() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        {
            let _g = rec.span("gather/shard2");
            rec.emit(EventKind::CircuitOpen { shard: 2, rate: 801 });
            rec.emit(EventKind::Failover { shard: 2, replica: 1 });
            rec.emit(EventKind::CircuitClose { shard: 2, rate: 112 });
        }
        let text = render(&ring.events());
        assert!(text.contains("> failover@shard2 -> replica 1"), "{text}");
        assert!(text.contains("x circuit open@shard2 (ewma 801/1024)"), "{text}");
        assert!(text.contains("o circuit close@shard2 (ewma 112/1024)"), "{text}");
    }

    #[test]
    fn unclosed_span_is_flagged() {
        let ring = Rc::new(RingSink::unbounded());
        let rec = Recorder::new(ring.clone());
        let guard = rec.span("gather");
        let events = ring.events();
        let text = render(&events);
        assert!(text.contains("gather (unclosed)"), "{text}");
        drop(guard);
    }

    /// Spans nest as deep as a replayed file says; rendering (and dropping)
    /// the tree must not recurse on that depth. 2 000 levels is ≈ 4 MB of
    /// output (indentation makes it quadratic), on a stack the recursive
    /// renderer overflowed.
    #[test]
    fn a_deep_span_chain_renders_on_a_small_stack() {
        let depth = 2_000u64;
        let (seq, clock, label) = (0, 0.0, || "s".to_string());
        let begin = (0..depth).map(|id| EventKind::SpanBegin {
            id,
            parent: id.checked_sub(1),
            label: label(),
        });
        let end = (0..depth).rev().map(|id| EventKind::SpanEnd { id, label: label() });
        let events: Vec<Event> = begin
            .chain(end)
            .map(|kind| Event { seq, clock, kind })
            .collect();
        let text = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || render(&events))
            .expect("spawns")
            .join()
            .expect("renders without overflowing its stack");
        assert_eq!(text.lines().count() as u64, 2 + depth);
        let innermost = format!("{}s  [", "  ".repeat(depth as usize));
        assert!(text.lines().last().unwrap().starts_with(&innermost));
    }
}

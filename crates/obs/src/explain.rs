//! Trace replay: renders a recorded event stream as an indented span tree
//! with per-phase cost rollups. Backs the `explain` bench binary.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::event::{Charge, Event, EventKind};

/// One span of the tree. The spans of a trace sit in one flat list and
/// name their children by index, so building, summing, printing and
/// dropping a tree all take heap, not stack, however deep the spans nest.
#[derive(Default)]
struct Node<'e> {
    label: &'e str,
    /// The trace ended before the span did.
    unclosed: bool,
    t0: f64,
    t1: f64,
    direct: Charge,
    /// `direct` plus every child's `inclusive`; set when the span closes.
    inclusive: Charge,
    ok_calls: BTreeMap<&'static str, (u64, Charge)>,
    items: Vec<Item<'e>>,
}

enum Item<'e> {
    /// Index of a closed child span.
    Child(usize),
    /// An event that prints a line of its own, written by [`line`] when
    /// the tree is printed.
    Line(&'e Event),
}

/// `@shard{i}` for a shard-attributed event, nothing otherwise.
struct ShardTag(Option<usize>);

impl fmt::Display for ShardTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(i) => write!(f, "@shard{i}"),
            None => Ok(()),
        }
    }
}

/// Compact human summary of a charge: only the non-zero components.
struct Brief<'c>(&'c Charge);

impl fmt::Display for Brief<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.0;
        // What goes before the next component: nothing before the first.
        let mut sep = "";
        if c.invocations != 0 {
            write!(f, "{sep}inv {}", c.invocations)?;
            sep = ", ";
        }
        if c.rejected != 0 {
            write!(f, "{sep}rej {}", c.rejected)?;
            sep = ", ";
        }
        if c.postings != 0 {
            write!(f, "{sep}post {}", c.postings)?;
            sep = ", ";
        }
        if c.docs_short != 0 || c.docs_long != 0 {
            write!(f, "{sep}xmit {}s/{}l", c.docs_short, c.docs_long)?;
            sep = ", ";
        }
        if c.faults != 0 {
            write!(f, "{sep}faults {}", c.faults)?;
            sep = ", ";
        }
        if c.retries != 0 {
            write!(f, "{sep}retries {}", c.retries)?;
            sep = ", ";
        }
        if c.time_backoff != 0.0 {
            write!(f, "{sep}backoff {:.2}s", c.time_backoff)?;
            sep = ", ";
        }
        if sep.is_empty() {
            f.write_str("free")?;
        }
        Ok(())
    }
}

/// Writes the line `ev` prints in its span, without indent or newline.
/// Every kind has its arm, so a new kind does not compile until it is
/// given a sentence (or a reason it has none).
fn line(out: &mut String, ev: &Event) -> fmt::Result {
    match &ev.kind {
        EventKind::Call {
            op,
            shard,
            err: Some(e),
            charge,
            ..
        } => write!(out, "! {op}{} failed: {e} ({})", ShardTag(*shard), Brief(charge)),
        EventKind::Backoff { shard, seconds, .. } => {
            write!(out, "~ backoff{} {seconds:.2}s", ShardTag(*shard))
        }
        EventKind::Retry { shard, attempt } => {
            write!(out, "~ retry{} attempt {attempt}", ShardTag(*shard))
        }
        EventKind::Rebate { shard, charge } => {
            write!(out, "- batch rebate{}: {}", ShardTag(*shard), Brief(charge))
        }
        EventKind::Failover { shard, replica } => {
            write!(out, "> failover@shard{shard} -> replica {replica}")
        }
        EventKind::CircuitOpen { shard, rate } => {
            write!(out, "x circuit open@shard{shard} (ewma {rate}/1024)")
        }
        EventKind::CircuitClose { shard, rate } => {
            write!(out, "o circuit close@shard{shard} (ewma {rate}/1024)")
        }
        EventKind::Hedge { shard, replica } => {
            write!(out, "+ hedge@shard{shard} -> replica {replica}")
        }
        EventKind::Cancel { shard, replica } => {
            write!(out, "x cancel@shard{shard} replica {replica}")
        }
        EventKind::DeadlineMiss { shard } => write!(out, "! deadline miss{}", ShardTag(*shard)),
        EventKind::MigrationBegin { moves, docs, epoch } => write!(
            out,
            "# migration begin: {moves} moves, {docs} docs (epoch {epoch})"
        ),
        EventKind::MigrationBatch {
            mv,
            src,
            dst,
            docs,
            postings,
            high_water,
            epoch,
        } => write!(
            out,
            "# migration batch mv{mv} shard{src} -> shard{dst}: {docs} docs, {postings} postings, high-water {high_water} (epoch {epoch})"
        ),
        EventKind::MigrationResume { mv, src, dst, docs, epoch } => write!(
            out,
            "# migration resume mv{mv} shard{src} -> shard{dst}: {docs} docs in flight (epoch {epoch})"
        ),
        EventKind::MigrationAbort {
            mv,
            src,
            dst,
            reverted,
            epoch,
        } => write!(
            out,
            "! migration abort mv{mv} shard{src} -> shard{dst}: {reverted} docs reverted (epoch {epoch})"
        ),
        EventKind::RoutingStale {
            from_epoch,
            to_epoch,
            shards,
        } => {
            write!(out, "~ routing stale: epoch {from_epoch} -> {to_epoch}, re-scatter [")?;
            for (i, s) in shards.iter().enumerate() {
                write!(out, "{}shard{s}", if i == 0 { "" } else { " " })?;
            }
            out.write_char(']')
        }
        EventKind::DocTraffic { shard, docs } => write!(
            out,
            "· traffic{}: {} docs",
            ShardTag(*shard),
            docs.len()
        ),
        EventKind::SkewAlert {
            window,
            shard,
            share_ppm,
            hot,
        } => write!(
            out,
            "{} skew {}@shard{shard} window {window}: share {:.1}%",
            if *hot { "!" } else { "o" },
            if *hot { "hot" } else { "clear" },
            *share_ppm as f64 / 10_000.0
        ),
        EventKind::SloAlert {
            window,
            fast_ppm,
            slow_ppm,
            firing,
        } => write!(
            out,
            "{} slo {} window {window}: burn fast {:.2}x slow {:.2}x",
            if *firing { "!" } else { "o" },
            if *firing { "alert" } else { "clear" },
            *fast_ppm as f64 / 1_000_000.0,
            *slow_ppm as f64 / 1_000_000.0
        ),
        EventKind::DriftAlert {
            window,
            component,
            configured,
            fitted,
            drifted,
        } => write!(
            out,
            "{} drift {} {component} window {window}: configured {configured} fitted {fitted}",
            if *drifted { "!" } else { "o" },
            if *drifted { "alert" } else { "clear" },
        ),
        EventKind::EstimateSample {
            cost_q,
            selectivity_q,
            constants_q,
            regret_share,
        } => write!(
            out,
            "? plan quality: cost q {cost_q:.2} (sel {selectivity_q:.2} const {constants_q:.2}) regret share {regret_share:.2}"
        ),
        EventKind::EstimateDrift {
            window,
            component,
            p90_q,
            regret_share,
            firing,
        } => write!(
            out,
            "{} estimates {} {component} window {window}: p90 q {p90_q:.2} regret share {regret_share:.2}",
            if *firing { "!" } else { "o" },
            if *firing { "alert" } else { "clear" },
        ),
        EventKind::RebalanceAdvice {
            window,
            src,
            dst,
            lo,
            hi,
            hits,
        } => write!(
            out,
            "# advise rebalance window {window}: shard{src} -> shard{dst} docs [{lo},{hi}) ({hits} hits observed)"
        ),
        EventKind::Admit {
            tenant,
            arrival,
            est_cost,
        } => write!(out, "> admit tenant{tenant} req#{arrival}: est {est_cost:.2}s"),
        EventKind::Shed {
            tenant,
            arrival,
            queued,
        } => write!(out, "! shed tenant{tenant} req#{arrival} ({queued} still queued)"),
        EventKind::BudgetExhausted {
            tenant,
            arrival,
            spent_ms,
            remaining_ms,
        } => write!(
            out,
            "! budget exhausted tenant{tenant} req#{arrival}: spent {:.1}s of {:.1}s remaining",
            *spent_ms as f64 / 1000.0,
            *remaining_ms as f64 / 1000.0
        ),
        EventKind::CacheHit { scope, epoch } => write!(out, "= cache hit [{scope}] epoch {epoch}"),
        EventKind::Planner(p) => {
            let total = p.invocation + p.processing + p.transmission + p.rtp;
            write!(
                out,
                "? candidate {}{} est {total:.2}s (inv {:.2} proc {:.2} xmit {:.2} rtp {:.2}; eff c_i {:.2})",
                p.label,
                if p.chosen { " [chosen]" } else { "" },
                p.invocation,
                p.processing,
                p.transmission,
                p.rtp,
                p.effective_c_i
            )
        }
        // Never an `Item::Line`: a successful call is rolled up into its
        // span's head, and `render` opens and closes spans on the other
        // two instead of filling them.
        EventKind::Call { err: None, .. }
        | EventKind::SpanBegin { .. }
        | EventKind::SpanEnd { .. } => Ok(()),
    }
}

impl<'e> Node<'e> {
    fn absorb(&mut self, ev: &'e Event) {
        if let Some(c) = ev.kind.charge() {
            self.direct.accumulate(c);
        }
        match &ev.kind {
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
            _ => self.items.push(Item::Line(ev)),
        }
    }

    /// The span's own lines: its rollup, then its successful calls by op.
    fn head(&self, pad: &str, out: &mut String) -> fmt::Result {
        writeln!(
            out,
            "{pad}{}{}  [{:.3}s → {:.3}s]  Σ {:.3}s ({})",
            self.label,
            if self.unclosed { " (unclosed)" } else { "" },
            self.t0,
            self.t1,
            self.inclusive.total(),
            Brief(&self.inclusive)
        )?;
        for (op, (n, c)) in &self.ok_calls {
            writeln!(out, "{pad}  • {n}× {op}: {} = {:.3}s", Brief(c), c.total())?;
        }
        Ok(())
    }
}

/// The synthetic `(trace)` span, first in the flat list.
const ROOT: usize = 0;

/// Closes span `i` at clock `t1`. Its inclusive charge is its own charges,
/// then each child's inclusive in item order — the order the sums have
/// always been taken in, so every `Σ` keeps its digits. Children close
/// before their parent, so theirs are already there.
fn seal(nodes: &mut [Node<'_>], i: usize, t1: f64) {
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
    let final_clock = events.last().map(|e| e.clock).unwrap_or(0.0);
    let mut nodes = vec![Node {
        label: "(trace)",
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
                    label,
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
        nodes[done].unclosed = true;
        seal(&mut nodes, done, final_clock);
        nodes[innermost(&open)].items.push(Item::Child(done));
    }
    seal(&mut nodes, ROOT, final_clock);

    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = print(&nodes, events.len(), final_clock, &mut out);
    out
}

/// Prints the sealed tree, root first, each span's head before its items.
fn print(nodes: &[Node<'_>], events: usize, final_clock: f64, out: &mut String) -> fmt::Result {
    writeln!(out, "trace: {events} events, clock 0s → {final_clock:.3}s")?;
    nodes[ROOT].head("", out)?;
    // What is left to print of each span on the way down to the current
    // one; `pad` indents the current span's items.
    let mut path = vec![nodes[ROOT].items.iter()];
    let mut pad = String::from("  ");
    while let Some(item) = path.last_mut().map(Iterator::next) {
        match item {
            Some(Item::Line(ev)) => {
                out.push_str(&pad);
                line(out, ev)?;
                out.push('\n');
            }
            Some(Item::Child(ch)) => {
                nodes[*ch].head(&pad, out)?;
                path.push(nodes[*ch].items.iter());
                pad.push_str("  ");
            }
            None => {
                path.pop();
                pad.truncate(pad.len() - 2);
            }
        }
    }
    Ok(())
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

    /// One event of every kind, two spans deep, then a span left open:
    /// every sentence `render` can print, pinned byte for byte.
    fn every_kind() -> Vec<Event> {
        let charge = |invocations, postings, time_invocation| Charge {
            invocations,
            postings,
            time_invocation,
            ..Charge::default()
        };
        let call = |op, shard, err: Option<&str>, charge| EventKind::Call {
            op,
            shard,
            terms: 2,
            err: err.map(str::to_string),
            charge,
        };
        let span = |id, parent, label: &str| EventKind::SpanBegin {
            id,
            parent,
            label: label.to_string(),
        };
        let end = |id, label: &str| EventKind::SpanEnd {
            id,
            label: label.to_string(),
        };
        let planner = |label: &str, chosen| {
            EventKind::Planner(crate::event::PlannerChoice {
                label: label.to_string(),
                chosen,
                probe_cols: vec![0],
                invocation: 3.0,
                processing: 0.125,
                transmission: 1.5,
                rtp: 0.0,
                searches: 1.0,
                est_rows: 4.0,
                est_postings: 12.0,
                effective_c_i: 3.25,
            })
        };
        let kinds = vec![
            EventKind::CacheHit {
                scope: "plan",
                epoch: 0,
            },
            span(0, None, "P+RTP"),
            call("search", None, None, charge(1, 40, 3.0)),
            call("search", Some(1), None, charge(1, 2, 3.0)),
            call(
                "retrieve",
                Some(0),
                None,
                Charge {
                    docs_long: 1,
                    time_transmission: 4.0,
                    ..Charge::default()
                },
            ),
            call(
                "probe",
                Some(2),
                Some("injected transient fault"),
                Charge {
                    faults: 1,
                    ..charge(1, 0, 3.0)
                },
            ),
            EventKind::Rebate {
                shard: Some(1),
                charge: Charge {
                    docs_short: -2,
                    time_transmission: -0.03,
                    ..charge(-1, 0, -3.0)
                },
            },
            EventKind::Backoff {
                shard: None,
                seconds: 1.0,
                charge: Charge {
                    retries: 1,
                    time_backoff: 1.0,
                    ..Charge::default()
                },
            },
            EventKind::Retry {
                shard: Some(2),
                attempt: 1,
            },
            span(1, Some(0), "gather/shard2"),
            EventKind::Failover {
                shard: 2,
                replica: 1,
            },
            EventKind::CircuitOpen {
                shard: 2,
                rate: 801,
            },
            EventKind::CircuitClose {
                shard: 2,
                rate: 112,
            },
            EventKind::Hedge {
                shard: 3,
                replica: 2,
            },
            EventKind::Cancel {
                shard: 3,
                replica: 0,
            },
            EventKind::DeadlineMiss { shard: None },
            EventKind::DeadlineMiss { shard: Some(3) },
            EventKind::MigrationBegin {
                moves: 2,
                docs: 30,
                epoch: 4,
            },
            EventKind::MigrationBatch {
                mv: 0,
                src: 1,
                dst: 3,
                docs: 10,
                postings: 77,
                high_water: 109,
                epoch: 5,
            },
            EventKind::MigrationResume {
                mv: 1,
                src: 2,
                dst: 0,
                docs: 6,
                epoch: 6,
            },
            EventKind::MigrationAbort {
                mv: 1,
                src: 2,
                dst: 0,
                reverted: 6,
                epoch: 7,
            },
            EventKind::RoutingStale {
                from_epoch: 5,
                to_epoch: 7,
                shards: vec![],
            },
            EventKind::RoutingStale {
                from_epoch: 5,
                to_epoch: 7,
                shards: vec![0, 2, 3],
            },
            EventKind::DocTraffic {
                shard: Some(1),
                docs: vec![4, 9, 12],
            },
            EventKind::DocTraffic {
                shard: None,
                docs: vec![],
            },
            EventKind::SkewAlert {
                window: 3,
                shard: 1,
                share_ppm: 612_345,
                hot: true,
            },
            EventKind::SkewAlert {
                window: 4,
                shard: 1,
                share_ppm: 250_000,
                hot: false,
            },
            EventKind::SloAlert {
                window: 5,
                fast_ppm: 14_400_000,
                slow_ppm: 6_000_000,
                firing: true,
            },
            EventKind::SloAlert {
                window: 6,
                fast_ppm: 500_000,
                slow_ppm: 990_000,
                firing: false,
            },
            EventKind::DriftAlert {
                window: 7,
                component: "c_i",
                configured: 3.0,
                fitted: 4.5,
                drifted: true,
            },
            EventKind::DriftAlert {
                window: 8,
                component: "c_l",
                configured: 4.0,
                fitted: 4.0,
                drifted: false,
            },
            EventKind::RebalanceAdvice {
                window: 9,
                src: 1,
                dst: 0,
                lo: 100,
                hi: 150,
                hits: 42,
            },
            EventKind::Admit {
                tenant: 0,
                arrival: 3,
                est_cost: 12.345,
            },
            EventKind::Shed {
                tenant: 1,
                arrival: 4,
                queued: 2,
            },
            EventKind::BudgetExhausted {
                tenant: 1,
                arrival: 5,
                spent_ms: 12_345,
                remaining_ms: 1_500,
            },
            EventKind::CacheHit {
                scope: "probe",
                epoch: 7,
            },
            planner("P+RTP{name}", true),
            planner("TS", false),
            EventKind::EstimateSample {
                cost_q: 1.25,
                selectivity_q: 2.0,
                constants_q: 1.0,
                regret_share: 0.125,
            },
            EventKind::EstimateDrift {
                window: 10,
                component: "selectivity",
                p90_q: 3.5,
                regret_share: 0.25,
                firing: true,
            },
            EventKind::EstimateDrift {
                window: 11,
                component: "constants",
                p90_q: 1.1,
                regret_share: 0.0,
                firing: false,
            },
            call(
                "batch",
                Some(3),
                None,
                Charge {
                    rejected: 1,
                    ..charge(1, 5, 3.0)
                },
            ),
            end(1, "gather/shard2"),
            end(0, "P+RTP"),
            span(2, None, "sj/package"),
            EventKind::Retry {
                shard: None,
                attempt: 3,
            },
            call("search", None, None, charge(1, 1, 3.0)),
        ];
        let mut clock = 0.0;
        kinds
            .into_iter()
            .enumerate()
            .map(|(seq, kind)| {
                clock += kind.charge().map_or(0.0, Charge::total);
                Event {
                    seq: seq as u64,
                    clock,
                    kind,
                }
            })
            .collect()
    }

    #[test]
    fn every_event_kind_renders_its_pinned_line() {
        let events = every_kind();
        let kinds: std::collections::BTreeSet<_> =
            events.iter().map(|e| e.kind.type_name()).collect();
        assert_eq!(
            kinds.len(),
            EventKind::TYPES.len(),
            "one event of every kind"
        );
        let want = "\
trace: 47 events, clock 0s → 16.970s
(trace)  [0.000s → 16.970s]  Σ 16.970s (inv 4, rej 1, post 48, xmit -2s/1l, faults 1, retries 1, backoff 1.00s)
  = cache hit [plan] epoch 0
  P+RTP  [0.000s → 13.970s]  Σ 13.970s (inv 3, rej 1, post 47, xmit -2s/1l, faults 1, retries 1, backoff 1.00s)
    • 1× retrieve: xmit 0s/1l = 4.000s
    • 2× search: inv 2, post 42 = 6.000s
    ! probe@shard2 failed: injected transient fault (inv 1, faults 1)
    - batch rebate@shard1: inv -1, xmit -2s/0l
    ~ backoff 1.00s
    ~ retry@shard2 attempt 1
    gather/shard2  [10.970s → 13.970s]  Σ 3.000s (inv 1, rej 1, post 5)
      • 1× batch: inv 1, rej 1, post 5 = 3.000s
      > failover@shard2 -> replica 1
      x circuit open@shard2 (ewma 801/1024)
      o circuit close@shard2 (ewma 112/1024)
      + hedge@shard3 -> replica 2
      x cancel@shard3 replica 0
      ! deadline miss
      ! deadline miss@shard3
      # migration begin: 2 moves, 30 docs (epoch 4)
      # migration batch mv0 shard1 -> shard3: 10 docs, 77 postings, high-water 109 (epoch 5)
      # migration resume mv1 shard2 -> shard0: 6 docs in flight (epoch 6)
      ! migration abort mv1 shard2 -> shard0: 6 docs reverted (epoch 7)
      ~ routing stale: epoch 5 -> 7, re-scatter []
      ~ routing stale: epoch 5 -> 7, re-scatter [shard0 shard2 shard3]
      · traffic@shard1: 3 docs
      · traffic: 0 docs
      ! skew hot@shard1 window 3: share 61.2%
      o skew clear@shard1 window 4: share 25.0%
      ! slo alert window 5: burn fast 14.40x slow 6.00x
      o slo clear window 6: burn fast 0.50x slow 0.99x
      ! drift alert c_i window 7: configured 3 fitted 4.5
      o drift clear c_l window 8: configured 4 fitted 4
      # advise rebalance window 9: shard1 -> shard0 docs [100,150) (42 hits observed)
      > admit tenant0 req#3: est 12.35s
      ! shed tenant1 req#4 (2 still queued)
      ! budget exhausted tenant1 req#5: spent 12.3s of 1.5s remaining
      = cache hit [probe] epoch 7
      ? candidate P+RTP{name} [chosen] est 4.62s (inv 3.00 proc 0.12 xmit 1.50 rtp 0.00; eff c_i 3.25)
      ? candidate TS est 4.62s (inv 3.00 proc 0.12 xmit 1.50 rtp 0.00; eff c_i 3.25)
      ? plan quality: cost q 1.25 (sel 2.00 const 1.00) regret share 0.12
      ! estimates alert selectivity window 10: p90 q 3.50 regret share 0.25
      o estimates clear constants window 11: p90 q 1.10 regret share 0.00
  sj/package (unclosed)  [13.970s → 16.970s]  Σ 3.000s (inv 1, post 1)
    • 1× search: inv 1, post 1 = 3.000s
    ~ retry attempt 3
";
        assert_eq!(render(&events), want);
    }
}

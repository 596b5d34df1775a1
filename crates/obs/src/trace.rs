//! Reading JSONL traces back into [`Event`]s — the inverse of
//! [`Event::write_jsonl`].
//!
//! The reader is hand-rolled (this crate is dependency-free by design) and
//! single-pass: each line is lexed once into a flat list of tokens that
//! borrow from it, held in scratch that serves the whole trace, and the
//! per-kind table decodes fields straight out of those slices. Numbers
//! keep their source text until a field asks for an integer or a float, so
//! shortest-roundtrip serialized floats parse back to the exact bits that
//! were written and a parse→serialize round trip is byte-identical.
//!
//! The language accepted is wider than what the writer produces: fields
//! in any order, spaces and tabs between tokens, unknown fields of any
//! JSON shape (lexed and ignored), duplicate keys (the first wins), and
//! the escapes `\"`, `\\`, `\/`, `\n`, `\t`, `\r` and `\uXXXX`.

use std::borrow::Cow;
use std::str::FromStr;

use crate::event::{Charge, Event, EventKind, PlannerChoice};

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// One lexed JSON value. Scalars borrow the line; numbers stay source
/// text until a field asks for an integer or a float, so integer fields
/// never round-trip through `f64`. A container holds only the number of
/// tokens nested inside it: its members follow it in the token list.
#[derive(Debug)]
enum Val<'a> {
    Null,
    Bool(bool),
    Num(&'a str),
    /// Borrowed unless the string contained an escape.
    Str(Cow<'a, str>),
    Arr(usize),
    Obj(usize),
}

/// One value of the line with the key it sits under (empty for an array
/// item and for the line's own object).
#[derive(Debug)]
struct Tok<'a> {
    key: Cow<'a, str>,
    val: Val<'a>,
}

impl Tok<'_> {
    /// Tokens nested inside this one.
    fn nested(&self) -> usize {
        match self.val {
            Val::Arr(n) | Val::Obj(n) => n,
            _ => 0,
        }
    }
}

/// The token list of the current line and the stack of containers still
/// open while it is lexed. One of these serves a whole trace, so a line
/// allocates only for what its `Event` owns (and for a string with an
/// escape in it).
#[derive(Default)]
struct Scratch<'a> {
    toks: Vec<Tok<'a>>,
    open: Vec<usize>,
}

/// What may come next in the innermost open container.
enum Want {
    /// It has just opened.
    MemberOrClose,
    /// A member has just ended.
    CommaOrClose,
    /// A comma has just passed.
    Member,
}

struct Lexer<'a> {
    line: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(line: &'a str) -> Self {
        Self {
            line,
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, got as char
            )),
            None => Err(format!("expected '{}', found end of line", b as char)),
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Lexes the whole line — one object, nested to any depth — into
    /// `s.toks` in document order, the line's own object first. Iterative,
    /// so no input can exhaust the stack.
    fn line(&mut self, s: &mut Scratch<'a>) -> Result<(), String> {
        s.toks.clear();
        s.open.clear();
        self.expect(b'{')?;
        s.toks.push(Tok {
            key: Cow::Borrowed(""),
            val: Val::Obj(0),
        });
        s.open.push(0);
        let mut want = Want::MemberOrClose;
        while let Some(&top) = s.open.last() {
            let in_obj = matches!(s.toks[top].val, Val::Obj(_));
            let close = if in_obj { b'}' } else { b']' };
            let next = self.peek();
            if next == Some(close) && !matches!(want, Want::Member) {
                self.pos += 1;
                let nested = s.toks.len() - top - 1;
                s.toks[top].val = if in_obj {
                    Val::Obj(nested)
                } else {
                    Val::Arr(nested)
                };
                s.open.pop();
                want = Want::CommaOrClose;
            } else if matches!(want, Want::CommaOrClose) {
                if next != Some(b',') {
                    return Err(format!(
                        "expected ',' or '{}', found {next:?}",
                        close as char
                    ));
                }
                self.pos += 1;
                want = Want::Member;
            } else {
                let key = if in_obj {
                    let key = self.string()?;
                    self.expect(b':')?;
                    key
                } else {
                    Cow::Borrowed("")
                };
                let val = self.value()?;
                want = if matches!(val, Val::Arr(_) | Val::Obj(_)) {
                    s.open.push(s.toks.len());
                    Want::MemberOrClose
                } else {
                    Want::CommaOrClose
                };
                s.toks.push(Tok { key, val });
            }
        }
        if self.peek().is_some() {
            return Err(format!("trailing bytes after object at {}", self.pos));
        }
        Ok(())
    }

    /// A scalar, or the opening bracket of a container (returned empty;
    /// [`line`](Self::line) fills in its size when it closes).
    fn value(&mut self) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                Ok(Val::Obj(0))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Val::Arr(0))
            }
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Val::Null),
            Some(b't') if self.eat_literal("true") => Ok(Val::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Val::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of line".to_string()),
        }
    }

    /// The bytes up to the next quote or backslash, as text. Both are
    /// ASCII, so the run starts and ends on character boundaries.
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
        &self.line[start..self.pos]
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let plain = self.run();
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(plain);
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'/') => out.push('/'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => out.push_str(self.run()),
            }
        }
    }

    fn number(&mut self) -> Result<Val<'a>, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = &self.line[start..self.pos];
        if text == "-" {
            return Err("empty number".to_string());
        }
        Ok(Val::Num(text))
    }
}

/// The members of one lexed object: its tokens and everything nested in
/// them, in document order. Lookups walk the direct members only, so the
/// first of two duplicate keys wins and unknown fields cost one compare.
#[derive(Clone, Copy)]
struct Fields<'t, 'a> {
    toks: &'t [Tok<'a>],
}

impl<'t, 'a> Fields<'t, 'a> {
    /// Index of the member under `key`.
    fn find(&self, key: &str) -> Result<usize, String> {
        let mut i = 0;
        while let Some(tok) = self.toks.get(i) {
            if tok.key == key {
                return Ok(i);
            }
            i += 1 + tok.nested();
        }
        Err(format!("missing field \"{key}\""))
    }

    fn get(&self, key: &str) -> Result<&'t Val<'a>, String> {
        Ok(&self.toks[self.find(key)?].val)
    }

    /// An integer of type `T`; `what` names `T` in the error, which a
    /// value out of `T`'s range gets like any other non-`T`.
    fn int<T: FromStr>(&self, key: &str, what: &str) -> Result<T, String> {
        match self.get(key)? {
            Val::Num(n) => n.parse().map_err(|_| format!("\"{key}\" is not {what}")),
            _ => Err(format!("\"{key}\" is not a number")),
        }
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        self.int(key, "an integer")
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.int(key, "a u64")
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.int(key, "a u32")
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.int(key, "a usize")
    }

    /// A float. `1e999` and `-1e999` are the infinities (every literal
    /// past `f64::MAX` parses to one) and `null` is NaN — see
    /// `Event::write_jsonl`.
    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Val::Num(n) => n.parse().map_err(|_| format!("\"{key}\" is not a float")),
            Val::Null => Ok(f64::NAN),
            _ => Err(format!("\"{key}\" is not a number")),
        }
    }

    fn str(&self, key: &str) -> Result<&'t str, String> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            _ => Err(format!("\"{key}\" is not a string")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            _ => Err(format!("\"{key}\" is not a bool")),
        }
    }

    fn opt_int<T: FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, String> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Num(n) => n
                .parse()
                .map(Some)
                .map_err(|_| format!("\"{key}\" is not {what}")),
            _ => Err(format!("\"{key}\" is not a number or null")),
        }
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt_int(key, "a u64")
    }

    fn opt_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.opt_int(key, "a usize")
    }

    fn opt_str(&self, key: &str) -> Result<Option<&'t str>, String> {
        match self.get(key)? {
            Val::Null => Ok(None),
            Val::Str(s) => Ok(Some(s)),
            _ => Err(format!("\"{key}\" is not a string or null")),
        }
    }

    fn obj(&self, key: &str) -> Result<Fields<'t, 'a>, String> {
        let i = self.find(key)?;
        match self.toks[i].val {
            Val::Obj(n) => Ok(Fields {
                toks: &self.toks[i + 1..i + 1 + n],
            }),
            _ => Err(format!("\"{key}\" is not an object")),
        }
    }

    /// An array of integers; an item that is not one fails with `bad`.
    fn ints<T: FromStr>(&self, key: &str, bad: &str) -> Result<Vec<T>, String> {
        let i = self.find(key)?;
        match self.toks[i].val {
            Val::Arr(n) => self.toks[i + 1..i + 1 + n]
                .iter()
                .map(|item| match item.val {
                    Val::Num(n) => n.parse().map_err(|_| bad.to_string()),
                    _ => Err(bad.to_string()),
                })
                .collect(),
            _ => Err(format!("\"{key}\" is not an array")),
        }
    }
}

fn charge_of(f: &Fields<'_, '_>) -> Result<Charge, String> {
    let c = f.obj("charge")?;
    Ok(Charge {
        invocations: c.i64("inv")?,
        rejected: c.i64("rej")?,
        postings: c.i64("post")?,
        docs_short: c.i64("short")?,
        docs_long: c.i64("long")?,
        time_invocation: c.f64("t_inv")?,
        time_processing: c.f64("t_proc")?,
        time_transmission: c.f64("t_xmit")?,
        faults: c.i64("faults")?,
        retries: c.i64("retries")?,
        time_backoff: c.f64("t_backoff")?,
    })
}

/// Call events carry a `&'static str` operation name; the serialized name
/// must map back to the interned one the server would have used.
fn op_of(name: &str) -> Result<&'static str, String> {
    match name {
        "search" => Ok("search"),
        "probe" => Ok("probe"),
        "batch" => Ok("batch"),
        "retrieve" => Ok("retrieve"),
        "xfer.out" => Ok("xfer.out"),
        "xfer.in" => Ok("xfer.in"),
        other => Err(format!("unknown call op \"{other}\"")),
    }
}

/// Drift alerts carry a `&'static str` component name; the serialized
/// name must map back to the interned one the watchdog would have used.
fn component_of(name: &str) -> Result<&'static str, String> {
    match name {
        "c_i" => Ok("c_i"),
        "c_p" => Ok("c_p"),
        "c_s" => Ok("c_s"),
        "c_l" => Ok("c_l"),
        other => Err(format!("unknown drift component \"{other}\"")),
    }
}

/// Estimate-drift alerts carry a `&'static str` component name; the
/// serialized name maps back to the interned one the detector uses.
fn quality_component_of(name: &str) -> Result<&'static str, String> {
    match name {
        "selectivity" => Ok("selectivity"),
        "constants" => Ok("constants"),
        other => Err(format!("unknown estimate component \"{other}\"")),
    }
}

/// Cache-hit events carry a `&'static str` scope; the serialized name is
/// interned back the same way as call ops.
fn cache_scope_of(name: &str) -> Result<&'static str, String> {
    match name {
        "probe" => Ok("probe"),
        "plan" => Ok("plan"),
        other => Err(format!("unknown cache scope \"{other}\"")),
    }
}

fn event_of<'a>(line: &'a str, scratch: &mut Scratch<'a>) -> Result<Event, String> {
    Lexer::new(line).line(scratch)?;
    let f = Fields {
        toks: &scratch.toks[1..],
    };
    let seq = f.u64("seq")?;
    let clock = f.f64("clock")?;
    let kind = match f.str("type")? {
        "span_begin" => EventKind::SpanBegin {
            id: f.u64("id")?,
            parent: f.opt_u64("parent")?,
            label: f.str("label")?.to_string(),
        },
        "span_end" => EventKind::SpanEnd {
            id: f.u64("id")?,
            label: f.str("label")?.to_string(),
        },
        "call" => EventKind::Call {
            op: op_of(f.str("op")?)?,
            shard: f.opt_usize("shard")?,
            terms: f.u64("terms")?,
            err: f.opt_str("err")?.map(str::to_string),
            charge: charge_of(&f)?,
        },
        "rebate" => EventKind::Rebate {
            shard: f.opt_usize("shard")?,
            charge: charge_of(&f)?,
        },
        "backoff" => EventKind::Backoff {
            shard: f.opt_usize("shard")?,
            seconds: f.f64("seconds")?,
            charge: charge_of(&f)?,
        },
        "retry" => EventKind::Retry {
            shard: f.opt_usize("shard")?,
            attempt: f.u32("attempt")?,
        },
        "failover" => EventKind::Failover {
            shard: f.usize("shard")?,
            replica: f.usize("replica")?,
        },
        "circuit_open" => EventKind::CircuitOpen {
            shard: f.usize("shard")?,
            rate: f.u32("rate")?,
        },
        "circuit_close" => EventKind::CircuitClose {
            shard: f.usize("shard")?,
            rate: f.u32("rate")?,
        },
        "hedge" => EventKind::Hedge {
            shard: f.usize("shard")?,
            replica: f.usize("replica")?,
        },
        "cancel" => EventKind::Cancel {
            shard: f.usize("shard")?,
            replica: f.usize("replica")?,
        },
        "deadline_miss" => EventKind::DeadlineMiss {
            shard: f.opt_usize("shard")?,
        },
        "migration_begin" => EventKind::MigrationBegin {
            moves: f.u64("moves")?,
            docs: f.u64("docs")?,
            epoch: f.u64("epoch")?,
        },
        "migration_batch" => EventKind::MigrationBatch {
            mv: f.u64("mv")?,
            src: f.usize("src")?,
            dst: f.usize("dst")?,
            docs: f.u64("docs")?,
            postings: f.u64("postings")?,
            high_water: f.u64("high_water")?,
            epoch: f.u64("epoch")?,
        },
        "migration_resume" => EventKind::MigrationResume {
            mv: f.u64("mv")?,
            src: f.usize("src")?,
            dst: f.usize("dst")?,
            docs: f.u64("docs")?,
            epoch: f.u64("epoch")?,
        },
        "migration_abort" => EventKind::MigrationAbort {
            mv: f.u64("mv")?,
            src: f.usize("src")?,
            dst: f.usize("dst")?,
            reverted: f.u64("reverted")?,
            epoch: f.u64("epoch")?,
        },
        "routing_stale" => {
            // Decoded first, as it always was: of two bad fields the same
            // one is reported.
            let shards = f.ints("shards", "bad shard index")?;
            EventKind::RoutingStale {
                from_epoch: f.u64("from_epoch")?,
                to_epoch: f.u64("to_epoch")?,
                shards,
            }
        }
        "doc_traffic" => EventKind::DocTraffic {
            shard: f.opt_usize("shard")?,
            docs: f.ints("docs", "bad entry in \"docs\"")?,
        },
        "skew_alert" => EventKind::SkewAlert {
            window: f.u64("window")?,
            shard: f.usize("shard")?,
            share_ppm: f.u64("share_ppm")?,
            hot: f.bool("hot")?,
        },
        "slo_alert" => EventKind::SloAlert {
            window: f.u64("window")?,
            fast_ppm: f.u64("fast_ppm")?,
            slow_ppm: f.u64("slow_ppm")?,
            firing: f.bool("firing")?,
        },
        "drift_alert" => EventKind::DriftAlert {
            window: f.u64("window")?,
            component: component_of(f.str("component")?)?,
            configured: f.f64("configured")?,
            fitted: f.f64("fitted")?,
            drifted: f.bool("drifted")?,
        },
        "admit" => EventKind::Admit {
            tenant: f.u64("tenant")?,
            arrival: f.u64("arrival")?,
            est_cost: f.f64("est_cost")?,
        },
        "shed" => EventKind::Shed {
            tenant: f.u64("tenant")?,
            arrival: f.u64("arrival")?,
            queued: f.u64("queued")?,
        },
        "budget_exhausted" => EventKind::BudgetExhausted {
            tenant: f.u64("tenant")?,
            arrival: f.u64("arrival")?,
            spent_ms: f.u64("spent_ms")?,
            remaining_ms: f.u64("remaining_ms")?,
        },
        "cache_hit" => EventKind::CacheHit {
            scope: cache_scope_of(f.str("scope")?)?,
            epoch: f.u64("epoch")?,
        },
        "rebalance_advice" => EventKind::RebalanceAdvice {
            window: f.u64("window")?,
            src: f.usize("src")?,
            dst: f.usize("dst")?,
            lo: f.u64("lo")?,
            hi: f.u64("hi")?,
            hits: f.u64("hits")?,
        },
        "planner" => {
            // These two first, for the same reason.
            let est = f.obj("est")?;
            let probe_cols = f.ints("probe_cols", "bad probe col")?;
            EventKind::Planner(PlannerChoice {
                label: f.str("label")?.to_string(),
                chosen: f.bool("chosen")?,
                probe_cols,
                invocation: est.f64("invocation")?,
                processing: est.f64("processing")?,
                transmission: est.f64("transmission")?,
                rtp: est.f64("rtp")?,
                searches: est.f64("searches")?,
                est_rows: est.f64("rows")?,
                est_postings: est.f64("postings")?,
                effective_c_i: f.f64("effective_c_i")?,
            })
        }
        "estimate_sample" => EventKind::EstimateSample {
            cost_q: f.f64("cost_q")?,
            selectivity_q: f.f64("selectivity_q")?,
            constants_q: f.f64("constants_q")?,
            regret_share: f.f64("regret_share")?,
        },
        "estimate_drift" => EventKind::EstimateDrift {
            window: f.u64("window")?,
            component: quality_component_of(f.str("component")?)?,
            p90_q: f.f64("p90_q")?,
            regret_share: f.f64("regret_share")?,
            firing: f.bool("firing")?,
        },
        other => return Err(format!("unknown event type \"{other}\"")),
    };
    Ok(Event { seq, clock, kind })
}

/// Parses a JSONL trace (one event per non-empty line) back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, TraceParseError> {
    let mut events = Vec::new();
    let mut scratch = Scratch::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(
            event_of(line, &mut scratch).map_err(|message| TraceParseError {
                line: i + 1,
                message,
            })?,
        );
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: Event) {
        let line = ev.to_jsonl();
        let parsed = parse_jsonl(&line).expect("parses");
        assert_eq!(parsed, vec![ev], "round trip of {line}");
        assert_eq!(parsed[0].to_jsonl(), line, "byte-identical re-serialize");
    }

    #[test]
    fn round_trips_every_event_kind() {
        let charge = Charge {
            invocations: 1,
            rejected: 0,
            postings: 120,
            docs_short: -3,
            docs_long: 2,
            time_invocation: 3.0,
            time_processing: 0.05080000000000001,
            time_transmission: 8.045,
            faults: 1,
            retries: 2,
            time_backoff: 0.125,
        };
        roundtrip(Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::SpanBegin {
                id: 0,
                parent: None,
                label: "P+RTP{name}".into(),
            },
        });
        roundtrip(Event {
            seq: 1,
            clock: 1.5,
            kind: EventKind::SpanBegin {
                id: 1,
                parent: Some(0),
                label: "gather/shard2".into(),
            },
        });
        roundtrip(Event {
            seq: 2,
            clock: 11.045,
            kind: EventKind::Call {
                op: "search",
                shard: Some(2),
                terms: 4,
                err: Some("cap \"M\" hit\nline2".into()),
                charge,
            },
        });
        roundtrip(Event {
            seq: 3,
            clock: 11.045,
            kind: EventKind::Rebate {
                shard: None,
                charge,
            },
        });
        roundtrip(Event {
            seq: 4,
            clock: 11.17,
            kind: EventKind::Backoff {
                shard: Some(0),
                seconds: 0.125,
                charge,
            },
        });
        roundtrip(Event {
            seq: 5,
            clock: 11.17,
            kind: EventKind::Retry {
                shard: None,
                attempt: 3,
            },
        });
        roundtrip(Event {
            seq: 6,
            clock: 11.17,
            kind: EventKind::Failover {
                shard: 2,
                replica: 1,
            },
        });
        roundtrip(Event {
            seq: 7,
            clock: 11.17,
            kind: EventKind::CircuitOpen { shard: 2, rate: 801 },
        });
        roundtrip(Event {
            seq: 8,
            clock: 11.17,
            kind: EventKind::CircuitClose { shard: 2, rate: 12 },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Hedge {
                shard: 1,
                replica: 0,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Cancel {
                shard: 1,
                replica: 1,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::DeadlineMiss { shard: Some(3) },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::DeadlineMiss { shard: None },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::MigrationBegin {
                moves: 2,
                docs: 17,
                epoch: 3,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::MigrationBatch {
                mv: 0,
                src: 2,
                dst: 0,
                docs: 4,
                postings: 96,
                high_water: 31,
                epoch: 4,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::MigrationResume {
                mv: 1,
                src: 2,
                dst: 0,
                docs: 3,
                epoch: 4,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::MigrationAbort {
                mv: 1,
                src: 2,
                dst: 0,
                reverted: 3,
                epoch: 5,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::RoutingStale {
                from_epoch: 3,
                to_epoch: 5,
                shards: vec![0, 2],
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::RoutingStale {
                from_epoch: 0,
                to_epoch: 1,
                shards: Vec::new(),
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Call {
                op: "xfer.out",
                shard: Some(2),
                terms: 0,
                err: None,
                charge,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::DocTraffic {
                shard: Some(1),
                docs: vec![3, 17, 120],
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::DocTraffic {
                shard: None,
                docs: Vec::new(),
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::SkewAlert {
                window: 4,
                shard: 1,
                share_ppm: 612_500,
                hot: true,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::SloAlert {
                window: 7,
                fast_ppm: 2_000_000,
                slow_ppm: 1_250_000,
                firing: false,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::DriftAlert {
                window: 6,
                component: "c_p",
                configured: 0.0002,
                fitted: 0.00031,
                drifted: true,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::RebalanceAdvice {
                window: 4,
                src: 1,
                dst: 3,
                lo: 40,
                hi: 90,
                hits: 37,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Admit {
                tenant: 2,
                arrival: 17,
                est_cost: 145.125,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Shed {
                tenant: 3,
                arrival: 19,
                queued: 7,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::BudgetExhausted {
                tenant: 1,
                arrival: 23,
                spent_ms: 182_500,
                remaining_ms: 90_000,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::CacheHit {
                scope: "probe",
                epoch: 2,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::CacheHit {
                scope: "plan",
                epoch: 0,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::Planner(PlannerChoice {
                label: "P+RTP{name}".into(),
                chosen: true,
                probe_cols: vec![0, 2],
                invocation: 12.0,
                processing: 0.5,
                transmission: 3.25,
                rtp: 0.001,
                searches: 4.0,
                est_rows: 6.5,
                est_postings: 1200.0,
                effective_c_i: 3.2,
            }),
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::EstimateSample {
                cost_q: 1.75,
                selectivity_q: 2.5,
                constants_q: 1.0,
                regret_share: 0.125,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::EstimateDrift {
                window: 5,
                component: "selectivity",
                p90_q: 3.25,
                regret_share: 0.2,
                firing: true,
            },
        });
        roundtrip(Event {
            seq: 9,
            clock: 11.17,
            kind: EventKind::EstimateDrift {
                window: 8,
                component: "constants",
                p90_q: 1.125,
                regret_share: 0.0,
                firing: false,
            },
        });
        roundtrip(Event {
            seq: 10,
            clock: 12.0,
            kind: EventKind::SpanEnd {
                id: 1,
                label: "gather/shard2".into(),
            },
        });
    }

    #[test]
    fn floats_round_trip_exactly() {
        // Shortest-roundtrip Display output must parse back to identical
        // bits, or trace-replay clocks would drift.
        for v in [0.1, 1.0 / 3.0, 0.05080000000000001, 1e-5, 123456.789012345] {
            let ev = Event {
                seq: 0,
                clock: v,
                kind: EventKind::Retry {
                    shard: None,
                    attempt: 1,
                },
            };
            let parsed = parse_jsonl(&ev.to_jsonl()).unwrap();
            assert_eq!(parsed[0].clock.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_round_trip_by_bits() {
        for v in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            5e-324,
            -0.0,
        ] {
            let ev = Event {
                seq: 0,
                clock: v,
                kind: EventKind::EstimateSample {
                    cost_q: v,
                    selectivity_q: 1.0,
                    constants_q: 1.0,
                    regret_share: 0.0,
                },
            };
            let line = ev.to_jsonl();
            let parsed = parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed[0].clock.to_bits(), v.to_bits(), "{line}");
            let EventKind::EstimateSample { cost_q, .. } = parsed[0].kind else {
                panic!("{line} parsed to another kind");
            };
            assert_eq!(cost_q.to_bits(), v.to_bits(), "{line}");
            assert_eq!(parsed[0].to_jsonl(), line);
        }
    }

    #[test]
    fn integers_a_field_cannot_hold_are_errors_naming_it() {
        let line = |attempt: &str, shard: &str| {
            format!(
                "{{\"seq\":0,\"clock\":0,\"type\":\"retry\",\"shard\":{shard},\"attempt\":{attempt}}}"
            )
        };
        assert!(parse_jsonl(&line("4294967295", "7")).is_ok());
        let err = parse_jsonl(&line("4294967297", "7")).unwrap_err();
        assert_eq!(err.message, "\"attempt\" is not a u32");
        let err = parse_jsonl(&line("1", "18446744073709551616")).unwrap_err();
        assert_eq!(err.message, "\"shard\" is not a usize");
        let err = parse_jsonl(
            "{\"seq\":0,\"clock\":0,\"type\":\"circuit_open\",\"shard\":1,\"rate\":-1}",
        )
        .unwrap_err();
        assert_eq!(err.message, "\"rate\" is not a u32");
    }

    #[test]
    fn any_field_order_spacing_and_unknown_fields_parse() {
        let ev = Event {
            seq: 3,
            clock: 1.5,
            kind: EventKind::Call {
                op: "probe",
                shard: Some(1),
                terms: 2,
                err: Some("a\tb".into()),
                charge: Charge {
                    postings: 9,
                    ..Charge::default()
                },
            },
        };
        let line = "{ \"charge\" : {\"t_backoff\":0,\"retries\":0,\"faults\":0,\"t_xmit\":0,\
                    \"t_proc\":0,\"t_inv\":0,\"long\":0,\"short\":0,\"post\":9,\"post\":1,\"rej\":0,\
                    \"inv\":0,\"seq\":99},\t\"err\":\"a\\tb\", \"terms\":2, \"shard\":1,\
                    \"extra\":[{\"seq\":7},[\"x\"],null], \"op\":\"probe\", \"ty\\u0070e\":\"call\",\
                    \"clock\":1.5,\"seq\":3,\"seq\":4 }";
        assert_eq!(parse_jsonl(line).unwrap(), vec![ev]);
    }

    #[test]
    fn nesting_depth_costs_heap_not_stack() {
        let depth = 200_000;
        let line = format!(
            "{{\"deep\":{}0{},\"seq\":0,\"clock\":0,\"type\":\"deadline_miss\",\"shard\":null}}",
            "[{\"k\":".repeat(depth),
            "}]".repeat(depth)
        );
        assert_eq!(parse_jsonl(&line).unwrap().len(), 1);
        let err = parse_jsonl(&"[".repeat(depth)).unwrap_err();
        assert!(err.message.contains("expected '{'"), "{err}");
        let err = parse_jsonl(&"{\"a\":[".repeat(depth)).unwrap_err();
        assert_eq!(err.message, "unexpected end of line");
    }

    #[test]
    fn blank_lines_are_skipped_and_errors_carry_line_numbers() {
        let ev = Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::Retry {
                shard: None,
                attempt: 1,
            },
        };
        let text = format!("{}\n\n{}\n", ev.to_jsonl(), ev.to_jsonl());
        assert_eq!(parse_jsonl(&text).unwrap().len(), 2);
        let err = parse_jsonl("{\"seq\":0,\"clock\":0,\"type\":\"nope\"}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nope"), "{err}");
        let err = parse_jsonl("not json").unwrap_err();
        assert_eq!(err.line, 1);
    }
}

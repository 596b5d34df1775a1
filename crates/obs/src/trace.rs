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

use crate::analyze::{CostVector, Measure};
use crate::event::{Event, EventKind, PlannerChoice};

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
pub(crate) struct Fields<'t, 'a> {
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

    fn str(&self, key: &str) -> Result<&'t str, String> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            _ => Err(format!("\"{key}\" is not a string")),
        }
    }

    /// A `&'static str` field: the one of `words` the line spells. An
    /// event built in code holds the interned word, and so must one read
    /// back; `what` names the vocabulary in the error.
    pub(crate) fn word(
        &self,
        key: &str,
        what: &str,
        words: &[&'static str],
    ) -> Result<&'static str, String> {
        let name = self.str(key)?;
        let word = words.iter().copied().find(|w| *w == name);
        word.ok_or_else(|| format!("unknown {what} \"{name}\""))
    }

    pub(crate) fn obj(&self, key: &str) -> Result<Fields<'t, 'a>, String> {
        let i = self.find(key)?;
        match self.toks[i].val {
            Val::Obj(n) => Ok(Fields {
                toks: &self.toks[i + 1..i + 1 + n],
            }),
            _ => Err(format!("\"{key}\" is not an object")),
        }
    }

    /// An array of integers.
    fn ints<T: FromStr>(&self, key: &str) -> Result<Vec<T>, String> {
        let i = self.find(key)?;
        let bad = || format!("bad entry in \"{key}\"");
        match self.toks[i].val {
            Val::Arr(n) => self.toks[i + 1..i + 1 + n]
                .iter()
                .map(|item| match item.val {
                    Val::Num(n) => n.parse().map_err(|_| bad()),
                    _ => Err(bad()),
                })
                .collect(),
            _ => Err(format!("\"{key}\" is not an array")),
        }
    }
}

/// How a field of this type is read from under its key — the reading half
/// of a table field, the inverse of `event.rs`'s `Put`.
pub(crate) trait Get: Sized {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String>;
}

/// An integer type, and how an error names it.
macro_rules! get_int {
    ($($ty:ty = $what:literal),+) => {$(
        impl Get for $ty {
            fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
                f.int(key, $what)
            }
        }

        impl Get for Option<$ty> {
            fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
                f.opt_int(key, $what)
            }
        }
    )+};
}
get_int! { u64 = "a u64", u32 = "a u32", usize = "a usize", i64 = "an integer" }

/// `1e999` and `-1e999` are the infinities (every literal past `f64::MAX`
/// parses to one) and `null` is NaN — see `Event::write_jsonl`.
impl Get for f64 {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            Val::Num(n) => n.parse().map_err(|_| format!("\"{key}\" is not a float")),
            Val::Null => Ok(f64::NAN),
            _ => Err(format!("\"{key}\" is not a number")),
        }
    }
}

impl Get for bool {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            Val::Bool(b) => Ok(*b),
            _ => Err(format!("\"{key}\" is not a bool")),
        }
    }
}

impl Get for String {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
        f.str(key).map(str::to_string)
    }
}

impl Get for Option<String> {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
        match f.get(key)? {
            Val::Null => Ok(None),
            Val::Str(s) => Ok(Some(s.to_string())),
            _ => Err(format!("\"{key}\" is not a string or null")),
        }
    }
}

impl<T: FromStr> Get for Vec<T> {
    fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
        f.ints(key)
    }
}

impl PlannerChoice {
    /// Reads what `put_fields` wrote.
    pub(crate) fn get_fields(f: &Fields<'_, '_>) -> Result<Self, String> {
        let (label, chosen) = (String::get(f, "label")?, bool::get(f, "chosen")?);
        let probe_cols = Vec::get(f, "probe_cols")?;
        let est = &f.obj("est")?;
        Ok(PlannerChoice {
            label,
            chosen,
            probe_cols,
            // Fields evaluate as written: of two damaged, the first on the wire.
            est: Measure {
                cost: CostVector {
                    invocation: f64::get(est, "invocation")?,
                    processing: f64::get(est, "processing")?,
                    transmission: f64::get(est, "transmission")?,
                    rtp: f64::get(est, "rtp")?,
                    searches: f64::get(est, "searches")?,
                },
                rows: f64::get(est, "rows")?,
                postings: f64::get(est, "postings")?,
            },
            effective_c_i: f64::get(f, "effective_c_i")?,
        })
    }
}

fn event_of<'a>(line: &'a str, scratch: &mut Scratch<'a>) -> Result<Event, String> {
    Lexer::new(line).line(scratch)?;
    let f = &Fields {
        toks: &scratch.toks[1..],
    };
    Ok(Event {
        seq: u64::get(f, "seq")?,
        clock: f64::get(f, "clock")?,
        kind: EventKind::get(f.str("type")?, f)?,
    })
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
    use crate::event::Charge;

    /// The event `kind` makes at seq 9, clock 11.17 is written as exactly
    /// `line`, and `line` parses back to it.
    fn wire(kind: EventKind, line: &str) {
        let (seq, clock) = (9, 11.17);
        let ev = Event { seq, clock, kind };
        assert_eq!(ev.to_jsonl(), line);
        assert_eq!(parse_jsonl(line).expect("parses"), vec![ev], "{line}");
    }

    /// Every kind, and each `Option`, vocabulary and sign branch, beside
    /// the bytes it is written as. `tests/codec.rs` proves write ∘ parse is
    /// the identity, which a table with two keys swapped would still
    /// satisfy; this pins what the bytes are.
    #[test]
    fn wire_format_of_every_event_kind() {
        let charge = Charge {
            invocations: 1,
            rejected: 0,
            postings: 120,
            docs_short: -3,
            docs_long: 2,
            ns_invocation: 3_000_000_000,
            ns_processing: 50_800_000,
            ns_transmission: 8_045_000_000,
            faults: 1,
            retries: 2,
            ns_backoff: 125_000_000,
        };
        let refund = Charge {
            invocations: -2,
            docs_short: -3,
            ns_invocation: -6_000_000_000,
            ns_transmission: -45_000_000,
            ..Charge::default()
        };
        wire(
            EventKind::SpanBegin {
                id: 0,
                parent: None,
                label: "P+RTP{name}".into(),
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"span_begin\",\"id\":0,\"parent\":null,\"label\":\"P+RTP{name}\"}",
        );
        wire(
            EventKind::SpanBegin {
                id: 1,
                parent: Some(0),
                label: "gather/shard2".into(),
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"span_begin\",\"id\":1,\"parent\":0,\"label\":\"gather/shard2\"}",
        );
        wire(
            EventKind::Call {
                op: "search",
                shard: Some(2),
                terms: 4,
                err: Some("cap \"M\" hit\nline2".into()),
                charge,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"call\",\"op\":\"search\",\"shard\":2,\"terms\":4,\"err\":\"cap \\\"M\\\" hit\\nline2\",\"charge\":{\"inv\":1,\"rej\":0,\"post\":120,\"short\":-3,\"long\":2,\"ns_inv\":3000000000,\"ns_proc\":50800000,\"ns_xmit\":8045000000,\"faults\":1,\"retries\":2,\"ns_backoff\":125000000}}",
        );
        wire(
            EventKind::Rebate {
                shard: None,
                charge: refund,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"rebate\",\"shard\":null,\"charge\":{\"inv\":-2,\"rej\":0,\"post\":0,\"short\":-3,\"long\":0,\"ns_inv\":-6000000000,\"ns_proc\":0,\"ns_xmit\":-45000000,\"faults\":0,\"retries\":0,\"ns_backoff\":0}}",
        );
        wire(
            EventKind::Backoff {
                shard: Some(0),
                charge,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"backoff\",\"shard\":0,\"charge\":{\"inv\":1,\"rej\":0,\"post\":120,\"short\":-3,\"long\":2,\"ns_inv\":3000000000,\"ns_proc\":50800000,\"ns_xmit\":8045000000,\"faults\":1,\"retries\":2,\"ns_backoff\":125000000}}",
        );
        wire(
            EventKind::Retry {
                shard: None,
                attempt: 3,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"retry\",\"shard\":null,\"attempt\":3}",
        );
        wire(
            EventKind::Failover {
                shard: 2,
                replica: 1,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"failover\",\"shard\":2,\"replica\":1}",
        );
        wire(
            EventKind::CircuitOpen {
                shard: 2,
                rate: 801,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"circuit_open\",\"shard\":2,\"rate\":801}",
        );
        wire(
            EventKind::CircuitClose { shard: 2, rate: 12 },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"circuit_close\",\"shard\":2,\"rate\":12}",
        );
        wire(
            EventKind::Hedge {
                shard: 1,
                replica: 0,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"hedge\",\"shard\":1,\"replica\":0}",
        );
        wire(
            EventKind::Cancel {
                shard: 1,
                replica: 1,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"cancel\",\"shard\":1,\"replica\":1}",
        );
        wire(
            EventKind::DeadlineMiss { shard: Some(3) },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"deadline_miss\",\"shard\":3}",
        );
        wire(
            EventKind::DeadlineMiss { shard: None },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"deadline_miss\",\"shard\":null}",
        );
        wire(
            EventKind::MigrationBegin {
                moves: 2,
                docs: 17,
                epoch: 3,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"migration_begin\",\"moves\":2,\"docs\":17,\"epoch\":3}",
        );
        wire(
            EventKind::MigrationBatch {
                mv: 0,
                src: 2,
                dst: 0,
                docs: 4,
                postings: 96,
                high_water: 31,
                epoch: 4,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"migration_batch\",\"mv\":0,\"src\":2,\"dst\":0,\"docs\":4,\"postings\":96,\"high_water\":31,\"epoch\":4}",
        );
        wire(
            EventKind::MigrationResume {
                mv: 1,
                src: 2,
                dst: 0,
                docs: 3,
                epoch: 4,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"migration_resume\",\"mv\":1,\"src\":2,\"dst\":0,\"docs\":3,\"epoch\":4}",
        );
        wire(
            EventKind::MigrationAbort {
                mv: 1,
                src: 2,
                dst: 0,
                reverted: 3,
                epoch: 5,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"migration_abort\",\"mv\":1,\"src\":2,\"dst\":0,\"reverted\":3,\"epoch\":5}",
        );
        wire(
            EventKind::RoutingStale {
                from_epoch: 3,
                to_epoch: 5,
                shards: vec![0, 2],
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"routing_stale\",\"from_epoch\":3,\"to_epoch\":5,\"shards\":[0,2]}",
        );
        wire(
            EventKind::RoutingStale {
                from_epoch: 0,
                to_epoch: 1,
                shards: Vec::new(),
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"routing_stale\",\"from_epoch\":0,\"to_epoch\":1,\"shards\":[]}",
        );
        wire(
            EventKind::Call {
                op: "xfer.out",
                shard: Some(2),
                terms: 0,
                err: None,
                charge,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"call\",\"op\":\"xfer.out\",\"shard\":2,\"terms\":0,\"err\":null,\"charge\":{\"inv\":1,\"rej\":0,\"post\":120,\"short\":-3,\"long\":2,\"ns_inv\":3000000000,\"ns_proc\":50800000,\"ns_xmit\":8045000000,\"faults\":1,\"retries\":2,\"ns_backoff\":125000000}}",
        );
        wire(
            EventKind::DocTraffic {
                shard: Some(1),
                docs: vec![3, 17, 120],
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"doc_traffic\",\"shard\":1,\"docs\":[3,17,120]}",
        );
        wire(
            EventKind::DocTraffic {
                shard: None,
                docs: Vec::new(),
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"doc_traffic\",\"shard\":null,\"docs\":[]}",
        );
        wire(
            EventKind::SkewAlert {
                window: 4,
                shard: 1,
                share_ppm: 612_500,
                hot: true,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"skew_alert\",\"window\":4,\"shard\":1,\"share_ppm\":612500,\"hot\":true}",
        );
        wire(
            EventKind::SloAlert {
                window: 7,
                fast_ppm: 2_000_000,
                slow_ppm: 1_250_000,
                firing: false,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"slo_alert\",\"window\":7,\"fast_ppm\":2000000,\"slow_ppm\":1250000,\"firing\":false}",
        );
        wire(
            EventKind::DriftAlert {
                window: 6,
                component: "c_p",
                configured: 0.0002,
                fitted: 0.00031,
                drifted: true,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"drift_alert\",\"window\":6,\"component\":\"c_p\",\"configured\":0.0002,\"fitted\":0.00031,\"drifted\":true}",
        );
        wire(
            EventKind::RebalanceAdvice {
                window: 4,
                src: 1,
                dst: 3,
                lo: 40,
                hi: 90,
                hits: 37,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"rebalance_advice\",\"window\":4,\"src\":1,\"dst\":3,\"lo\":40,\"hi\":90,\"hits\":37}",
        );
        wire(
            EventKind::Admit {
                tenant: 2,
                arrival: 17,
                est_cost: 145.125,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"admit\",\"tenant\":2,\"arrival\":17,\"est_cost\":145.125}",
        );
        wire(
            EventKind::Shed {
                tenant: 3,
                arrival: 19,
                queued: 7,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"shed\",\"tenant\":3,\"arrival\":19,\"queued\":7}",
        );
        wire(
            EventKind::BudgetExhausted {
                tenant: 1,
                arrival: 23,
                spent_ms: 182_500,
                remaining_ms: 90_000,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"budget_exhausted\",\"tenant\":1,\"arrival\":23,\"spent_ms\":182500,\"remaining_ms\":90000}",
        );
        wire(
            EventKind::CacheHit {
                scope: "probe",
                epoch: 2,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"cache_hit\",\"scope\":\"probe\",\"epoch\":2}",
        );
        wire(
            EventKind::CacheHit {
                scope: "plan",
                epoch: 0,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"cache_hit\",\"scope\":\"plan\",\"epoch\":0}",
        );
        wire(
            EventKind::Planner(PlannerChoice {
                label: "P+RTP{name}".into(),
                chosen: true,
                probe_cols: vec![0, 2],
                est: Measure {
                    rows: 6.5,
                    postings: 1200.0,
                    cost: CostVector {
                        invocation: 12.0,
                        processing: 0.5,
                        transmission: 3.25,
                        rtp: 0.001,
                        searches: 4.0,
                    },
                },
                effective_c_i: 3.2,
            }),
            "{\"seq\":9,\"clock\":11.17,\"type\":\"planner\",\"label\":\"P+RTP{name}\",\"chosen\":true,\"probe_cols\":[0,2],\"est\":{\"invocation\":12,\"processing\":0.5,\"transmission\":3.25,\"rtp\":0.001,\"searches\":4,\"rows\":6.5,\"postings\":1200},\"effective_c_i\":3.2}",
        );
        wire(
            EventKind::EstimateSample {
                cost_q: 1.75,
                selectivity_q: 2.5,
                constants_q: 1.0,
                regret_share: 0.125,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"estimate_sample\",\"cost_q\":1.75,\"selectivity_q\":2.5,\"constants_q\":1,\"regret_share\":0.125}",
        );
        wire(
            EventKind::EstimateDrift {
                window: 5,
                component: "selectivity",
                p90_q: 3.25,
                regret_share: 0.2,
                firing: true,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"estimate_drift\",\"window\":5,\"component\":\"selectivity\",\"p90_q\":3.25,\"regret_share\":0.2,\"firing\":true}",
        );
        wire(
            EventKind::EstimateDrift {
                window: 8,
                component: "constants",
                p90_q: 1.125,
                regret_share: 0.0,
                firing: false,
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"estimate_drift\",\"window\":8,\"component\":\"constants\",\"p90_q\":1.125,\"regret_share\":0,\"firing\":false}",
        );
        wire(
            EventKind::SpanEnd {
                id: 1,
                label: "gather/shard2".into(),
            },
            "{\"seq\":9,\"clock\":11.17,\"type\":\"span_end\",\"id\":1,\"label\":\"gather/shard2\"}",
        );
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
    fn a_charge_in_seconds_is_an_error_not_ticks() {
        // A trace written before charges were ticks spells time in float
        // seconds under `t_*` keys. Read as ticks, `"t_inv":3` would be
        // 3 ns; it must be refused at its line instead.
        let old = "{\"seq\":0,\"clock\":3,\"type\":\"call\",\"op\":\"search\",\"shard\":null,\
                   \"terms\":1,\"err\":null,\"charge\":{\"inv\":1,\"rej\":0,\"post\":0,\"short\":0,\
                   \"long\":0,\"t_inv\":3,\"t_proc\":0,\"t_xmit\":0,\"faults\":0,\"retries\":0,\
                   \"t_backoff\":0}}";
        let err = parse_jsonl(&format!("\n{old}\n")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "missing field \"ns_inv\"")
        );
        let fractional = old
            .replace("t_inv\":3", "ns_inv\":3.5")
            .replace("\"t_", "\"ns_");
        let err = parse_jsonl(&fractional).unwrap_err();
        assert_eq!(err.message, "\"ns_inv\" is not an integer");
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
        let line = "{ \"charge\" : {\"ns_backoff\":0,\"retries\":0,\"faults\":0,\"ns_xmit\":0,\
                    \"ns_proc\":0,\"ns_inv\":0,\"long\":0,\"short\":0,\"post\":9,\"post\":1,\"rej\":0,\
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

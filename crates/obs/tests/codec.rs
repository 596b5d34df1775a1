//! Generated properties of the JSONL trace codec (`Event::write_jsonl` and
//! `parse_jsonl`): every event round-trips to the same bits and the same
//! bytes, field order and spacing do not matter, and no damaged line makes
//! the reader panic or return something that is not an event. `explain`'s
//! quantile summary, replayed from the same generated streams, reads only
//! the calls it says it reads.
//!
//! Events are compared through `Debug`, not `==`: `Debug` prints a float's
//! shortest round-trip digits, `-0.0` and `NaN` included, so two events
//! print alike exactly when every float in them has the same bits.

use std::rc::Rc;

use proptest::prelude::*;

use textjoin_obs::{
    parse_jsonl, render, Charge, CostVector, Event, EventKind, JsonlSink, Measure, MetricsSnapshot,
    PlannerChoice, Sink,
};

/// The generator's entropy: a fixed list of drawn words, read in order
/// (zeros once it runs out).
struct Draw<'a>(std::slice::Iter<'a, u64>);

impl Draw<'_> {
    fn word(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.word() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.word() & 1 == 1
    }

    fn u64(&mut self) -> u64 {
        match self.below(5) {
            0 => 0,
            1 => u64::MAX,
            2 => self.word() % 100,
            _ => self.word(),
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => 0,
            1 => u32::MAX,
            _ => self.word() as u32,
        }
    }

    fn i64(&mut self) -> i64 {
        match self.below(6) {
            0 => 0,
            1 => i64::MIN,
            2 => i64::MAX,
            3 => -((self.word() % 1000) as i64),
            _ => self.word() as i64,
        }
    }

    fn f64(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::MAX,
            6 => 5e-324,
            // Subnormal.
            7 => f64::from_bits(self.word() >> 12),
            8 => (self.word() % 10_000) as f64 / 8.0,
            9 => 0.1 + (self.word() % 1000) as f64 * 0.1,
            _ => {
                // Any bit pattern; the codec keeps one NaN, not its payload.
                let v = f64::from_bits(self.word());
                if v.is_nan() {
                    f64::NAN
                } else {
                    v
                }
            }
        }
    }

    fn text(&mut self) -> String {
        const POOL: &[char] = &[
            '"', '\\', '\n', '\t', '\r', '\0', '\u{1}', '\u{1f}', '\u{7f}', '/', ' ', 'a', 'Z',
            '{', '}', '[', ']', ',', ':', 'é', '漢', '😀', '\u{2028}', '\u{feff}',
        ];
        (0..self.below(12))
            .map(|_| POOL[self.below(POOL.len())])
            .collect()
    }

    fn shard(&mut self) -> Option<usize> {
        if self.flag() {
            Some(self.usize())
        } else {
            None
        }
    }

    fn charge(&mut self) -> Charge {
        Charge {
            invocations: self.i64(),
            rejected: self.i64(),
            postings: self.i64(),
            docs_short: self.i64(),
            docs_long: self.i64(),
            ns_invocation: self.i64(),
            ns_processing: self.i64(),
            ns_transmission: self.i64(),
            faults: self.i64(),
            retries: self.i64(),
            ns_backoff: self.i64(),
        }
    }

    fn pick(&mut self, names: &[&'static str]) -> &'static str {
        names[self.below(names.len())]
    }

    /// An event of the `kind`-th kind of `EventKind::TYPES` with generated
    /// fields.
    fn event(&mut self, kind: usize) -> Event {
        let kind = match kind {
            0 => EventKind::SpanBegin {
                id: self.u64(),
                parent: if self.flag() { Some(self.u64()) } else { None },
                label: self.text(),
            },
            1 => EventKind::SpanEnd {
                id: self.u64(),
                label: self.text(),
            },
            2 => EventKind::Call {
                op: self.pick(&[
                    "search", "probe", "batch", "retrieve", "xfer.out", "xfer.in",
                ]),
                shard: self.shard(),
                terms: self.u64(),
                err: if self.flag() { Some(self.text()) } else { None },
                charge: self.charge(),
            },
            3 => EventKind::Rebate {
                shard: self.shard(),
                charge: self.charge(),
            },
            4 => EventKind::Backoff {
                shard: self.shard(),
                charge: self.charge(),
            },
            5 => EventKind::Retry {
                shard: self.shard(),
                attempt: self.u32(),
            },
            6 => EventKind::Failover {
                shard: self.usize(),
                replica: self.usize(),
            },
            7 => EventKind::CircuitOpen {
                shard: self.usize(),
                rate: self.u32(),
            },
            8 => EventKind::CircuitClose {
                shard: self.usize(),
                rate: self.u32(),
            },
            9 => EventKind::Hedge {
                shard: self.usize(),
                replica: self.usize(),
            },
            10 => EventKind::Cancel {
                shard: self.usize(),
                replica: self.usize(),
            },
            11 => EventKind::DeadlineMiss {
                shard: self.shard(),
            },
            12 => EventKind::MigrationBegin {
                moves: self.u64(),
                docs: self.u64(),
                epoch: self.u64(),
            },
            13 => EventKind::MigrationBatch {
                mv: self.u64(),
                src: self.usize(),
                dst: self.usize(),
                docs: self.u64(),
                postings: self.u64(),
                high_water: self.u64(),
                epoch: self.u64(),
            },
            14 => EventKind::MigrationResume {
                mv: self.u64(),
                src: self.usize(),
                dst: self.usize(),
                docs: self.u64(),
                epoch: self.u64(),
            },
            15 => EventKind::MigrationAbort {
                mv: self.u64(),
                src: self.usize(),
                dst: self.usize(),
                reverted: self.u64(),
                epoch: self.u64(),
            },
            16 => EventKind::RoutingStale {
                from_epoch: self.u64(),
                to_epoch: self.u64(),
                shards: (0..self.below(4)).map(|_| self.usize()).collect(),
            },
            17 => EventKind::DocTraffic {
                shard: self.shard(),
                docs: (0..self.below(4)).map(|_| self.u64()).collect(),
            },
            18 => EventKind::SkewAlert {
                window: self.u64(),
                shard: self.usize(),
                share_ppm: self.u64(),
                hot: self.flag(),
            },
            19 => EventKind::SloAlert {
                window: self.u64(),
                fast_ppm: self.u64(),
                slow_ppm: self.u64(),
                firing: self.flag(),
            },
            20 => EventKind::DriftAlert {
                window: self.u64(),
                component: self.pick(&["c_i", "c_p", "c_s", "c_l"]),
                configured: self.f64(),
                fitted: self.f64(),
                drifted: self.flag(),
            },
            21 => EventKind::RebalanceAdvice {
                window: self.u64(),
                src: self.usize(),
                dst: self.usize(),
                lo: self.u64(),
                hi: self.u64(),
                hits: self.u64(),
            },
            22 => EventKind::Admit {
                tenant: self.u64(),
                arrival: self.u64(),
                est_cost: self.f64(),
            },
            23 => EventKind::Shed {
                tenant: self.u64(),
                arrival: self.u64(),
                queued: self.u64(),
            },
            24 => EventKind::BudgetExhausted {
                tenant: self.u64(),
                arrival: self.u64(),
                spent_ms: self.u64(),
                remaining_ms: self.u64(),
            },
            25 => EventKind::CacheHit {
                scope: self.pick(&["probe", "plan"]),
                epoch: self.u64(),
            },
            26 => EventKind::Planner(PlannerChoice {
                label: self.text(),
                chosen: self.flag(),
                probe_cols: (0..self.below(4)).map(|_| self.usize()).collect(),
                // Fields evaluate as written: the draws keep wire order.
                est: Measure {
                    cost: CostVector {
                        invocation: self.f64(),
                        processing: self.f64(),
                        transmission: self.f64(),
                        rtp: self.f64(),
                        searches: self.f64(),
                    },
                    rows: self.f64(),
                    postings: self.f64(),
                },
                effective_c_i: self.f64(),
            }),
            27 => EventKind::EstimateSample {
                cost_q: self.f64(),
                selectivity_q: self.f64(),
                constants_q: self.f64(),
                regret_share: self.f64(),
            },
            28 => EventKind::EstimateDrift {
                window: self.u64(),
                component: self.pick(&["selectivity", "constants"]),
                p90_q: self.f64(),
                regret_share: self.f64(),
                firing: self.flag(),
            },
            other => panic!(
                "the generator has no arm for kind {other}, {:?}",
                EventKind::TYPES[other]
            ),
        };
        Event {
            seq: self.u64(),
            clock: self.f64(),
            kind,
        }
    }
}

/// What drives one generated event: its kind and the words its fields are
/// drawn from.
fn seeds() -> impl Strategy<Value = (usize, Vec<u64>)> {
    (
        0..EventKind::TYPES.len(),
        prop::collection::vec(0..u64::MAX, 48),
    )
}

/// A stream to replay: about half its events open or close a span, so
/// spans nest, close with none open and are left open at the end.
fn trace() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
    let n = EventKind::TYPES.len();
    let seed = (0..2 * n, prop::collection::vec(0..u64::MAX, 48));
    prop::collection::vec(seed, 0..24).prop_map(move |seeds| {
        seeds
            .into_iter()
            // `SpanBegin` and `SpanEnd` are kinds 0 and 1.
            .map(|(kind, words)| (if kind < n { kind } else { kind % 2 }, words))
            .collect()
    })
}

fn event_of((kind, words): &(usize, Vec<u64>)) -> Event {
    Draw(words.iter()).event(*kind)
}

fn same(a: &Event, b: &Event) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// `line` parses to exactly `want`.
fn assert_parses_to(line: &str, want: &Event) {
    let parsed = parse_jsonl(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(parsed.len(), 1, "{line}");
    assert!(
        same(&parsed[0], want),
        "{line}\n parsed {:?}\n wanted {want:?}",
        parsed[0]
    );
}

/// The members of the JSON object `text` (`{…}`, no outer spacing), split
/// at its top-level commas.
fn members(text: &str) -> Vec<&str> {
    let inner = &text[1..text.len() - 1];
    let (mut out, mut depth, mut quoted, mut escaped, mut start) = (Vec::new(), 0, false, false, 0);
    for (i, c) in inner.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            '{' | '[' if !quoted => depth += 1,
            '}' | ']' if !quoted => depth -= 1,
            ',' if !quoted && depth == 0 => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < inner.len() {
        out.push(&inner[start..]);
    }
    out
}

/// The key of a `"key":value` member the writer wrote (its keys need no
/// escapes).
fn key_of(member: &str) -> &str {
    &member[1..1 + member[1..].find('"').expect("a quoted key")]
}

/// `text`'s members in a drawn order, nested objects' members too.
fn shuffled(text: &str, draw: &mut Draw<'_>) -> String {
    let mut parts: Vec<String> = members(text)
        .into_iter()
        .map(|m| {
            let colon = key_of(m).len() + 2;
            let (key, value) = (&m[..colon], &m[colon + 1..]);
            if value.starts_with('{') {
                format!("{key}:{}", shuffled(value, draw))
            } else {
                m.to_string()
            }
        })
        .collect();
    for i in (1..parts.len()).rev() {
        parts.swap(i, draw.below(i + 1));
    }
    format!("{{{}}}", parts.join(","))
}

/// `line` with drawn runs of spaces and tabs around its structural
/// characters (never inside a string, a number or a literal).
fn respaced(line: &str, draw: &mut Draw<'_>) -> String {
    let (mut out, mut quoted, mut escaped) = (String::new(), false, false);
    let mut gap = |out: &mut String| {
        for _ in 0..draw.below(3) {
            out.push(if draw.flag() { ' ' } else { '\t' });
        }
    };
    for c in line.chars() {
        let structural = !quoted && "{}[],:".contains(c);
        if structural {
            gap(&mut out);
        }
        out.push(c);
        if structural {
            gap(&mut out);
        }
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            _ => {}
        }
    }
    out
}

/// Whatever the reader makes of `bytes`, it is an error or events that are
/// themselves round-trippable — and it is not a panic.
fn assert_err_or_valid(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(events) = parse_jsonl(&text) {
        for ev in &events {
            assert_parses_to(&ev.to_jsonl(), ev);
        }
    }
}

#[test]
fn the_generator_reaches_every_kind() {
    let words: Vec<u64> = (1..=48u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for kind in 0..EventKind::TYPES.len() {
        let ev = event_of(&(kind, words.clone()));
        // The generator's arms are the table's entries, in order: one added
        // to the table without an arm here fails by name.
        assert_eq!(ev.kind.type_name(), EventKind::TYPES[kind]);
        seen.insert(std::mem::discriminant(&ev.kind));
        assert_parses_to(&ev.to_jsonl(), &ev);
    }
    assert_eq!(seen.len(), EventKind::TYPES.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// parse ∘ write is the identity on events, write ∘ parse on lines.
    #[test]
    fn events_round_trip_to_the_same_bits_and_bytes(seed in seeds()) {
        let ev = event_of(&seed);
        let line = ev.to_jsonl();
        prop_assert!(!line.contains('\n'), "{}", line);
        assert_parses_to(&line, &ev);
        let parsed = parse_jsonl(&line).expect("checked above");
        prop_assert_eq!(parsed[0].to_jsonl(), line);
    }

    /// A recorded stream is the per-event lines, and parses back whole.
    #[test]
    fn a_sink_full_of_events_parses_back(stream in prop::collection::vec(seeds(), 1..8)) {
        let sink = Rc::new(JsonlSink::new());
        let events: Vec<Event> = stream.iter().map(event_of).collect();
        let mut lines = String::new();
        for ev in &events {
            sink.record(ev);
            lines.push_str(&ev.to_jsonl());
            lines.push('\n');
        }
        prop_assert_eq!(sink.contents(), &lines[..]);
        // Blank lines between events are skipped.
        let parsed = parse_jsonl(&lines.replace('\n', "\n\n \t\n")).expect("a stream parses");
        prop_assert_eq!(parsed.len(), events.len());
        prop_assert!(parsed.iter().zip(&events).all(|(a, b)| same(a, b)));
    }

    /// What `explain trace.jsonl` prints is what the live session would
    /// have: rendering the parsed lines gives the live render's bytes, and
    /// neither panics however the spans nest.
    #[test]
    fn a_replayed_trace_renders_as_the_live_one(stream in trace()) {
        let events: Vec<Event> = stream.iter().map(event_of).collect();
        let mut lines = String::new();
        for ev in &events {
            lines.push_str(&ev.to_jsonl());
            lines.push('\n');
        }
        let replayed = parse_jsonl(&lines).expect("a written stream parses");
        prop_assert_eq!(render(&replayed), render(&events));
    }

    /// Field order and spaces or tabs between tokens do not matter.
    #[test]
    fn shuffled_and_respaced_lines_parse_to_the_same_event(
        seed in seeds(),
        noise in prop::collection::vec(0..u64::MAX, 400),
    ) {
        let ev = event_of(&seed);
        let mut draw = Draw(noise.iter());
        let line = respaced(&shuffled(&ev.to_jsonl(), &mut draw), &mut draw);
        assert_parses_to(&line, &ev);
    }

    /// An unknown field is ignored and the first of two duplicates wins.
    #[test]
    fn unknown_fields_are_ignored_and_the_first_duplicate_wins(a in seeds(), b in seeds()) {
        let (first, second) = (event_of(&a), event_of(&(a.0, b.1)));
        let (one, two) = (first.to_jsonl(), second.to_jsonl());
        let line = format!(
            "{{\"x\":[{{\"seq\":1}},\"}}\"],{},\"y\":null,{}}}",
            &one[1..one.len() - 1],
            &two[1..two.len() - 1]
        );
        assert_parses_to(&line, &first);
    }

    /// A line cut short anywhere is an error or an event, never a panic.
    #[test]
    fn truncated_lines_never_panic(seed in seeds()) {
        let line = event_of(&seed).to_jsonl();
        for cut in 0..line.len() {
            assert_err_or_valid(&line.as_bytes()[..cut]);
        }
        // Nothing but the whole object is an event.
        for cut in (1..line.len()).filter(|&i| line.is_char_boundary(i)) {
            prop_assert!(parse_jsonl(&line[..cut]).is_err(), "{}", &line[..cut]);
        }
    }

    /// Nor is a line with one byte replaced.
    #[test]
    fn lines_with_a_flipped_byte_never_panic(
        seed in seeds(),
        flips in prop::collection::vec((0..usize::MAX, 0u8..255), 64),
    ) {
        let line = event_of(&seed).to_jsonl();
        for (at, byte) in flips {
            let mut bytes = line.clone().into_bytes();
            let at = at % bytes.len();
            // Structural bytes are the likeliest to find a bug.
            bytes[at] = if byte < 128 { byte } else { b"{}[]\",:\\-.e0n"[byte as usize % 13] };
            assert_err_or_valid(&bytes);
        }
    }

    /// A number past what its field holds is an error naming the field, not
    /// a value wrapped into range.
    #[test]
    fn numbers_too_large_for_their_field_are_errors(past in 1..u64::MAX >> 32) {
        let retry = |attempt: u64| {
            format!("{{\"seq\":0,\"clock\":0,\"type\":\"retry\",\"shard\":2,\"attempt\":{attempt}}}")
        };
        prop_assert!(parse_jsonl(&retry(u64::from(u32::MAX))).is_ok());
        let err = parse_jsonl(&retry(u64::from(u32::MAX) + past)).expect_err("no u32");
        prop_assert_eq!(err.message, "\"attempt\" is not a u32");
        let huge = format!("{}{past}", u64::MAX);
        let err = parse_jsonl(&retry(0).replace(":2,", &format!(":{huge},"))).expect_err("no usize");
        prop_assert_eq!(err.message, "\"shard\" is not a usize");
        let err = parse_jsonl(&retry(0).replace(":0,", &format!(":{huge},"))).expect_err("no u64");
        prop_assert_eq!(err.message, "\"seq\" is not a u64");
    }

    /// A line missing a field is an error that names it.
    #[test]
    fn a_deleted_field_is_named_in_the_error(seed in seeds(), which in 0..usize::MAX) {
        let line = event_of(&seed).to_jsonl();
        let fields = members(&line);
        let gone = which % fields.len();
        let rest: Vec<&str> = fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != gone)
            .map(|(_, m)| *m)
            .collect();
        let err = parse_jsonl(&format!("{{{}}}", rest.join(","))).expect_err("a field is missing");
        prop_assert_eq!(err.line, 1);
        prop_assert_eq!(err.message, format!("missing field \"{}\"", key_of(fields[gone])));
    }
}

/// The ops a generated call may carry.
const OPS: &[&str] = &[
    "search", "probe", "batch", "retrieve", "xfer.out", "xfer.in",
];

/// A call `explain`'s quantiles might read: its op, whether it failed, and
/// its postings and short forms (small, negative, or past the last pow2
/// bound).
fn call_seed() -> impl Strategy<Value = (usize, bool, i64, i64)> {
    let count = || prop_oneof![0i64..300, -5i64..0, 0i64..(1 << 26)];
    (0..OPS.len(), prop::bool::ANY, count(), count())
}

/// `values` in `explain`'s histogram, computed here from its definition:
/// the non-empty buckets `≤1, ≤2, …, ≤2^23, inf` spelled as `render`
/// spells them, and `(p50, p90, p99)`, each the rounded-up midpoint of the
/// bucket holding the `ceil(q × n)`-th smallest value (the overflow
/// bucket's range is `(2^23, 2^24]`).
fn reference_histogram(values: &[u64]) -> (String, Option<(u64, u64, u64)>) {
    let mut counts = [0u64; 25];
    for &v in values {
        counts[(0..24).find(|&k| v <= 1 << k).unwrap_or(24)] += 1;
    }
    let spelled: Vec<String> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(k, &c)| match k {
            24 => format!("inf:{c}"),
            _ => format!("≤{}:{c}", 1u64 << k),
        })
        .collect();
    let n = values.len() as u64;
    let quantile = |q: f64| {
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        let k = (0..25)
            .find(|&k| {
                seen += counts[k];
                seen >= rank
            })
            .expect("the counts sum to n");
        let lo = if k == 0 { 0 } else { (1u64 << (k - 1)) + 1 };
        let hi = 1u64 << k.min(24);
        lo + (hi - lo).div_ceil(2)
    };
    let quantiles = (n > 0).then(|| (quantile(0.5), quantile(0.9), quantile(0.99)));
    (format!("[{}]", spelled.join(" ")), quantiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `explain`'s quantile summary replays only calls that succeeded and
    /// are not `retrieve`: a failed call, a `retrieve` and every other kind
    /// move neither histogram, and both equal the reference built here.
    #[test]
    fn explain_quantiles_read_only_successful_non_retrieve_calls(
        calls in prop::collection::vec(call_seed(), 0..40),
        others in prop::collection::vec(seeds(), 0..EventKind::TYPES.len()),
    ) {
        let mut events: Vec<Event> = calls
            .iter()
            .map(|&(op, failed, postings, docs_short)| Event {
                seq: 0,
                clock: 0.0,
                kind: EventKind::Call {
                    op: OPS[op],
                    shard: None,
                    terms: 1,
                    err: failed.then(|| "unavailable".to_string()),
                    charge: Charge { invocations: 1, postings, docs_short, ..Charge::default() },
                },
            })
            .collect();
        // Every other kind at most once, so the extreme numbers the
        // generator draws never sum past what a session could book.
        let mut kinds = std::collections::BTreeSet::new();
        let others = others
            .iter()
            .map(event_of)
            .filter(|e| !matches!(e.kind, EventKind::Call { .. }) && kinds.insert(e.kind.type_name()));
        for (i, ev) in others.enumerate() {
            events.insert(i * 7 % (events.len() + 1), ev);
        }
        let read: Vec<&Charge> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { op: "retrieve", .. } => None,
                EventKind::Call { err: None, charge, .. } => Some(charge),
                _ => None,
            })
            .collect();
        let snap = MetricsSnapshot::from_events(&events);
        let mut want = Vec::new();
        for (key, field) in [
            ("hist.docs_short", (|c: &Charge| c.docs_short) as fn(&Charge) -> i64),
            ("hist.postings", |c: &Charge| c.postings),
        ] {
            let values: Vec<u64> = read.iter().map(|c| field(c).max(0) as u64).collect();
            let (spelled, quantiles) = reference_histogram(&values);
            prop_assert_eq!(snap.quantiles(key), quantiles, "{}", key);
            if !values.is_empty() {
                want.push(format!("{key} {spelled}"));
            }
        }
        let rendered = snap.render();
        let hists: Vec<&str> = rendered.lines().filter(|l| l.starts_with("hist.")).collect();
        prop_assert_eq!(hists, want);
    }

    /// Replaying any stream, whatever numbers it carries, never panics.
    #[test]
    fn explain_quantiles_replay_any_stream(stream in prop::collection::vec(seeds(), 0..24)) {
        let events: Vec<Event> = stream.iter().map(event_of).collect();
        let snap = MetricsSnapshot::from_events(&events);
        for key in ["hist.postings", "hist.docs_short"] {
            let _ = snap.quantiles(key);
        }
        let _ = snap.render();
    }
}

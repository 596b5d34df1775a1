//! `Usage::book` is the one function that says what a booking adds to a
//! ledger. Pinned here: it is exact (a charge and then its negation return
//! a ledger bit for bit), a field a charge leaves at zero changes no bit,
//! and folding the charges of a recorded trace through it reproduces the
//! server's ledger field for field — the audit identity of
//! `tests/audit.rs`, stated through the function that now defines it.

use std::rc::Rc;

use proptest::prelude::*;
use textjoin_obs::{Charge, Recorder, RingSink};
use textjoin_text::doc::{DocId, Document, TextSchema};
use textjoin_text::faults::{Fault, FaultPlan};
use textjoin_text::index::Collection;
use textjoin_text::parse::parse_search;
use textjoin_text::server::{TextServer, Usage};

/// The fields `book` moves, floats by bit pattern.
fn bits(u: &Usage) -> [u64; 11] {
    [
        u.invocations,
        u.rejected,
        u.postings_processed,
        u.docs_short,
        u.docs_long,
        u.time_invocation.to_bits(),
        u.time_processing.to_bits(),
        u.time_transmission.to_bits(),
        u.faults,
        u.retries,
        u.time_backoff.to_bits(),
    ]
}

/// Simulated seconds a sum of which is exact: a multiple of 2⁻¹⁰ below
/// 2²², of either sign, and one draw in four a zero (`0` is `0.0`, `1` is
/// `-0.0`).
fn seconds(word: u64) -> f64 {
    let v = if word & 6 == 0 { 0 } else { (word >> 3) as u32 };
    let v = f64::from(v) / 1024.0;
    if word & 1 == 1 {
        -v
    } else {
        v
    }
}

/// A charge drawn from `w`, or the one that refunds it.
fn charge(w: &[u64], refund: bool) -> Charge {
    let n = |v: u64| {
        if refund {
            (v as i64).wrapping_neg()
        } else {
            v as i64
        }
    };
    let t = |v: u64| if refund { -seconds(v) } else { seconds(v) };
    Charge {
        invocations: n(w[0]),
        rejected: n(w[1]),
        postings: n(w[2]),
        docs_short: n(w[3]),
        docs_long: n(w[4]),
        time_invocation: t(w[5]),
        time_processing: t(w[6]),
        time_transmission: t(w[7]),
        faults: n(w[8]),
        retries: n(w[9]),
        time_backoff: t(w[10]),
    }
}

/// A ledger: any counters, and seconds as a ledger comes to hold them — by
/// sums from `+0.0`, so of either sign but never `-0.0`.
fn ledger(w: &[u64]) -> Usage {
    let mut u = Usage::default();
    u.book(&charge(w, false));
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A rebate undoes its charge exactly, whatever the counters wrap to
    /// in between.
    #[test]
    fn a_charge_and_then_its_negation_return_the_ledger_bit_for_bit(
        l in prop::collection::vec(0..u64::MAX, 11),
        c in prop::collection::vec(0..u64::MAX, 11),
    ) {
        let before = ledger(&l);
        let mut u = before;
        u.book(&charge(&c, false));
        u.book(&charge(&c, true));
        prop_assert_eq!(bits(&u), bits(&before));
    }

    /// A counter whose field the charge leaves at `0`, `0.0` or `-0.0`
    /// keeps its bits, whatever it holds.
    #[test]
    fn a_field_left_at_zero_changes_no_bit(
        l in prop::collection::vec(0..u64::MAX, 11),
        c in prop::collection::vec(0..u64::MAX, 11),
        field in 0..11usize,
        negative in prop::bool::ANY,
    ) {
        let before = ledger(&l);
        let mut words = c.clone();
        // An integer has the one zero; see `seconds` for the other.
        words[field] = u64::from(negative && [5, 6, 7, 10].contains(&field));
        let mut u = before;
        u.book(&charge(&words, false));
        prop_assert_eq!(bits(&u)[field], bits(&before)[field]);
    }
}

/// Every kind of booking a lone server makes — searches, a probe, a batch
/// and its rebate, retrievals, a cap rejection, a refused connection, a
/// timeout, a slow answer, a client backoff, a cancelled leg's refund —
/// recorded, and the recorded charges folded through `book` in order.
#[test]
fn replaying_a_traces_charges_through_book_reproduces_the_ledger() {
    let schema = TextSchema::bibliographic();
    let (ti, au) = (
        schema.field_by_name("title").unwrap(),
        schema.field_by_name("author").unwrap(),
    );
    let mut coll = Collection::new(schema);
    for (title, author) in [
        ("text retrieval", "Gravano"),
        ("text indexing", "Kao"),
        ("join processing", "Garcia"),
    ] {
        coll.add_document(Document::new().with(ti, title).with(au, author));
    }
    let mut server = TextServer::new(coll);
    server.set_max_terms(2);
    server.set_fault_plan(FaultPlan::scripted(vec![
        (1, Fault::Unavailable),
        (2, Fault::Timeout { after_postings: 7 }),
        (3, Fault::Slow { delta_s: 2 }),
    ]));
    let ring = Rc::new(RingSink::unbounded());
    server.set_recorder(Some(Recorder::new(ring.clone())));
    let q = |text: &str| parse_search(text, server.collection().schema()).unwrap();

    server.search(&q("TI='text'")).unwrap();
    server.search(&q("TI='text'")).unwrap_err();
    server.charge_backoff(0.3);
    server.search(&q("AU='kao'")).unwrap_err();
    let before = server.usage();
    server.probe(&q("AU='kao'")).unwrap();
    server.rebate(&server.usage().since(&before));
    server
        .search(&q("AU='kao' or AU='garcia' or AU='gravano'"))
        .unwrap_err();
    server
        .search_batch(&[q("TI='text'"), q("AU='gravano'"), q("AU='kao'")])
        .unwrap();
    server.retrieve(DocId(1)).unwrap();
    server.retrieve(DocId(99)).unwrap_err();

    let events = ring.events();
    let charges: Vec<&Charge> = events.iter().filter_map(|e| e.kind.charge()).collect();
    assert!(charges.iter().any(|c| c.invocations < 0), "a rebate");
    assert!(charges.iter().any(|c| c.faults > 0 && c.postings == 7));
    assert!(charges.iter().any(|c| c.rejected == 1));
    let mut replayed = Usage::default();
    for c in charges {
        replayed.book(c);
    }
    assert_eq!(bits(&replayed), bits(&server.usage()));
}

//! `Usage::book` is the one function that says what a booking adds to a
//! ledger. Pinned here: it is exact (a charge and then its negation return
//! a ledger to what it held), a field a charge leaves at zero is unchanged,
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

/// The fields `book` moves.
fn fields(u: &Usage) -> [u64; 11] {
    [
        u.invocations,
        u.rejected,
        u.postings_processed,
        u.docs_short,
        u.docs_long,
        u.ns_invocation,
        u.ns_processing,
        u.ns_transmission,
        u.faults,
        u.retries,
        u.ns_backoff,
    ]
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
    Charge {
        invocations: n(w[0]),
        rejected: n(w[1]),
        postings: n(w[2]),
        docs_short: n(w[3]),
        docs_long: n(w[4]),
        ns_invocation: n(w[5]),
        ns_processing: n(w[6]),
        ns_transmission: n(w[7]),
        faults: n(w[8]),
        retries: n(w[9]),
        ns_backoff: n(w[10]),
    }
}

/// A ledger holding any values.
fn ledger(w: &[u64]) -> Usage {
    let mut u = Usage::default();
    u.book(&charge(w, false));
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A rebate undoes its charge exactly, whatever the fields wrap to in
    /// between.
    #[test]
    fn a_charge_and_then_its_negation_return_the_ledger_bit_for_bit(
        l in prop::collection::vec(0..u64::MAX, 11),
        c in prop::collection::vec(0..u64::MAX, 11),
    ) {
        let before = ledger(&l);
        let mut u = before;
        u.book(&charge(&c, false));
        u.book(&charge(&c, true));
        prop_assert_eq!(u, before);
    }

    /// A field the charge leaves at zero keeps its value, whatever it
    /// holds.
    #[test]
    fn a_field_left_at_zero_changes_no_bit(
        l in prop::collection::vec(0..u64::MAX, 11),
        c in prop::collection::vec(0..u64::MAX, 11),
        field in 0..11usize,
    ) {
        let before = ledger(&l);
        let mut words = c.clone();
        words[field] = 0;
        let mut u = before;
        u.book(&charge(&words, false));
        prop_assert_eq!(fields(&u)[field], fields(&before)[field]);
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
    assert_eq!(replayed, server.usage());
}

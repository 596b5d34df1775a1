//! The heap record: exact byte and allocation counts of the structures the
//! text system keeps, read with a counting global allocator.
//!
//! Execution is single-threaded and seeded, so every count is the same on
//! every run, and a change that moves one shows here without wall-clock
//! noise. Each reading is committed as a ceiling printed beside it: lower a
//! ceiling when a change shrinks its reading, and raise one only with a
//! reason given in the change.
//!
//! Only the test's own thread is counted, and every reading is taken inside
//! the one `#[test]` below, so no other test allocates during a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use textjoin::text::doc::{DocId, Document};
use textjoin::text::eval::evaluate;
use textjoin::text::index::Collection;
use textjoin::text::parse::parse_search;
use textjoin::workload::names::TOPICS;
use textjoin::workload::world::{World, WorldSpec};

struct Counting;

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// `(allocations, live bytes)` of this thread while counted.
    static TALLY: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

fn tally(allocs: u64, bytes: i64) {
    if COUNTED.with(Cell::get) {
        TALLY.with(|t| {
            let (a, b) = t.get();
            t.set((a + allocs, b + bytes));
        });
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-locals, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` counted: its value, the allocations it made and the bytes it
/// left live.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    TALLY.with(|t| t.set((0, 0)));
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    let (allocs, bytes) = TALLY.with(Cell::get);
    (out, allocs, bytes)
}

/// The world of the `text_search` benchmark workload: the default world at
/// ten times its populations.
fn scale_10() -> WorldSpec {
    let d = WorldSpec::default();
    WorldSpec {
        background_docs: d.background_docs * 10,
        students: d.students * 10,
        projects: d.projects * 10,
        advisors: d.advisors * 10,
        ..d
    }
}

/// A copy of `doc` that shares nothing with it.
fn deep_copy(doc: &Document) -> Document {
    let mut copy = Document::new();
    for (field, values) in doc.iter() {
        for v in values {
            copy.push(field, v.as_str());
        }
    }
    copy
}

/// One search of each positional and Boolean class the `text_search`
/// benchmark times, over three topic words and the world's first 69
/// student names: the phrase, NEAR, AND/OR, NOT and 70-term package
/// searches, as the benchmark writes them.
fn searches(world: &World) -> [(&'static str, String); 5] {
    let (a, b, c) = (TOPICS[0], TOPICS[1], TOPICS[2]);
    let student = world.catalog.table("student").expect("world has students");
    let names = student.column_values(student.col("name"));
    let authors: Vec<String> = (names.iter().take(69))
        .map(|n| format!("AU={}", n.as_str().expect("names are strings")))
        .collect();
    [
        ("phrase", format!("AB='{a} {b}'")),
        ("NEAR", format!("AB={a} near3 AB={c}")),
        ("AND/OR", format!("TI={a} and (AB={b} or AB={c})")),
        ("NOT", format!("TI={a} not AB={b}")),
        (
            "70-term package",
            format!("TI={a} and ({})", authors.join(" or ")),
        ),
    ]
}

/// One reading against its ceiling, both to the hundredth printed.
fn check(name: &str, reading: f64, ceiling: f64) -> bool {
    println!("{name:<40} {reading:>14.2}  ceiling {ceiling:>14.2}");
    (reading * 100.0).round() <= (ceiling * 100.0).round()
}

#[test]
fn heap_readings_stay_under_their_ceilings() {
    let (world, _, world_bytes) = counted(|| World::generate(scale_10()));
    let coll = world.server.collection();
    let docs: Vec<Document> = (0..coll.doc_count() as u32)
        .map(|i| coll.document(DocId(i)).expect("dense docids").clone())
        .collect();

    // The index of a full re-index: the documents' values are shared with
    // the world's, so what stays live is the index and the store's handles.
    let (index, index_allocs, index_bytes) = counted(|| {
        let mut fresh = Collection::new(coll.schema().clone());
        fresh.extend(docs.iter().cloned());
        fresh
    });
    assert_eq!(index.total_postings(), coll.total_postings());
    // The same documents copied whole and indexed: the difference is the
    // documents' own heap, stored as `add_document` stores them.
    let (owning, _, owning_bytes) = counted(|| {
        let mut fresh = Collection::new(coll.schema().clone());
        fresh.extend(docs.iter().map(deep_copy));
        fresh
    });
    assert_eq!(owning.total_postings(), index.total_postings());

    // Allocations of one evaluation per search class: its answers and the
    // lists its kernels build, and one marks buffer however many kernels
    // run.
    let mut evaluations = Vec::new();
    for (class, query) in searches(&world) {
        let expr = parse_search(&query, coll.schema()).expect("benchmark searches parse");
        let (out, allocs, _) = counted(|| evaluate(coll, &expr));
        assert!(!out.docs.is_empty(), "{query} matches");
        evaluations.push((class, allocs));
    }

    let postings = index.total_postings() as f64;
    let stored = (owning_bytes - index_bytes) as f64 / docs.len() as f64;
    let ceilings = [8.0, 8.0, 4.0, 3.0, 4.0];
    let each = evaluations.iter().zip(ceilings);
    let ok = [
        check(
            "index bytes per posting",
            index_bytes as f64 / postings,
            6.95,
        ),
        check("world live heap, bytes", world_bytes as f64, 12_406_903.0),
        check("heap bytes per stored document", stored, 400.5),
        check("re-index allocations", index_allocs as f64, 54_359.0),
    ]
    .into_iter()
    .chain(each.map(|(&(class, allocs), ceiling)| {
        check(
            &format!("allocations, one {class} search"),
            allocs as f64,
            ceiling,
        )
    }))
    .collect::<Vec<_>>();
    assert!(
        ok.iter().all(|&ok| ok),
        "a heap reading rose past its ceiling"
    );
}

//! The loose-integration surface itself: what the database system sees of
//! the external text server — Mercury-style search strings, short vs long
//! form costs, the term cap, and the Section 8 extensions (batched
//! invocations, vocabulary statistics export).
//!
//! ```text
//! cargo run --example loose_integration
//! ```

use textjoin::text::expr::SearchExpr;
use textjoin::workload::world::{World, WorldSpec};

fn main() {
    let w = World::generate(WorldSpec {
        background_docs: 500,
        students: 80,
        ..WorldSpec::default()
    });
    let server = &w.server;
    let schema = server.collection().schema();
    println!(
        "External text source: {} documents, term cap M = {}\n",
        server.doc_count(),
        server.max_terms()
    );

    // --- 1. Searches are parsed from Mercury-style strings --------------
    println!("1. Boolean searches (each invocation costs c_i = 3 s):");
    for q in [
        "TI='query optimization'",
        "TI='text' and YR='1993'",
        "TI='retriev?'",
        "TI='query' near5 TI='optimization'",
    ] {
        server.reset_usage();
        let hits = server.search_str(q).expect("search ok");
        println!(
            "   {:<44} → {:>3} docs, {:.2} simulated s",
            q,
            hits.len(),
            server.usage().total_cost()
        );
    }

    // --- 2. Short vs long form -------------------------------------------
    println!("\n2. Transmission: short form is cheap, long form is 260× dearer:");
    server.reset_usage();
    let hits = server
        .search_str("TI='query optimization'")
        .expect("search ok");
    let after_search = server.usage().total_cost();
    for d in hits.docs.iter().take(3) {
        server.retrieve(d.id).expect("retrieve ok");
    }
    println!(
        "   search shipped {} short forms ({:.2} s); 3 long retrievals added {:.2} s",
        hits.len(),
        after_search,
        server.usage().total_cost() - after_search
    );

    // --- 3. Term cap ------------------------------------------------------
    println!(
        "\n3. The term cap rejects oversized disjunctions (semi-join chunking exists for this):"
    );
    let au = schema.field_by_name("author").expect("author");
    let big = SearchExpr::or(
        (0..100)
            .map(|i| SearchExpr::term_in(&format!("name{i}"), au))
            .collect(),
    );
    match server.search(&big) {
        Err(e) => println!("   100-term search → {e}"),
        Ok(_) => unreachable!("cap is 70"),
    }

    // --- 4. Section 8 extensions ------------------------------------------
    println!("\n4. Batched invocation (one c_i for many queries):");
    server.reset_usage();
    let batch: Vec<SearchExpr> = ["query", "join", "text", "index"]
        .iter()
        .map(|t| SearchExpr::term_in(t, schema.field_by_name("title").expect("title")))
        .collect();
    let results = server.search_batch(&batch).expect("batch ok");
    println!(
        "   4 queries, {} total hits, {:.2} s (separate calls would pay 4 × c_i)",
        results.results.iter().map(|r| r.len()).sum::<usize>(),
        server.usage().total_cost()
    );

    println!("\n5. Vocabulary statistics export (free single-column probes):");
    server.reset_usage();
    let stats = server.export_stats();
    let ti = schema.field_by_name("title").expect("title");
    for word in ["query", "belief", "zebra"] {
        println!(
            "   fanout('{word}', title) = {} — answered with {} invocations",
            stats.fanout(word, ti),
            server.usage().invocations
        );
    }
}

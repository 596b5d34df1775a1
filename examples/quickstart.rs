//! Quickstart: build a tiny text collection and a relation, run one
//! foreign join with every applicable method, and compare simulated costs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use textjoin::core::methods::{ExecContext, Projection};
use textjoin::core::optimizer::single::enumerate_methods;
use textjoin::core::query::{prepare, SingleJoinQuery};
use textjoin::rel::catalog::Catalog;
use textjoin::rel::expr::Pred;
use textjoin::rel::schema::{ColId, RelSchema};
use textjoin::rel::table::Table;
use textjoin::rel::tuple;
use textjoin::rel::value::ValueType;
use textjoin::text::doc::{Document, TextSchema};
use textjoin::text::index::Collection;
use textjoin::text::server::TextServer;

fn main() {
    // --- The external text source: a bibliographic collection ----------
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").unwrap();
    let au = schema.field_by_name("author").unwrap();
    let mut coll = Collection::new(schema);
    coll.add_document(
        Document::new()
            .with(ti, "Belief Update in Knowledge Bases")
            .with(au, "Radhika"),
    );
    coll.add_document(
        Document::new()
            .with(ti, "Text Retrieval Systems")
            .with(au, "Gravano")
            .with(au, "Garcia"),
    );
    coll.add_document(
        Document::new()
            .with(ti, "Belief Update Semantics")
            .with(au, "Kao"),
    );
    let server = TextServer::new(coll);

    // --- The relational side: a student table --------------------------
    let mut catalog = Catalog::new();
    let mut student = Table::new(
        "student",
        RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("area", ValueType::Str),
            ("year", ValueType::Int),
        ]),
    );
    student.push(tuple!["Radhika", "AI", 5i64]);
    student.push(tuple!["Gravano", "db", 4i64]);
    student.push(tuple!["Kao", "AI", 4i64]);
    student.push(tuple!["Pham", "AI", 6i64]);
    catalog.register(student);

    // --- The paper's Q1 -------------------------------------------------
    // select * from student, mercury
    // where student.area = 'AI' and student.year > 3
    //   and 'belief update' in mercury.title
    //   and student.name in mercury.author
    let q = SingleJoinQuery {
        relation: "student".into(),
        local_pred: Pred::and(vec![
            Pred::eq(ColId(1), "AI"), // area
            Pred::gt(ColId(2), 3i64), // year
        ]),
        selections: vec![("belief update".into(), "title".into())],
        join: vec![("name".into(), "author".into())],
        projection: Projection::Full,
    };

    let ts_schema = server.collection().schema();
    let prepared = prepare(&q, &catalog, ts_schema).expect("query prepares");
    println!(
        "Q1 over {} AI students and {} documents\n",
        prepared.filtered.len(),
        server.doc_count()
    );

    // --- Cost every applicable method, then execute each ---------------
    let export = server.export_stats();
    let stats = prepared.statistics_from_export(&export, ts_schema);
    let params = textjoin::core::cost::params::CostParams::mercury(server.doc_count() as f64);
    let candidates = enumerate_methods(&params, &stats, q.projection, false);

    println!(
        "{:<10} {:>12} {:>12}  rows",
        "method", "est cost", "measured"
    );
    for cand in &candidates {
        let ctx = ExecContext::new(&server);
        let out = textjoin::core::exec::execute_single(
            &ctx,
            &prepared,
            cand,
            textjoin::core::methods::probe::ProbeSchedule::ProbeFirst,
        )
        .expect("method runs");
        println!(
            "{:<10} {:>11.2}s {:>11.2}s  {}",
            cand.label,
            cand.cost.total(),
            out.report.total_cost(),
            out.report.output_rows
        );
    }

    // --- Show the winning method's answer -------------------------------
    let best = &candidates[0];
    let ctx = ExecContext::new(&server);
    let out = textjoin::core::exec::execute_single(
        &ctx,
        &prepared,
        best,
        textjoin::core::methods::probe::ProbeSchedule::ProbeFirst,
    )
    .expect("method runs");
    println!("\nOptimizer picks {} — result:\n{}", best.label, out.table);
}

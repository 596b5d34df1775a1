//! The paper's Section 1 motivating scenario: a hospital information
//! system joining structured patient records with external medical
//! literature (cf. the [YA94] system the paper cites).
//!
//! Physicians ask: *"for each of my patients on an ACE-inhibitor, find
//! recent literature about their diagnosis that mentions the drug"* —
//! a conjunctive query with two foreign join predicates (diagnosis in
//! title, drug in abstract), which makes the probing methods applicable.
//!
//! ```text
//! cargo run --example hospital
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
use textjoin::text::doc::{Document, SchemaError, TextSchema};
use textjoin::text::index::Collection;
use textjoin::text::server::TextServer;

fn literature() -> Result<TextServer, SchemaError> {
    let mut schema = TextSchema::new();
    let ti = schema.add_field("title", "TI", true)?;
    let ab = schema.add_field("abstract", "AB", false)?;
    let jo = schema.add_field("journal", "JO", true)?;
    let mut coll = Collection::new(schema);
    let mut add = |title: &str, abs: &str, journal: &str| {
        coll.add_document(
            Document::new()
                .with(ti, title)
                .with(ab, abs)
                .with(jo, journal),
        );
    };
    add(
        "hypertension outcomes in elderly cohorts",
        "We study lisinopril and enalapril dosing for chronic hypertension.",
        "NEJM",
    );
    add(
        "diabetes and renal function",
        "Metformin interactions; captopril contraindications in nephropathy.",
        "Lancet",
    );
    add(
        "asthma management guidelines",
        "Albuterol and steroid therapy for pediatric asthma.",
        "JAMA",
    );
    add(
        "hypertension drug trials",
        "A randomized trial of enalapril versus placebo.",
        "NEJM",
    );
    add(
        "migraine prophylaxis",
        "Propranolol efficacy in chronic migraine.",
        "Lancet",
    );
    Ok(TextServer::new(coll))
}

fn patients() -> Catalog {
    let mut catalog = Catalog::new();
    let mut t = Table::new(
        "patient",
        RelSchema::from_columns(vec![
            ("id", ValueType::Int),
            ("diagnosis", ValueType::Str),
            ("drug", ValueType::Str),
            ("ward", ValueType::Str),
        ]),
    );
    t.push(tuple![1i64, "hypertension", "enalapril", "cardio"]);
    t.push(tuple![2i64, "hypertension", "lisinopril", "cardio"]);
    t.push(tuple![3i64, "diabetes", "metformin", "endo"]);
    t.push(tuple![4i64, "asthma", "albuterol", "resp"]);
    t.push(tuple![5i64, "migraine", "sumatriptan", "neuro"]);
    t.push(tuple![6i64, "hypertension", "enalapril", "cardio"]);
    catalog.register(t);
    catalog
}

fn main() {
    let server = literature().expect("three fields fit the short form");
    let catalog = patients();

    // select * from patient, literature
    // where patient.ward = 'cardio'
    //   and patient.diagnosis in literature.title
    //   and patient.drug in literature.abstract
    let q = SingleJoinQuery {
        relation: "patient".into(),
        local_pred: Pred::eq(ColId(3), "cardio"),
        selections: vec![],
        join: vec![
            ("diagnosis".into(), "title".into()),
            ("drug".into(), "abstract".into()),
        ],
        projection: Projection::Full,
    };

    let ts_schema = server.collection().schema();
    let prepared = prepare(&q, &catalog, ts_schema).expect("query prepares");
    let export = server.export_stats();
    let stats = prepared.statistics_from_export(&export, ts_schema);
    let params = textjoin::core::cost::params::CostParams::mercury(server.doc_count() as f64);

    println!(
        "Cardiology patients × medical literature ({} patients after the ward filter, {} documents)\n",
        prepared.filtered.len(),
        server.doc_count()
    );
    println!("Method costs (the diagnosis column repeats across patients, so probing pays):\n");
    let candidates = enumerate_methods(&params, &stats, q.projection, false);
    for cand in &candidates {
        println!("  {:<8} est {:>8.2}s  (probe columns {:?})", cand.label, cand.cost.total(), cand.probe_cols);
    }

    let best = &candidates[0];
    let ctx = ExecContext::new(&server);
    let out = textjoin::core::exec::execute_single(
        &ctx,
        &prepared,
        best,
        textjoin::core::methods::probe::ProbeSchedule::ProbeFirst,
    )
    .expect("method runs");
    println!(
        "\nChosen method {} sent {} text-system invocations and found {} (patient, paper) pairs:\n",
        best.label, out.report.text.invocations, out.table.len()
    );
    println!("{}", out.table);
}

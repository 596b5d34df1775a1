//! Multi-join optimization walkthrough (paper, Section 6): the Q5 query —
//! "1993 documents co-authored by a student and a faculty member from
//! another department" — planned in the three execution spaces and
//! executed against a generated digital-library world.
//!
//! ```text
//! cargo run --example digital_library
//! ```

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::plan_and_execute;
use textjoin::core::optimizer::multi::ExecutionSpace;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

fn main() {
    let world = World::generate(WorldSpec {
        background_docs: 800,
        students: 120,
        ..WorldSpec::default()
    });
    let q5 = paper::q5(&world);
    let params = CostParams::mercury(world.server.doc_count() as f64);

    println!(
        "Q5 over {} students × {} faculty × {} documents\n",
        world.catalog.table("student").unwrap().len(),
        world.catalog.table("faculty").unwrap().len(),
        world.server.doc_count()
    );

    for (label, space) in [
        (
            "traditional left-deep (text joins last)",
            ExecutionSpace::LeftDeep,
        ),
        ("PrL trees (probe nodes allowed)", ExecutionSpace::Prl),
        (
            "PrL + relational residuals (extension)",
            ExecutionSpace::PrlResiduals,
        ),
    ] {
        world.server.reset_usage();
        let (planned, outcome) =
            plan_and_execute(&q5, &world.catalog, &world.server, params, space)
                .expect("Q5 plans and executes");
        println!("── {label} ──");
        println!("plan (est {:.1}s):", planned.est_cost);
        for line in planned.plan.display(&q5).to_string().lines() {
            println!("  {line}");
        }
        println!(
            "measured {:.1}s — {} invocations, {} long docs, {} rows\n",
            outcome.total_cost,
            outcome.text.invocations,
            outcome.text.docs_long,
            outcome.table.len()
        );
    }
    println!(
        "All three spaces return the same rows; the richer spaces may find\n\
         cheaper plans, and are never worse (the left-deep trees remain in\n\
         the search space)."
    );
}

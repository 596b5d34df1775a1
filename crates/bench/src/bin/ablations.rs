//! Ablation studies of the design choices DESIGN.md calls out: TS
//! variants, probe schedules, probe-column search strategies, and the
//! runtime fetch guard.

use textjoin_bench::experiments::{ablations, default_world};
use textjoin_bench::format::table;

fn main() {
    let w = default_world();
    for a in ablations(&w) {
        println!("## {}\n", a.name);
        let rows: Vec<Vec<String>> = a
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    format!("{:.1}", r.secs),
                    r.invocations.to_string(),
                    r.rows.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table(&["variant", "secs", "invocations", "rows"], &rows)
        );
    }
}

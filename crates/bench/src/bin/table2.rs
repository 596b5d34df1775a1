//! Reproduces Table 2: execution times of each join method on Q1–Q4.

use textjoin_bench::experiments::{default_world, table2, METHODS};
use textjoin_bench::format::{cost_cell, table};

fn main() {
    let w = default_world();
    println!(
        "Table 2 — execution times (simulated seconds) on the generated world\n\
         (D = {} documents, seed = {})\n",
        w.server.doc_count(),
        w.spec.seed
    );
    let t = table2(&w);
    let headers = ["Join Method", "Q1", "Q2", "Q3", "Q4"];
    let rows: Vec<Vec<String>> = METHODS
        .iter()
        .zip(&t)
        .map(|((m, _), cells)| {
            let mut row = vec![m.to_string()];
            row.extend(cells.iter().map(|c| cost_cell(c.secs)));
            row
        })
        .collect();
    println!("{}", table(&headers, &rows));
    println!("Paper's Table 2 (wall-clock seconds on OpenODB–Mercury):");
    println!("  TS      145   52  328  43");
    println!("  RTP       8   91    -   -");
    println!("  SJ+RTP   18    9   97  20");
    println!("  P+TS      -    -   81  52");
    println!("  P+RTP     -    -  118  12");
}

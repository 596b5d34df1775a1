//! Section 7 validation: does the cost model predict the measured winner?

use textjoin_bench::experiments::{default_world, validate};
use textjoin_bench::format::{table, usage_line};

fn main() {
    let w = default_world();
    println!("Model-predicted vs measured optimal method, Q1–Q4\n");
    for v in validate(&w) {
        println!("{}: predicted {} | measured {}", v.query, v.predicted, v.measured);
        println!("    text usage: {}", usage_line(&v.usage));
        let rows: Vec<Vec<String>> = v
            .detail
            .iter()
            .map(|(m, pred, meas)| {
                vec![m.clone(), format!("{pred:.1}"), format!("{meas:.1}")]
            })
            .collect();
        println!("{}", table(&["method", "predicted (s)", "measured (s)"], &rows));
    }
}

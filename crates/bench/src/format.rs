//! Plain-text table and series formatting for the experiment binaries.

use textjoin_obs::secs;
use textjoin_text::server::Usage;

/// Renders an aligned ASCII table. `headers.len()` must equal each row's
/// length.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        assert_eq!(r.len(), ncols, "row arity mismatch");
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push_str(&fmt_row(
        widths.iter().map(|_| "-").collect::<Vec<_>>(),
        &widths,
    ));
    for r in rows {
        out.push_str(&fmt_row(r.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Formats an optional cost cell: `-` when the method is inapplicable.
pub fn cost_cell(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "-".to_owned(),
    }
}

/// Renders series data (one x column, one column per named series) as an
/// aligned table — the textual equivalent of a figure.
pub fn series(x_name: &str, xs: &[f64], series: &[(&str, Vec<Option<f64>>)]) -> String {
    let mut headers = vec![x_name];
    headers.extend(series.iter().map(|(n, _)| *n));
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut row = vec![format!("{x:.3}")];
            row.extend(series.iter().map(|(_, ys)| cost_cell(ys[i])));
            row
        })
        .collect();
    table(&headers, &rows)
}

fn cost_rows(
    methods: &[&'static str],
    rates: &[f64],
    cells: &[Vec<Option<(f64, f64)>>],
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut headers: Vec<String> = vec!["Join Method".into()];
    for &r in rates {
        headers.push(format!("p={r:.2}"));
    }
    for &r in &rates[1..] {
        headers.push(format!("Δ%@{r:.2}"));
    }
    let rows: Vec<Vec<String>> = methods
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let mut row = vec![m.to_string()];
            for cell in &cells[mi] {
                row.push(match cell {
                    Some((secs, _)) => format!("{secs:.1}"),
                    None => "-".into(),
                });
            }
            for cell in &cells[mi][1..] {
                row.push(match cell {
                    Some((_, pct)) => format!("+{pct:.1}"),
                    None => "-".into(),
                });
            }
            row
        })
        .collect();
    (headers, rows)
}

fn fault_rows(
    methods: &[&'static str],
    rates: &[f64],
    fault_cells: &[Vec<Option<(u64, u64)>>],
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut headers: Vec<String> = vec!["Join Method".into()];
    for &r in rates {
        headers.push(format!("flt/rty p={r:.2}"));
    }
    let rows: Vec<Vec<String>> = methods
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let mut row = vec![m.to_string()];
            for cell in &fault_cells[mi] {
                row.push(match cell {
                    Some((faults, retries)) => format!("{faults}/{retries}"),
                    None => "-".into(),
                });
            }
            row
        })
        .collect();
    (headers, rows)
}

/// Renders the chaos report both chaos grids share: the method × rate cost
/// table (with overhead percentages) followed by the fault/retry table.
/// The fault counters are the ledgers' own `faults` and `retries`.
pub fn chaos_report(
    methods: &[&'static str],
    rates: &[f64],
    cells: &[Vec<Option<(f64, f64)>>],
    fault_cells: &[Vec<Option<(u64, u64)>>],
) -> String {
    let (headers, rows) = cost_rows(methods, rates, cells);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut out = table(&header_refs, &rows);
    out.push('\n');
    out.push_str("Injected faults / retries absorbed (summed over Q1–Q4):\n\n");
    let (fheaders, frows) = fault_rows(methods, rates, fault_cells);
    let fheader_refs: Vec<&str> = fheaders.iter().map(String::as_str).collect();
    out.push_str(&table(&fheader_refs, &frows));
    out.push('\n');
    out
}

/// One-line usage summary of a ledger — the single place that decides
/// which ledger fields a summary prints, so binaries cannot silently drop
/// the robustness columns (faults, retries, backoff).
pub fn usage_line(u: &Usage) -> String {
    format!(
        "inv {}  post {}  short {}  long {}  faults {}  retries {}  backoff {:.1}s  total {:.1}s",
        u.invocations,
        u.postings_processed,
        u.docs_short,
        u.docs_long,
        u.faults,
        u.retries,
        secs(u.ns_backoff as i64),
        u.total_cost(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["method", "cost"],
            &[
                vec!["TS".into(), "145.0".into()],
                vec!["SJ+RTP".into(), "18.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("TS"));
        assert!(lines[3].contains("SJ+RTP"));
        // Aligned: all lines same length.
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_checks_arity() {
        table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn cost_cells() {
        assert_eq!(cost_cell(Some(12.34)), "12.3");
        assert_eq!(cost_cell(None), "-");
    }

    #[test]
    fn chaos_report_layout() {
        let methods: Vec<&'static str> = vec!["TS", "P+TS"];
        let rates = vec![0.0, 0.1];
        let cells = vec![
            vec![Some((10.0, 0.0)), Some((12.0, 20.0))],
            vec![None, None],
        ];
        let fault_cells = vec![vec![Some((0, 0)), Some((3, 3))], vec![None, None]];
        let r = chaos_report(&methods, &rates, &cells, &fault_cells);
        assert!(r.contains("p=0.10"));
        assert!(r.contains("+20.0"));
        assert!(r.contains("Injected faults / retries absorbed"));
        assert!(r.contains("3/3"));
        // Inapplicable methods render as dashes in both tables.
        assert!(
            r.lines()
                .filter(|l| l.trim_start().starts_with("P+TS"))
                .count()
                == 2
        );
    }

    #[test]
    fn usage_line_shows_robustness_fields() {
        let u = Usage {
            invocations: 7,
            faults: 2,
            retries: 2,
            ns_invocation: 38_250_000_000,
            ns_backoff: 3_000_000_000,
            ..Usage::default()
        };
        let line = usage_line(&u);
        assert_eq!(
            line,
            "inv 7  post 0  short 0  long 0  faults 2  retries 2  backoff 3.0s  total 41.2s"
        );
    }

    #[test]
    fn series_renders() {
        let s = series(
            "s1",
            &[0.0, 0.5],
            &[
                ("TS", vec![Some(1.0), Some(1.0)]),
                ("P+TS", vec![Some(0.5), None]),
            ],
        );
        assert!(s.contains("s1"));
        assert!(s.contains("P+TS"));
        assert!(s.lines().count() == 4);
    }
}

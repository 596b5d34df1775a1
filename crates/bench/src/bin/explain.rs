//! Flight-recorder replay: renders a trace as an indented span tree with
//! per-phase cost rollups, then a deterministic histogram-quantile
//! summary (pow2 bucket midpoints).
//!
//! With a path argument, replays that JSONL trace file. With no path,
//! runs the built-in scenario — P+RTP on a composite-join paper query
//! under seeded transient faults — so CI can diff two invocations.
//! `--windows <secs>` additionally replays the events through the
//! windowed [`Monitor`] and appends its per-window health table (the same
//! rendering the `monitor` binary prints). `--analyze` appends the
//! EXPLAIN ANALYZE estimated-vs-actual plan tree of the built-in Q5
//! scenario (it needs a live planner/executor pair, so it does not
//! combine with a replayed trace file). Flags may appear in any order;
//! unknown flags print the usage line. Everything is seeded — two
//! invocations print byte-identical output. The EXPERIMENTS.md
//! observability appendix is regenerated from this binary.

use textjoin_bench::experiments::{default_world, explain_analyze, explain_run};
use textjoin_obs::{
    parse_jsonl, render, Event, MetricsSnapshot, Monitor, MonitorConfig, MAX_WINDOWS,
};

/// The p50/p90/p99 summary `explain` appends below the span tree. The
/// quantiles come from the metrics registry's pow2 histograms replayed
/// from the events — bucket midpoints, so the numbers are deterministic
/// estimates, not exact order statistics.
fn quantile_summary(events: &[Event]) -> String {
    let snap = MetricsSnapshot::from_events(events);
    let mut out = String::from("\nquantiles (pow2 bucket midpoints):\n");
    let mut any = false;
    for key in ["hist.postings", "hist.docs_short"] {
        if let Some((p50, p90, p99)) = snap.quantiles(key) {
            out.push_str(&format!("  {key:<16} p50={p50} p90={p90} p99={p99}\n"));
            any = true;
        }
    }
    if !any {
        out.push_str("  (no histogram observations in this trace)\n");
    }
    out
}

/// Refuses a `--windows` width the trace's clock makes unrenderable. The
/// monitor closes one dense window per index up to `floor(clock /
/// window_secs)`, empty ones included (they are rows of the rendered
/// table), and leaves out an event past [`MAX_WINDOWS`]; a width that
/// would leave events out is refused up front instead.
fn check_windows(events: &[Event], window_secs: f64) -> Result<(), String> {
    // `f64::max` skips a NaN clock; a negative one lands in window 0.
    let windows = (events.iter().map(|e| e.clock).fold(0.0, f64::max) / window_secs).floor();
    if windows <= MAX_WINDOWS as f64 {
        return Ok(());
    }
    Err(format!(
        "--windows {window_secs:?} would open {windows:?} windows over this trace \
         (at most {MAX_WINDOWS})"
    ))
}

/// The optional `--windows` section: the monitor's per-window health
/// table over the same events the span tree rendered.
fn window_summary(events: &[Event], window_secs: f64) -> String {
    if let Err(msg) = check_windows(events, window_secs) {
        usage(&msg);
    }
    let mon = Monitor::replay(MonitorConfig::new(window_secs), events);
    format!("\n{}", mon.render_table())
}

/// Parsed command line. Flags and the positional trace path may appear in
/// any order.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    path: Option<String>,
    windows: Option<f64>,
    analyze: bool,
}

/// Parses the argument list (without the program name). Returns a message
/// for the usage line on any unknown flag, malformed flag value, or extra
/// positional argument.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--windows" => {
                let secs = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--windows needs a positive number of seconds")?;
                cli.windows = Some(secs);
            }
            "--analyze" => cli.analyze = true,
            s if s.starts_with('-') => return Err(format!("unknown flag {s}")),
            _ if cli.path.is_none() => cli.path = Some(arg),
            _ => return Err(format!("unexpected extra argument {arg}")),
        }
    }
    if cli.analyze && cli.path.is_some() {
        return Err("--analyze runs the built-in scenario and does not take a trace file".into());
    }
    Ok(cli)
}

fn usage(msg: &str) -> ! {
    eprintln!("explain: {msg}");
    eprintln!("usage: explain [trace.jsonl] [--windows <secs>] [--analyze]");
    std::process::exit(2);
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => usage(&msg),
    };

    if let Some(path) = cli.path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("explain: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let events = match parse_jsonl(&text) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("explain: {path}: {e}");
                std::process::exit(1);
            }
        };
        println!("Trace replay — {path}\n");
        print!("{}", render(&events));
        print!("{}", quantile_summary(&events));
        if let Some(secs) = cli.windows {
            print!("{}", window_summary(&events, secs));
        }
        return;
    }

    let w = default_world();
    println!(
        "Trace replay — P+RTP under transient faults (rate 0.20, ≤2 consecutive)\n\
         (D = {} documents, seed = {}; clocks are simulated seconds)\n",
        w.server.doc_count(),
        w.spec.seed
    );
    let events = explain_run(&w);
    print!("{}", render(&events));
    print!("{}", quantile_summary(&events));
    if let Some(secs) = cli.windows {
        print!("{}", window_summary(&events, secs));
    }
    if cli.analyze {
        println!("\nEXPLAIN ANALYZE — chosen Q5 plan (PrL+residuals):");
        print!("{}", explain_analyze(&w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_in_any_order() {
        let a = parse(&["trace.jsonl", "--windows", "10"]).expect("parses");
        let b = parse(&["--windows", "10", "trace.jsonl"]).expect("parses");
        assert_eq!(a, b);
        assert_eq!(a.path.as_deref(), Some("trace.jsonl"));
        assert_eq!(a.windows, Some(10.0));
        let c = parse(&["--analyze", "--windows", "5"]).expect("parses");
        assert!(c.analyze);
        assert_eq!(c.windows, Some(5.0));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        assert!(parse(&["--frobnicate"]).is_err(), "unknown flag");
        assert!(parse(&["--windows"]).is_err(), "missing value");
        assert!(parse(&["--windows", "-3"]).is_err(), "negative width");
        assert!(parse(&["--windows", "abc"]).is_err(), "non-numeric width");
        assert!(parse(&["a.jsonl", "b.jsonl"]).is_err(), "two paths");
        assert!(
            parse(&["a.jsonl", "--analyze"]).is_err(),
            "analyze needs the built-in run"
        );
    }

    #[test]
    fn window_counts_past_the_limit_are_refused_before_the_monitor_runs() {
        let evil = parse_jsonl(concat!(
            r#"{"seq":0,"clock":0,"type":"span_begin","id":1,"parent":null,"label":"x"}"#,
            "\n",
            r#"{"seq":1,"clock":1e15,"type":"span_end","id":1,"label":"x"}"#,
            "\n",
        ))
        .expect("a well-formed trace");
        let msg = check_windows(&evil, 50.0).expect_err("2e13 windows");
        assert!(
            msg.contains("20000000000000.0 windows") && msg.contains("--windows 50.0"),
            "{msg}"
        );
        assert!(check_windows(&evil, 1e10).is_ok(), "100 000 windows render");

        // A clock that is not a position on the timeline opens no window.
        let mut odd = evil.clone();
        odd[0].clock = f64::NAN;
        odd[1].clock = -1e15;
        assert!(check_windows(&odd, 50.0).is_ok());
        odd[1].clock = f64::INFINITY;
        assert!(check_windows(&odd, 50.0).is_err());

        let builtin = explain_run(&default_world());
        assert!(check_windows(&builtin, 50.0).is_ok(), "the CI invocation");
        assert!(check_windows(&builtin, 1e-300).is_err());
    }

    #[test]
    fn empty_args_are_the_builtin_scenario() {
        let cli = parse(&[]).expect("parses");
        assert_eq!(cli, Cli::default());
    }

    use proptest::prelude::*;

    /// Widths `--windows` must refuse: zero, negative, not finite, past
    /// `f64`, or not a number at all.
    const BAD_WIDTHS: &[&str] = &[
        "0", "-0", "0.0", "-1", "-1e308", "NaN", "nan", "inf", "-inf", "infinity", "1e309", "",
        "abc", "5s", "0x10",
    ];

    /// What argument lists are made of: both flags, their near misses,
    /// widths good and bad, paths, and junk.
    const TOKENS: &[&str] = &[
        "--windows",
        "--windows",
        "--analyze",
        "--analyze",
        "--window",
        "--ANALYZE",
        "--windows=5",
        "-w",
        "-",
        "--",
        "50",
        "0.5",
        "1e-300",
        "1e308",
        "+3",
        "0",
        "-1",
        "NaN",
        "inf",
        "1e309",
        "trace.jsonl",
        "a b.jsonl",
        "/tmp/t.jsonl",
        "é",
        "",
    ];

    /// The documented grammar, `[trace.jsonl] [--windows <secs>]
    /// [--analyze]` in any order, with `--analyze` taking no path: what a
    /// whole argument list means, or `None` if it means nothing.
    fn grammar(tokens: &[&str]) -> Option<Cli> {
        let positive = |s: &str| s.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0);
        let mut cli = Cli::default();
        let mut rest = tokens;
        loop {
            rest = match rest {
                [] => break,
                ["--windows", secs, tail @ ..] => {
                    cli.windows = Some(positive(secs)?);
                    tail
                }
                ["--analyze", tail @ ..] => {
                    cli.analyze = true;
                    tail
                }
                [path, tail @ ..] if !path.starts_with('-') && cli.path.is_none() => {
                    cli.path = Some(path.to_string());
                    tail
                }
                _ => return None,
            };
        }
        (!(cli.analyze && cli.path.is_some())).then_some(cli)
    }

    /// The items of a well-formed list, each whole, in a drawn order.
    fn items() -> impl Strategy<Value = Vec<Vec<&'static str>>> {
        const PATHS: &[&str] = &["trace.jsonl", "a b.jsonl", "é", "50"];
        const WIDTHS: &[&str] = &["50", "0.5", "1e-300", "1e308", "+3"];
        (
            (prop::sample::select(PATHS), prop::bool::ANY),
            (prop::sample::select(WIDTHS), prop::bool::ANY),
            prop::bool::ANY,
            prop::collection::vec(0..usize::MAX, 3),
        )
            .prop_map(|((path, with_path), (secs, with_secs), analyze, order)| {
                let mut items: Vec<Vec<&str>> = Vec::new();
                if with_path {
                    items.push(vec![path]);
                }
                if with_secs {
                    items.push(vec!["--windows", secs]);
                }
                if analyze {
                    items.push(vec!["--analyze"]);
                }
                for (i, at) in (1..items.len()).rev().zip(order) {
                    items.swap(i, at % (i + 1));
                }
                items
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Any token list: no panic, and accepted exactly when the grammar
        /// gives it a meaning, with that meaning.
        #[test]
        fn parse_args_is_the_documented_grammar(
            tokens in prop::collection::vec(prop::sample::select(TOKENS), 0..7),
        ) {
            let got = parse(&tokens);
            prop_assert_eq!(got.as_ref().ok(), grammar(&tokens).as_ref(), "{:?} -> {:?}", tokens, got);
            if let Ok(Cli { windows: Some(secs), .. }) = got {
                prop_assert!(secs.is_finite() && secs > 0.0);
            }
        }

        /// Every well-formed list parses to what it says.
        #[test]
        fn well_formed_lists_parse(items in items()) {
            let tokens: Vec<&str> = items.concat();
            let cli = parse(&tokens);
            let analyze = tokens.contains(&"--analyze");
            let path = items.iter().find(|i| i.len() == 1 && i[0] != "--analyze");
            if analyze && path.is_some() {
                prop_assert!(cli.is_err(), "{:?}", tokens);
            } else {
                let cli = cli.expect("a well-formed list parses");
                prop_assert_eq!(cli.analyze, analyze);
                prop_assert_eq!(cli.path.as_deref(), path.map(|p| p[0]));
                let secs = items.iter().find(|i| i.len() == 2).map(|i| i[1].parse::<f64>().unwrap());
                prop_assert_eq!(cli.windows, secs);
            }
        }

        /// A `--windows` that is not a positive finite number is refused,
        /// wherever it sits among otherwise good items.
        #[test]
        fn a_bad_width_is_always_refused(
            items in items(),
            bad in prop::sample::select(BAD_WIDTHS),
            at in 0..usize::MAX,
        ) {
            let mut items = items;
            let at = at % (items.len() + 1);
            items.insert(at, vec!["--windows", bad]);
            let tokens: Vec<&str> = items.concat();
            prop_assert!(parse(&tokens).is_err(), "{:?}", tokens);
        }
    }
}

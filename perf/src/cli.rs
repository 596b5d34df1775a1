//! Command line.
//!
//! ```text
//! textjoin-perf --workload <name> [--seed 42] [--seconds 25] [--trace 0|1]
//!               [--out-dir DIR]                   one workload, one process
//! textjoin-perf --smoke                           3 rounds of everything, small inputs
//! textjoin-perf --merge DIR                       DIR/*.trace{0,1}.json → DIR/BENCH.json
//! textjoin-perf --diff A.json B.json [--check|--repeat]
//!                                                 per-metric ratio, base, over-bound flag; exit 1 if B
//!                                                 is worse than a bound allows (--check) or the two
//!                                                 differ by more either way (--repeat: same code twice)
//! textjoin-perf --spread DIR                      DIR/<seed>/*.trace0.json → spread per metric vs bound
//! textjoin-perf --benchmark-json                  what BENCHMARK.json must contain
//! ```

use std::path::PathBuf;

use crate::harness::{self, Options};
use crate::json;
use crate::metrics::{self, WORKLOADS};
use crate::report;
use crate::workloads::Size;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u32 = 25;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

/// Runs the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    match dispatch(&Args(args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("textjoin-perf: {e}");
            2
        }
    }
}

fn dispatch(args: &Args) -> Result<i32, String> {
    if args.flag("--benchmark-json") {
        print!(
            "{}",
            metrics::benchmark_json(&["bash", "perf/run.sh"], &["perf"], DEFAULT_SECONDS).pretty()
        );
        return Ok(0);
    }
    if args.flag("--diff") {
        let files = args.values("--diff", 2).ok_or("--diff needs two files")?;
        let load = |p: &String| -> Result<json::Json, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        let (a, b) = (load(&files[0])?, load(&files[1])?);
        // Run length is set by the benchmark and is the same on both sides.
        if a.get("run_seconds") != b.get("run_seconds") {
            return Err(format!(
                "{} and {} measured for different lengths (run_seconds)",
                files[0], files[1]
            ));
        }
        let rows = report::diff(&a, &b);
        if rows.is_empty() {
            return Err("the two files share no metric".into());
        }
        let repeat = args.flag("--repeat");
        let (table, bad) = report::render_diff(&rows, repeat);
        print!("{table}");
        return Ok(i32::from(bad && (repeat || args.flag("--check"))));
    }
    if let Some(dir) = args.value("--merge") {
        let dir = PathBuf::from(dir);
        let bench = report::merge(&dir)?;
        let path = dir.join("BENCH.json");
        std::fs::write(&path, bench.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(0);
    }
    if let Some(dir) = args.value("--spread") {
        let (table, bad) = report::spread(&PathBuf::from(dir))?;
        print!("{table}");
        return Ok(i32::from(bad));
    }
    if args.flag("--smoke") {
        return Ok(smoke(args.parsed("--seed")?.unwrap_or(DEFAULT_SEED)));
    }
    let workload = args.value("--workload").ok_or_else(|| {
        format!(
            "--workload <{}> is required",
            WORKLOADS.map(|w| w.0).join("|")
        )
    })?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(f64::from(DEFAULT_SECONDS));
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let opts = Options {
        workload: workload.to_owned(),
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        size: Size::Full,
        out_dir: args.value("--out-dir").map(PathBuf::from),
    };
    if !WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    let result = harness::run(&opts);
    report::print_run(&result);
    Ok(i32::from(!result.correct))
}

/// Every workload, untraced and traced, small inputs, three rounds each:
/// does the harness work end to end? Numbers from it mean nothing.
pub fn smoke(seed: u64) -> i32 {
    let mut bad = 0;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let result = harness::run(&Options {
                workload: name.to_owned(),
                seed,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
                out_dir: None,
            });
            println!(
                "smoke {name:<15} trace={} rounds={} attempted={} failed={} {}",
                u8::from(trace),
                result.n,
                result.attempted,
                result.failed,
                match &result.error {
                    None => "ok".to_owned(),
                    Some(e) => format!("FAILED: {e}"),
                }
            );
            bad += i32::from(!result.correct);
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Args {
        Args(xs.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn reads_the_driver_arguments() {
        let a = args(&[
            "--workload",
            "text_search",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]);
        assert_eq!(a.value("--workload"), Some("text_search"));
        assert_eq!(a.parsed::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(a.parsed::<f64>("--seconds").unwrap(), Some(25.0));
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(a.parsed::<u64>("--workload").is_err());
        assert!(args(&["--seed"]).parsed::<u64>("--seed").is_err());
    }

    #[test]
    fn bad_invocations_exit_with_a_usage_error() {
        assert_eq!(main(vec![]), 2);
        assert_eq!(main(vec!["--workload".into(), "nope".into()]), 2);
        assert_eq!(
            main(vec![
                "--workload".into(),
                "text_search".into(),
                "--trace".into(),
                "2".into()
            ]),
            2
        );
        assert_eq!(main(vec!["--diff".into(), "only-one.json".into()]), 2);
    }
}

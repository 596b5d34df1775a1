//! One workload run: one process, one client, one thread, a closed loop.
//!
//! ```text
//! set-up × 5 (timed; the last one is kept)          ┐
//! verification pass (untimed; every op vs an oracle) │→ the reference round
//! warm-up rounds (discarded)                         │
//! timed rounds for --seconds                         │→ end-to-end metrics
//! set-up × 5 again (untraced run only)               ┘→ setup_s, the median of both batches
//! ```
//!
//! Half of the set-ups run after the timed rounds because a batch is over
//! in a second or two: a noisy spell of the machine at one end of the run
//! then reaches at most half of them and the median holds.
//!
//! Each round is compared with the verified reference round — operation
//! counts, result checksum, and a bit-identical simulated cost — and a
//! round that differs counts every one of its operations as failed.
//!
//! The traced run (`--trace 1`) splits the same `--seconds` three ways:
//! a quarter on untraced rounds (the base of `bench.trace_overhead_ratio`),
//! half on the same rounds under spans (at most [`MAX_TRACED_ROUNDS`]),
//! and the rest on the workload's layer probes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Values;
use crate::span::{self, Tracer, ROUND};
use crate::stats;
use crate::workloads::{self, RoundOutcome, Size, Workload};

/// Full set-ups per batch, at least; `setup_s` is the median over the
/// run's batches.
pub const SETUP_REPEATS: usize = 5;

/// Short set-ups are repeated beyond [`SETUP_REPEATS`] until the batch has
/// taken this long (their median is otherwise too noisy to bound), but
/// never more than [`MAX_SETUP_REPEATS`] times.
pub const SETUP_MIN_TOTAL_S: f64 = 1.0;

/// See [`SETUP_MIN_TOTAL_S`].
pub const MAX_SETUP_REPEATS: usize = 25;

/// Discarded rounds before timing starts.
pub const WARMUP_ROUNDS: usize = 10;

/// Rounds recorded under spans, at most.
pub const MAX_TRACED_ROUNDS: usize = 100;

/// Rounds per phase of a [`Size::Smoke`] run, whatever `seconds` says.
pub const SMOKE_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Wall seconds to measure for ([`Size::Smoke`] runs
    /// [`SMOKE_ROUNDS`] rounds instead).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where the result file and the trace go; nothing is written if
    /// `None`.
    pub out_dir: Option<PathBuf>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options it ran with.
    pub opts: Options,
    /// Verification passed and no operation failed.
    pub correct: bool,
    /// Operations attempted: every round the run made (warm-up, timed,
    /// and a traced run's untraced base), or the verification round's if
    /// the gate stopped the run.
    pub attempted: u64,
    /// Operations of those that failed; all of them if the gate stopped
    /// the run.
    pub failed: u64,
    /// Timed rounds (traced rounds, for a traced run).
    pub n: usize,
    /// Set-ups timed.
    pub setups: usize,
    /// The metrics: end-to-end for an untraced run, per-layer for a
    /// traced one.
    pub values: Values,
    /// Wall time of every timed round, ms, in run order.
    pub round_ms: Vec<f64>,
    /// Simulated seconds charged per round (bit-identical every round).
    pub sim_cost_s: f64,
    /// Why the run is not correct, if it is not.
    pub error: Option<String>,
}

impl RunResult {
    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The run stopped before its first round: everything it attempted
    /// (`attempted`, at least one operation) counts as failed.
    fn stopped(mut self, attempted: u64, error: String) -> Self {
        self.attempted = attempted.max(1);
        self.failed = self.attempted;
        self.error = Some(error);
        self
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    fn metrics_json(&self) -> Json {
        if self.opts.trace {
            self.values.per_layer_json()
        } else {
            self.values.end_to_end_json()
        }
    }

    /// The richer record `--merge` folds into `BENCH.json`.
    pub fn record_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.opts.workload)),
            ("seed", Json::Num(self.opts.seed as f64)),
            ("trace", Json::Bool(self.opts.trace)),
            ("seconds", Json::Num(self.opts.seconds)),
            ("n", Json::Num(self.n as f64)),
            ("setups", Json::Num(self.setups as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("sim_cost_s", Json::Num(self.sim_cost_s)),
            ("failed_share", Json::Num(self.failed_share())),
            ("metrics", self.metrics_json()),
            ("advisory", self.values.advisory_json()),
            (
                "round_ms",
                Json::Arr(self.round_ms.iter().map(|&ms| Json::Num(ms)).collect()),
            ),
        ])
    }
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Timed rounds and their tally.
struct Rounds {
    ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Runs rounds until `stop` says so, comparing each with `reference`.
fn run_rounds(
    w: &mut dyn Workload,
    t: &Tracer,
    reference: &RoundOutcome,
    mut stop: impl FnMut(usize, Duration) -> bool,
) -> Rounds {
    let mut r = Rounds {
        ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let began = Instant::now();
    while !stop(r.ms.len(), began.elapsed()) {
        w.prepare();
        t.set_round(r.ms.len() as i32);
        let start = Instant::now();
        let out = t.time(ROUND, || w.round(t));
        r.ms.push(start.elapsed().as_secs_f64() * 1e3);
        r.attempted += out.attempted;
        r.failed += if out.repeats(reference) {
            out.failed
        } else {
            out.attempted
        };
    }
    t.set_round(span::OUTSIDE_ROUNDS);
    r
}

/// A stop rule: `seconds` of wall time with at least three rounds and at
/// most `cap`; a smoke run stops after [`SMOKE_ROUNDS`].
fn stop_rule(size: Size, seconds: f64, cap: usize) -> impl FnMut(usize, Duration) -> bool {
    move |done, elapsed| match size {
        Size::Smoke => done >= SMOKE_ROUNDS.min(cap),
        Size::Full => done >= cap || (done >= 3 && elapsed.as_secs_f64() >= seconds),
    }
}

/// One batch of full set-ups, each timed into `times` and dropped before
/// the next is built, so peak memory is that of one. Returns the last.
fn setup_batch(opts: &Options, t: &Tracer, times: &mut Vec<f64>) -> Option<Box<dyn Workload>> {
    let mut workload = None;
    let (mut n, mut total) = (0usize, 0.0f64);
    loop {
        let enough = match opts.size {
            Size::Smoke => n >= 1,
            Size::Full => {
                n >= MAX_SETUP_REPEATS || (n >= SETUP_REPEATS && total >= SETUP_MIN_TOTAL_S)
            }
        };
        if enough {
            return workload;
        }
        drop(workload.take());
        let start = Instant::now();
        workload = workloads::setup(&opts.workload, opts.seed, opts.size, t);
        let s = start.elapsed().as_secs_f64();
        times.push(s);
        n += 1;
        total += s;
    }
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options) -> RunResult {
    let tracer = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let smoke = opts.size == Size::Smoke;
    let mut result = RunResult {
        opts: opts.clone(),
        correct: false,
        attempted: 0,
        failed: 0,
        n: 0,
        setups: 0,
        values: Values::new(),
        round_ms: Vec::new(),
        sim_cost_s: 0.0,
        error: None,
    };

    let mut setup_s: Vec<f64> = Vec::new();
    let Some(mut w) = setup_batch(opts, &tracer, &mut setup_s) else {
        return result.stopped(0, format!("unknown workload {:?}", opts.workload));
    };
    result.setups = setup_s.len();

    // The correctness gate runs in every invocation.
    let reference = match w.verify() {
        Ok(r) if r.failed == 0 && r.attempted > 0 => r,
        Ok(r) => {
            let error = format!(
                "verification round failed {} of {} operations",
                r.failed, r.attempted
            );
            return result.stopped(r.attempted, error);
        }
        Err(e) => return result.stopped(0, e),
    };
    result.sim_cost_s = reference.sim_cost;

    let warmup = if smoke { 1 } else { WARMUP_ROUNDS };
    let warm = run_rounds(w.as_mut(), &off, &reference, |done, _| done >= warmup);

    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let (timed, base_p50_ms) = if opts.trace {
        let base = run_rounds(
            w.as_mut(),
            &off,
            &reference,
            stop_rule(opts.size, opts.seconds / 4.0, usize::MAX),
        );
        attempted += base.attempted;
        failed += base.failed;
        let traced = run_rounds(
            w.as_mut(),
            &tracer,
            &reference,
            stop_rule(opts.size, opts.seconds / 2.0, MAX_TRACED_ROUNDS),
        );
        (traced, stats::median(&base.ms))
    } else {
        (
            run_rounds(
                w.as_mut(),
                &off,
                &reference,
                stop_rule(opts.size, opts.seconds, usize::MAX),
            ),
            0.0,
        )
    };
    result.n = timed.ms.len();
    result.round_ms = timed.ms.clone();
    result.attempted = attempted + timed.attempted;
    result.failed = failed + timed.failed;

    let failed_share = result.failed_share();
    let v = &mut result.values;
    if opts.trace {
        let spans = tracer.spans();
        let budget = Duration::from_secs_f64(if smoke { 0.05 } else { opts.seconds / 4.0 });
        w.layer_metrics(&tracer, &spans, budget, v);
        let b = span::breakdown(&spans);
        for (metric, layer) in [
            ("share.text", "text"),
            ("share.rel", "rel"),
            ("share.core", "core"),
            ("share.obs", "obs"),
            ("share.bench", "bench"),
        ] {
            v.set(metric, b.share(layer));
        }
        v.set("bench.attributed_share", b.attributed_share());
        v.set(
            "workload.generate_ms",
            span::p50_ns(&spans, "workload.generate") / 1e6,
        );
        if base_p50_ms > 0.0 {
            v.set(
                "bench.trace_overhead_ratio",
                stats::median(&timed.ms) / base_p50_ms,
            );
        }
        v.set("bench.timer_ns", timer_ns());
        v.set("sim_cost_s", reference.sim_cost);
        v.set("failed_share", failed_share);
        if let Some(dir) = &opts.out_dir {
            let all = tracer.spans();
            write_file(
                dir,
                &format!("{}.trace.json", opts.workload),
                &span::to_json(&opts.workload, &all),
            );
        }
    } else {
        // The second batch of set-ups (module docs); the workload is
        // dropped first so peak memory stays that of one.
        drop(w);
        setup_batch(opts, &tracer, &mut setup_s);
        result.setups = setup_s.len();
        let mut sorted = timed.ms.clone();
        stats::sort(&mut sorted);
        let total_s: f64 = timed.ms.iter().sum::<f64>() / 1e3;
        v.set("setup_s", stats::median(&setup_s));
        v.set("round_p50_ms", stats::median(&sorted));
        v.set("round_p95_ms", stats::percentile(&sorted, 95.0));
        v.set(
            "ops_per_s",
            (timed.attempted - timed.failed.min(timed.attempted)) as f64 / total_s,
        );
        v.set("peak_rss_mb", peak_rss_mb());
    }
    result.correct = result.failed == 0;
    if !result.correct {
        result.error = Some(format!(
            "{} of {} operations failed or did not repeat the verified round",
            result.failed, result.attempted
        ));
    }
    if let Some(dir) = &opts.out_dir {
        let name = format!("{}.trace{}.json", opts.workload, u8::from(opts.trace));
        write_file(dir, &name, &result.record_json().pretty());
    }
    result
}

/// What one empty span costs, ns.
fn timer_ns() -> f64 {
    const CALLS: usize = 100_000;
    let t = Tracer::on();
    let start = Instant::now();
    for _ in 0..CALLS {
        t.time("bench.timer", || std::hint::black_box(()));
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let write =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = write {
        // Results are on stdout; a missing file is worth a warning only.
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

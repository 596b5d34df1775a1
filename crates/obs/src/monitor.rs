//! Continuous telemetry: a streaming consumer of the flight-recorder
//! event stream that buckets events into fixed **simulated-clock**
//! windows and runs edge-triggered health detectors over the closed
//! windows.
//!
//! The [`Monitor`] is a [`Sink`]: attach it live behind a
//! [`FanoutSink`](crate::FanoutSink) tee next to whatever trace sink a
//! run already uses, or feed it a parsed JSONL trace offline via
//! [`Monitor::replay`] — both paths drive the same `record` code, so a
//! replayed trace produces byte-identical windows and alerts to the live
//! run that recorded it.
//!
//! Like every sink, the monitor is strictly passive: it observes charges
//! the ledgers already booked, books none itself, and never feeds
//! anything back into the recorder. Its detector verdicts surface as a
//! *separate* event stream ([`Monitor::alerts`]) with its own sequence
//! numbers, stamped at window boundaries of the simulated clock — so
//! attaching a monitor cannot change a single byte of the recorded trace
//! or a single field of any `Usage` ledger (`tests/audit.rs` pins this).
//!
//! Four detectors run when a window closes, all charge-free and
//! edge-triggered (one event on enter, one on clear — steady state is
//! silent):
//!
//! - **Load skew** ([`EventKind::SkewAlert`]): a shard whose share of the
//!   windowed invoice crosses the hot threshold enters the hot state and
//!   stays there until its share falls below the (lower) clear threshold
//!   — classic hysteresis so a shard oscillating around the boundary
//!   does not flap. On entry the detector derives advisory
//!   [`EventKind::RebalanceAdvice`] from the *observed* docid traffic of
//!   the window: the hottest contiguous docid range covering about half
//!   the hot shard's observed hits, advised toward the shard with the
//!   lowest invoice share. Executing the advice is the caller's decision
//!   (`textjoin-text` turns it into a `MigrationPlan`).
//! - **SLO burn rate** ([`EventKind::SloAlert`]): deadline misses,
//!   circuit-breaker opens, and hedged reads are SLO-threatening events
//!   charged against a per-window budget. The alert fires only when both
//!   a fast (short) and a slow (long) trailing window burn above budget —
//!   the standard dual-window construction that ignores short blips while
//!   still catching slow sustained burns — and clears when either window
//!   recovers.
//! - **Cost drift** ([`EventKind::DriftAlert`]): every few windows the
//!   watchdog re-runs the least-squares fit of
//!   [`calibrate_trace`](crate::calibrate_trace) over the regression rows
//!   of a trailing window (one per `call` and `rebate`, buffered only
//!   while a baseline arms the watchdog) and compares each determined
//!   constant against the configured baseline; a component whose fit
//!   moves beyond the relative tolerance is flagged until it returns.
//! - **Misestimation** ([`EventKind::EstimateDrift`]): plan-quality
//!   samples ([`EventKind::EstimateSample`], emitted by EXPLAIN ANALYZE
//!   runs) are collected into a trailing window; the detector fires when
//!   the trailing p90 of the worse component Q-error or the mean regret
//!   share crosses its threshold, and names that component so the operator
//!   knows which knob to turn: a selectivity-dominated miss means the
//!   exported statistics are stale (re-run `export_stats`), a
//!   constants-dominated miss means the configured cost constants no
//!   longer match the server (re-run calibration).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use crate::calibrate::{fit, Row};
use crate::event::{secs, Charge, Event, EventKind};
use crate::sink::Sink;

/// The largest window index a monitor ingests an event into. It closes
/// every window before that one, empty ones included, so this bounds the
/// table (and the time and memory) one event can ask for.
pub const MAX_WINDOWS: u64 = 1_000_000;

/// Skew detector: windows with fewer net invocations than this are too
/// quiet to judge and leave the hot states untouched.
const SKEW_MIN_INVOCATIONS: i64 = 4;
/// Smoothing factor of the per-call latency EWMA (weight of the newest
/// observation).
const EWMA_ALPHA: f64 = 0.25;
/// Drift watchdog: relative tolerance before a component is flagged.
const DRIFT_TOLERANCE: f64 = 0.25;
/// Misestimation detector: fires when the trailing mean regret share
/// (regret / chosen cost) reaches this value.
const EST_REGRET_ALERT: f64 = 0.25;
/// Misestimation detector: trailing windows with fewer plan-quality
/// samples than this are too quiet to judge.
const EST_MIN_SAMPLES: usize = 3;
/// Misestimation detector: trailing sample buffer, in windows.
const EST_TRAILING_WINDOWS: usize = 8;

/// Tuning for the windowed monitor. All thresholds are deterministic
/// constants; nothing here reads a clock or a RNG.
#[derive(Clone)]
pub struct MonitorConfig {
    /// Window width in simulated seconds. Events are bucketed by
    /// `floor(clock / window_secs)`.
    pub window_secs: f64,
    /// Skew detector: a shard enters the hot state when its share of the
    /// windowed invoice reaches this many parts-per-million.
    pub skew_hot_ppm: u64,
    /// Skew detector: a hot shard clears when its share falls to or below
    /// this (must be below `skew_hot_ppm` for hysteresis to bite).
    pub skew_clear_ppm: u64,
    /// SLO monitor: trailing length of the fast window, in windows.
    pub slo_fast_windows: usize,
    /// SLO monitor: trailing length of the slow window, in windows.
    pub slo_slow_windows: usize,
    /// SLO monitor: budgeted SLO-threatening events per window. A burn
    /// rate of 1.0 consumes exactly this budget.
    pub slo_budget_per_window: f64,
    /// Drift watchdog: re-fit every this many windows.
    pub drift_every_windows: u64,
    /// Drift watchdog: trailing calibration buffer, in windows.
    pub drift_trailing_windows: usize,
    /// Drift watchdog baseline `(c_i, c_p, c_s, c_l)`; `None` disables
    /// the watchdog (nothing to compare against).
    pub baseline: Option<(f64, f64, f64, f64)>,
    /// Misestimation detector: fires when the trailing p90 of the worse
    /// component Q-error (selectivity vs constants) reaches this value.
    pub est_p90_alert: f64,
    /// Misestimation detector: clears when the trailing p90 falls to or
    /// below this (must be below `est_p90_alert` for hysteresis).
    pub est_p90_clear: f64,
}

impl MonitorConfig {
    /// A config with the default detector tuning over `window_secs`-wide
    /// windows: skew hot at 45% / clear at 35% of the windowed invoice
    /// with at least 4 invocations, SLO burn over 3-fast/12-slow windows
    /// at 1 bad event per window, drift re-fit every 4 windows over an
    /// 8-window trail at 25% relative tolerance, and misestimation at a
    /// trailing p90 Q-error of 4 (clear at 2) or 25% mean regret share
    /// over an 8-window trail with at least 3 samples.
    pub fn new(window_secs: f64) -> Self {
        assert!(window_secs > 0.0, "window width must be positive");
        Self {
            window_secs,
            skew_hot_ppm: 450_000,
            skew_clear_ppm: 350_000,
            slo_fast_windows: 3,
            slo_slow_windows: 12,
            slo_budget_per_window: 1.0,
            drift_every_windows: 4,
            drift_trailing_windows: 8,
            baseline: None,
            est_p90_alert: 4.0,
            est_p90_clear: 2.0,
        }
    }

    /// Sets the skew thresholds (enter at `hot_ppm`, clear at
    /// `clear_ppm`).
    pub fn with_skew(mut self, hot_ppm: u64, clear_ppm: u64) -> Self {
        assert!(clear_ppm < hot_ppm, "hysteresis needs clear < hot");
        self.skew_hot_ppm = hot_ppm;
        self.skew_clear_ppm = clear_ppm;
        self
    }

    /// Sets the SLO dual-window lengths and per-window budget.
    pub fn with_slo(mut self, fast: usize, slow: usize, budget: f64) -> Self {
        assert!(fast >= 1 && slow >= fast, "need 1 <= fast <= slow");
        assert!(budget > 0.0, "budget must be positive");
        self.slo_fast_windows = fast;
        self.slo_slow_windows = slow;
        self.slo_budget_per_window = budget;
        self
    }

    /// Arms the drift watchdog against the given baseline constants.
    pub fn with_baseline(mut self, c_i: f64, c_p: f64, c_s: f64, c_l: f64) -> Self {
        self.baseline = Some((c_i, c_p, c_s, c_l));
        self
    }

    /// Sets the drift cadence and trailing depth.
    pub fn with_drift(mut self, every: u64, trailing: usize) -> Self {
        assert!(every > 0 && trailing > 0, "cadence and trail must be >= 1");
        self.drift_every_windows = every;
        self.drift_trailing_windows = trailing;
        self
    }

    /// Sets the misestimation thresholds: alert at trailing p90 Q-error
    /// `p90_alert`, clear at `p90_clear`.
    pub fn with_estimates(mut self, p90_alert: f64, p90_clear: f64) -> Self {
        assert!(p90_clear < p90_alert, "hysteresis needs clear < alert");
        assert!(p90_clear >= 1.0, "q-error is never below 1");
        self.est_p90_alert = p90_alert;
        self.est_p90_clear = p90_clear;
        self
    }
}

/// One shard's slice of a closed window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardWindow {
    /// Net invoice of the window, by charge component (rebates subtract).
    pub invoice: Charge,
    /// Observed docid traffic: docid → hits this window.
    pub traffic: BTreeMap<u64, u64>,
}

/// Everything the monitor retained about one closed window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// 0-based window index: covers simulated seconds
    /// `[index × w, (index+1) × w)`.
    pub index: u64,
    /// Total server calls in the window.
    pub calls: u64,
    /// Net invoice of the window across all shards, by charge component.
    pub invoice: Charge,
    /// Per-shard series (only shards that saw traffic appear).
    pub per_shard: BTreeMap<usize, ShardWindow>,
    /// Deadline misses observed.
    pub deadline_misses: u64,
    /// Circuit-breaker opens observed.
    pub circuit_opens: u64,
    /// Hedged reads dispatched.
    pub hedges: u64,
    /// Per-call simulated-latency EWMA as of the window close.
    pub latency_ewma: f64,
}

impl WindowStats {
    /// SLO-threatening events this window: deadline misses, breaker
    /// opens, and hedges.
    pub(crate) fn bad_events(&self) -> u64 {
        self.deadline_misses + self.circuit_opens + self.hedges
    }

    /// A shard's share of the windowed invoice, in parts-per-million.
    pub(crate) fn share_ppm(&self, shard: usize) -> u64 {
        let total: f64 = self
            .per_shard
            .values()
            .map(|s| secs(s.invoice.ticks()))
            .sum();
        if total <= 0.0 {
            return 0;
        }
        let share = self
            .per_shard
            .get(&shard)
            .map(|s| secs(s.invoice.ticks()))
            .unwrap_or(0.0);
        ((share / total) * 1_000_000.0).round() as u64
    }
}

/// Advisory migration derived from observed traffic: move the half-open
/// docid range `[lo, hi)` from `src` to `dst`. Advice only — the monitor
/// never executes anything; `textjoin-text` turns this into a
/// `MigrationPlan` for the migration engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    /// Window the advice was derived from.
    pub window: u64,
    /// Hot source shard.
    pub src: usize,
    /// Advised destination shard (lowest invoice share in the window).
    pub dst: usize,
    /// Half-open docid range start.
    pub lo: u64,
    /// Half-open docid range end.
    pub hi: u64,
    /// Observed traffic hits inside `[lo, hi)` in the window.
    pub hits: u64,
}

/// One plan-quality observation, as carried by an `EstimateSample`. The
/// detector judges the component Q-errors (the blended plan `cost_q` can
/// hide a stale estimate behind a well-priced dominant term), so only
/// the components and the regret share are retained.
#[derive(Clone, Copy)]
struct EstSample {
    selectivity_q: f64,
    constants_q: f64,
    regret_share: f64,
}

/// Accumulator for the window currently being filled.
#[derive(Default)]
struct WindowAcc {
    calls: u64,
    invoice: Charge,
    per_shard: BTreeMap<usize, ShardWindow>,
    deadline_misses: u64,
    circuit_opens: u64,
    hedges: u64,
    /// Regression rows of the window's calls and rebates, buffered for
    /// the drift trail while a baseline arms the watchdog.
    rows: Vec<Row>,
    /// Plan-quality samples of the window, buffered for the
    /// misestimation trail.
    est_samples: Vec<EstSample>,
}

#[derive(Default)]
struct MonState {
    /// Index of the window currently accumulating.
    current: u64,
    /// Events not ingested: their window lay past [`MAX_WINDOWS`].
    skipped: u64,
    acc: WindowAcc,
    windows: Vec<WindowStats>,
    /// Skew hot-state per shard (absent == cold).
    hot_shards: BTreeMap<usize, bool>,
    /// Per-window bad-event counts, newest last, capped at the slow
    /// window length.
    bad_history: VecDeque<u64>,
    slo_firing: bool,
    /// Per-window regression rows, newest last, capped at the drift trail
    /// length.
    trailing: VecDeque<Vec<Row>>,
    drift_flags: BTreeMap<&'static str, bool>,
    /// Per-window plan-quality samples, newest last, capped at the
    /// misestimation trail length.
    est_trailing: VecDeque<Vec<EstSample>>,
    est_firing: bool,
    alerts: Vec<Event>,
    alert_seq: u64,
    advice: Vec<Advice>,
    ewma: f64,
    ewma_primed: bool,
    started: bool,
    finished: bool,
}

/// The windowed health monitor. See the module docs for the design.
pub struct Monitor {
    cfg: MonitorConfig,
    state: RefCell<MonState>,
}

impl Monitor {
    /// A monitor with the given tuning, ready to attach as a [`Sink`].
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            cfg,
            state: RefCell::new(MonState::default()),
        }
    }

    /// Offline replay: feeds a recorded (or JSONL-parsed) event stream
    /// through the same code path a live tee uses and closes the final
    /// window. Deterministic: replaying the trace of a monitored run
    /// reproduces that run's windows and alerts exactly.
    pub fn replay(cfg: MonitorConfig, events: &[Event]) -> Self {
        let mon = Self::new(cfg);
        for ev in events {
            mon.record(ev);
        }
        mon.finish();
        mon
    }

    /// Closes the window currently accumulating and runs the detectors
    /// over it. Call once after the run (or replay) completes; windows
    /// before the last close themselves as the clock crosses their
    /// boundary.
    pub fn finish(&self) {
        let mut st = self.state.borrow_mut();
        if st.started && !st.finished {
            self.close_window(&mut st);
            st.finished = true;
        }
    }

    /// The closed windows, oldest first.
    pub fn windows(&self) -> Vec<WindowStats> {
        self.state.borrow().windows.clone()
    }

    /// The detector alert stream: `SkewAlert`, `SloAlert`, `DriftAlert`,
    /// `EstimateDrift`, and `RebalanceAdvice` events with their own sequence numbers,
    /// stamped at the simulated-clock window boundary that closed them.
    /// Disjoint from the recorded trace by construction.
    pub fn alerts(&self) -> Vec<Event> {
        self.state.borrow().alerts.clone()
    }

    /// Advisory migrations derived so far, oldest first.
    pub fn advice(&self) -> Vec<Advice> {
        self.state.borrow().advice.clone()
    }

    /// Renders the deterministic per-window health table plus the alert
    /// log. Shared by the `monitor` bench binary and `explain --windows`.
    pub fn render_table(&self) -> String {
        let st = self.state.borrow();
        render_windows(self.cfg.window_secs, &st.windows, &st.alerts)
    }

    fn emit_alert(&self, st: &mut MonState, window: u64, kind: EventKind) {
        let seq = st.alert_seq;
        st.alert_seq += 1;
        st.alerts.push(Event {
            seq,
            clock: (window + 1) as f64 * self.cfg.window_secs,
            kind,
        });
    }

    /// Events left out because their window index lay past
    /// [`MAX_WINDOWS`].
    pub fn skipped(&self) -> u64 {
        self.state.borrow().skipped
    }

    /// Buckets one event into the current window, closing windows as the
    /// simulated clock crosses their boundaries. An event whose window
    /// index lies past [`MAX_WINDOWS`] is counted and left out: every
    /// window up to it would be closed (they are rows of the table), so a
    /// clock of `1e300` would otherwise never finish.
    fn ingest(&self, st: &mut MonState, ev: &Event) {
        // A NaN or negative clock lands in window 0, as the cast has it.
        let index = (ev.clock / self.cfg.window_secs).floor();
        if index > MAX_WINDOWS as f64 {
            st.skipped += 1;
            return;
        }
        st.started = true;
        st.finished = false;
        let w = index as u64;
        while st.current < w {
            self.close_window(st);
        }
        let acc = &mut st.acc;
        match &ev.kind {
            EventKind::Call { shard, charge, .. }
            | EventKind::Rebate { shard, charge }
            | EventKind::Backoff { shard, charge, .. } => {
                acc.invoice.accumulate(charge);
                if let Some(s) = shard {
                    let sw = acc.per_shard.entry(*s).or_default();
                    sw.invoice.accumulate(charge);
                }
                if self.cfg.baseline.is_some() {
                    acc.rows.extend(Row::of(&ev.kind));
                }
                if let EventKind::Call { .. } = ev.kind {
                    acc.calls += 1;
                    let sample = secs(charge.ticks());
                    st.ewma = if st.ewma_primed {
                        EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * st.ewma
                    } else {
                        st.ewma_primed = true;
                        sample
                    };
                }
            }
            // A failover's shard is a column of the window's shares.
            EventKind::Failover { shard, .. } => {
                acc.per_shard.entry(*shard).or_default();
            }
            EventKind::Hedge { .. } => acc.hedges += 1,
            EventKind::EstimateSample {
                selectivity_q,
                constants_q,
                regret_share,
                ..
            } => acc.est_samples.push(EstSample {
                selectivity_q: *selectivity_q,
                constants_q: *constants_q,
                regret_share: *regret_share,
            }),
            EventKind::DeadlineMiss { .. } => acc.deadline_misses += 1,
            EventKind::CircuitOpen { .. } => acc.circuit_opens += 1,
            // Untagged traffic (a lone server's) belongs to no shard.
            EventKind::DocTraffic {
                shard: Some(s),
                docs,
            } => {
                for doc in docs {
                    *acc.per_shard
                        .entry(*s)
                        .or_default()
                        .traffic
                        .entry(*doc)
                        .or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    /// Closes window `st.current`: freezes its stats, runs the three
    /// detectors, and advances to the next window.
    fn close_window(&self, st: &mut MonState) {
        let acc = std::mem::take(&mut st.acc);
        let stats = WindowStats {
            index: st.current,
            calls: acc.calls,
            invoice: acc.invoice,
            per_shard: acc.per_shard,
            deadline_misses: acc.deadline_misses,
            circuit_opens: acc.circuit_opens,
            hedges: acc.hedges,
            latency_ewma: st.ewma,
        };
        st.trailing.push_back(acc.rows);
        while st.trailing.len() > self.cfg.drift_trailing_windows {
            st.trailing.pop_front();
        }
        st.est_trailing.push_back(acc.est_samples);
        while st.est_trailing.len() > EST_TRAILING_WINDOWS {
            st.est_trailing.pop_front();
        }
        self.detect_skew(st, &stats);
        self.detect_slo(st, &stats);
        self.detect_drift(st, stats.index);
        self.detect_estimates(st, stats.index);
        st.windows.push(stats);
        st.current += 1;
    }

    /// Load-skew detector with hysteresis; derives rebalance advice on
    /// each hot entry.
    fn detect_skew(&self, st: &mut MonState, w: &WindowStats) {
        if w.invoice.invocations < SKEW_MIN_INVOCATIONS {
            return; // too quiet to judge
        }
        let total: f64 = w.per_shard.values().map(|s| secs(s.invoice.ticks())).sum();
        if total <= 0.0 {
            return;
        }
        // Union of the shards seen this window and the shards currently
        // hot (a hot shard that went silent must be able to clear).
        let shards: Vec<usize> = w
            .per_shard
            .keys()
            .copied()
            .chain(st.hot_shards.keys().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for shard in shards {
            let ppm = w.share_ppm(shard);
            let was_hot = st.hot_shards.get(&shard).copied().unwrap_or(false);
            if !was_hot && ppm >= self.cfg.skew_hot_ppm {
                st.hot_shards.insert(shard, true);
                self.emit_alert(
                    st,
                    w.index,
                    EventKind::SkewAlert {
                        window: w.index,
                        shard,
                        share_ppm: ppm,
                        hot: true,
                    },
                );
                self.advise(st, w, shard);
            } else if was_hot && ppm <= self.cfg.skew_clear_ppm {
                st.hot_shards.insert(shard, false);
                self.emit_alert(
                    st,
                    w.index,
                    EventKind::SkewAlert {
                        window: w.index,
                        shard,
                        share_ppm: ppm,
                        hot: false,
                    },
                );
            }
        }
    }

    /// Derives a traffic-based advisory migration for a newly hot shard:
    /// the hottest docid range covering about half the shard's observed
    /// hits, advised toward the coldest shard of the window.
    fn advise(&self, st: &mut MonState, w: &WindowStats, src: usize) {
        let Some(sw) = w.per_shard.get(&src).filter(|sw| !sw.traffic.is_empty()) else {
            return; // no observed traffic to derive a range from
        };
        // Rank docids by observed hits (hits descending, docid ascending
        // for determinism) and take the hottest until they cover half the
        // shard's hits.
        let total_hits: u64 = sw.traffic.values().sum();
        let mut ranked: Vec<(u64, u64)> = sw.traffic.iter().map(|(&d, &h)| (d, h)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut covered = 0u64;
        let mut picked: Vec<u64> = Vec::new();
        for (doc, hits) in &ranked {
            picked.push(*doc);
            covered += hits;
            if covered * 2 >= total_hits {
                break;
            }
        }
        let (Some(&lo), Some(&max)) = (picked.iter().min(), picked.iter().max()) else {
            return;
        };
        let hi = max + 1;
        // All observed hits that actually fall inside the advised range
        // (it is contiguous, so it may cover more than the picked set).
        let hits: u64 = sw.traffic.range(lo..hi).map(|(_, &h)| h).sum();
        // Destination: the shard with the lowest invoice share this
        // window, excluding the source (BTreeMap order breaks ties by
        // the lowest shard index).
        let dst = w
            .per_shard
            .iter()
            .filter(|(&s, _)| s != src)
            .min_by_key(|(_, s)| s.invoice.ticks())
            .map(|(&s, _)| s);
        let Some(dst) = dst else { return };
        st.advice.push(Advice {
            window: w.index,
            src,
            dst,
            lo,
            hi,
            hits,
        });
        self.emit_alert(
            st,
            w.index,
            EventKind::RebalanceAdvice {
                window: w.index,
                src,
                dst,
                lo,
                hi,
                hits,
            },
        );
    }

    /// Dual-window SLO burn-rate monitor.
    fn detect_slo(&self, st: &mut MonState, w: &WindowStats) {
        st.bad_history.push_back(w.bad_events());
        while st.bad_history.len() > self.cfg.slo_slow_windows {
            st.bad_history.pop_front();
        }
        let burn = |n: usize| -> f64 {
            let n = n.min(st.bad_history.len());
            let sum: u64 = st.bad_history.iter().rev().take(n).sum();
            sum as f64 / (self.cfg.slo_budget_per_window * n as f64)
        };
        let fast = burn(self.cfg.slo_fast_windows);
        let slow = burn(self.cfg.slo_slow_windows);
        let firing = fast >= 1.0 && slow >= 1.0;
        if firing != st.slo_firing {
            st.slo_firing = firing;
            self.emit_alert(
                st,
                w.index,
                EventKind::SloAlert {
                    window: w.index,
                    fast_ppm: (fast * 1_000_000.0).round() as u64,
                    slow_ppm: (slow * 1_000_000.0).round() as u64,
                    firing,
                },
            );
        }
    }

    /// Trailing-window cost-constant drift watchdog.
    fn detect_drift(&self, st: &mut MonState, window: u64) {
        let Some((b_i, b_p, b_s, b_l)) = self.cfg.baseline else {
            return;
        };
        if !(window + 1).is_multiple_of(self.cfg.drift_every_windows) {
            return;
        }
        let fits = fit(st.trailing.iter().flatten());
        for (fit, configured) in fits.iter().zip([b_i, b_p, b_s, b_l]) {
            if !fit.determined {
                continue; // no work observed: keep the configured value
            }
            let scale = configured.abs().max(f64::EPSILON);
            let drifted = (fit.fitted - configured).abs() > DRIFT_TOLERANCE * scale;
            let was = st.drift_flags.get(fit.name).copied().unwrap_or(false);
            if drifted != was {
                st.drift_flags.insert(fit.name, drifted);
                self.emit_alert(
                    st,
                    window,
                    EventKind::DriftAlert {
                        window,
                        component: fit.name,
                        configured,
                        fitted: fit.fitted,
                        drifted,
                    },
                );
            }
        }
    }

    /// Trailing-window misestimation detector over plan-quality samples.
    /// Fires (with hysteresis, edge-triggered) when the trailing p90 cost
    /// Q-error or the mean regret share crosses its threshold, naming the
    /// worse Q-error component — `selectivity` (exported stats are stale)
    /// or `constants` (configured cost constants no longer match the
    /// server).
    fn detect_estimates(&self, st: &mut MonState, window: u64) {
        let samples: Vec<EstSample> = st.est_trailing.iter().flatten().copied().collect();
        if samples.len() < EST_MIN_SAMPLES {
            return; // too quiet to judge
        }
        let p90 = |f: fn(&EstSample) -> f64| -> f64 {
            let xs: Vec<f64> = samples.iter().map(f).collect();
            crate::quantile(&xs, 0.90)
        };
        let sel_q = p90(|s| s.selectivity_q);
        let con_q = p90(|s| s.constants_q);
        let regret_share =
            samples.iter().map(|s| s.regret_share).sum::<f64>() / samples.len() as f64;
        // Judge the worse *component* Q-error, not the blended plan cost:
        // a badly stale cardinality estimate can hide inside an accurate
        // total when a well-priced term dominates the plan, and it is the
        // component that tells the operator which knob to turn.
        let (component, p90_q) = if con_q > sel_q {
            ("constants", con_q)
        } else {
            ("selectivity", sel_q)
        };
        let firing = if st.est_firing {
            p90_q > self.cfg.est_p90_clear || regret_share >= EST_REGRET_ALERT
        } else {
            p90_q >= self.cfg.est_p90_alert || regret_share >= EST_REGRET_ALERT
        };
        if firing != st.est_firing {
            st.est_firing = firing;
            self.emit_alert(
                st,
                window,
                EventKind::EstimateDrift {
                    window,
                    component,
                    p90_q,
                    regret_share,
                    firing,
                },
            );
        }
    }
}

impl Sink for Monitor {
    fn record(&self, ev: &Event) {
        let mut st = self.state.borrow_mut();
        self.ingest(&mut st, ev);
    }
}

/// Renders the per-window health table and alert log for a monitor run.
/// Deterministic: fixed field order, fixed float formats, BTreeMap-sorted
/// shard columns.
pub fn render_windows(window_secs: f64, windows: &[WindowStats], alerts: &[Event]) -> String {
    let mut out = format!(
        "monitor: {} windows of {window_secs:.1}s simulated, {} alerts\n",
        windows.len(),
        alerts.len()
    );
    out.push_str(
        " win  calls postings   invoice faults  backoff  miss  open  hedge     ewma  shares\n",
    );
    for w in windows {
        let shares = w
            .per_shard
            .keys()
            .map(|&s| format!("s{s}={:.1}%", w.share_ppm(s) as f64 / 10_000.0))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:>4} {:>6} {:>8} {:>9.2} {:>6} {:>8.2} {:>5} {:>5} {:>6} {:>8.3}  {}\n",
            w.index,
            w.calls,
            w.invoice.postings,
            secs(w.invoice.ticks()),
            w.invoice.faults,
            secs(w.invoice.ns_backoff),
            w.deadline_misses,
            w.circuit_opens,
            w.hedges,
            w.latency_ewma,
            if shares.is_empty() { "-" } else { &shares }
        ));
    }
    if !alerts.is_empty() {
        out.push_str("alerts:\n");
        for ev in alerts {
            match &ev.kind {
                EventKind::SkewAlert {
                    window,
                    shard,
                    share_ppm,
                    hot,
                } => out.push_str(&format!(
                    "  [w{window}] skew {} shard{shard} share {:.1}%\n",
                    if *hot { "hot" } else { "clear" },
                    *share_ppm as f64 / 10_000.0
                )),
                EventKind::SloAlert {
                    window,
                    fast_ppm,
                    slow_ppm,
                    firing,
                } => out.push_str(&format!(
                    "  [w{window}] slo {} burn fast {:.2}x slow {:.2}x\n",
                    if *firing { "alert" } else { "clear" },
                    *fast_ppm as f64 / 1_000_000.0,
                    *slow_ppm as f64 / 1_000_000.0
                )),
                EventKind::DriftAlert {
                    window,
                    component,
                    configured,
                    fitted,
                    drifted,
                } => out.push_str(&format!(
                    "  [w{window}] drift {} {component}: configured {configured:.6} fitted {fitted:.6}\n",
                    if *drifted { "alert" } else { "clear" }
                )),
                EventKind::EstimateDrift {
                    window,
                    component,
                    p90_q,
                    regret_share,
                    firing,
                } => out.push_str(&format!(
                    "  [w{window}] estimates {} {component} p90 q {p90_q:.2} regret share {regret_share:.2} ({})\n",
                    if *firing { "alert" } else { "clear" },
                    if *component == "selectivity" {
                        "stats stale, re-export export_stats"
                    } else {
                        "constants drifted, run calibrate"
                    }
                )),
                EventKind::RebalanceAdvice {
                    window,
                    src,
                    dst,
                    lo,
                    hi,
                    hits,
                } => out.push_str(&format!(
                    "  [w{window}] advise shard{src} -> shard{dst} docs [{lo},{hi}) ({hits} hits)\n"
                )),
                other => out.push_str(&format!("  [seq{}] {:?}\n", ev.seq, other)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(clock: f64, shard: Option<usize>, secs: f64) -> Event {
        Event {
            seq: 0,
            clock,
            kind: EventKind::Call {
                op: "search",
                shard,
                terms: 1,
                err: None,
                charge: Charge {
                    invocations: 1,
                    ns_invocation: crate::event::ns(secs),
                    ..Charge::default()
                },
            },
        }
    }

    fn traffic(clock: f64, shard: Option<usize>, docs: Vec<u64>) -> Event {
        Event {
            seq: 0,
            clock,
            kind: EventKind::DocTraffic { shard, docs },
        }
    }

    #[test]
    fn events_bucket_into_windows_and_gaps_close_empty() {
        let mon = Monitor::replay(
            MonitorConfig::new(10.0),
            &[call(1.0, Some(0), 1.0), call(35.0, Some(1), 1.0)],
        );
        let ws = mon.windows();
        assert_eq!(ws.len(), 4, "windows 0..=3, gaps included");
        assert_eq!(ws[0].calls, 1);
        assert_eq!(ws[1].calls, 0, "gap window is empty");
        assert_eq!(ws[2].calls, 0);
        assert_eq!(ws[3].calls, 1);
    }

    #[test]
    fn skew_detector_is_edge_triggered_with_hysteresis() {
        let cfg = MonitorConfig::new(10.0)
            .with_skew(600_000, 400_000)
            .with_baseline(1.0, 1.0, 1.0, 1.0);
        let mut events = Vec::new();
        // Window 0: shard 0 takes 80% — enters hot.
        for i in 0..8 {
            events.push(call(0.5 + i as f64 * 0.001, Some(0), 0.001));
        }
        events.push(call(0.6, Some(1), 0.002));
        events.push(traffic(0.6, Some(0), vec![3, 3, 3, 9]));
        // Untagged traffic is attributed to no shard: it never reaches
        // the advice below.
        events.push(traffic(0.6, None, vec![3, 7, 7, 7, 7]));
        // Window 1: still 50% — inside the hysteresis band, stays hot.
        for i in 0..4 {
            events.push(call(10.5 + i as f64 * 0.001, Some(0), 0.001));
        }
        for i in 0..4 {
            events.push(call(10.6 + i as f64 * 0.001, Some(1), 0.001));
        }
        // Window 2: 12.5% — clears (the rest split so no other shard
        // crosses the hot threshold).
        events.push(call(20.5, Some(0), 0.001));
        for i in 0..4 {
            events.push(call(20.6 + i as f64 * 0.001, Some(1), 0.001));
        }
        for i in 0..3 {
            events.push(call(20.7 + i as f64 * 0.001, Some(2), 0.001));
        }
        let mon = Monitor::replay(cfg, &events);
        let skew: Vec<(u64, usize, bool)> = mon
            .alerts()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SkewAlert {
                    window, shard, hot, ..
                } => Some((window, shard, hot)),
                _ => None,
            })
            .collect();
        assert_eq!(
            skew,
            vec![(0, 0, true), (2, 0, false)],
            "one enter, one clear"
        );
        // The hot entry derived advice from the observed traffic.
        let advice = mon.advice();
        assert_eq!(advice.len(), 1);
        assert_eq!(advice[0].src, 0);
        assert_eq!(advice[0].dst, 1);
        assert_eq!(
            (advice[0].lo, advice[0].hi),
            (3, 4),
            "hottest docid covers half"
        );
        assert_eq!(advice[0].hits, 3);
        let w0 = &mon.windows()[0];
        assert_eq!(w0.per_shard[&0].traffic, BTreeMap::from([(3, 3), (9, 1)]));
        assert!(w0.per_shard[&1].traffic.is_empty());
    }

    #[test]
    fn slo_fires_only_when_both_windows_burn() {
        let cfg = MonitorConfig::new(10.0).with_slo(1, 3, 1.0);
        let miss = |clock: f64| Event {
            seq: 0,
            clock,
            kind: EventKind::DeadlineMiss { shard: Some(0) },
        };
        // Windows 0-1 quiet; a single bad window 2 trips the fast window
        // but not the slow average — no alert.
        let calm = Monitor::replay(
            MonitorConfig::new(10.0).with_slo(1, 3, 1.0),
            &[
                call(0.1, None, 0.1),
                call(10.1, None, 0.1),
                miss(20.1),
                call(25.0, None, 5.0),
            ],
        );
        assert!(calm
            .alerts()
            .iter()
            .all(|e| !matches!(e.kind, EventKind::SloAlert { .. })));
        // After a quiet warm-up, sustained bad windows burn both windows
        // — fires once the slow average crosses, then clears when the
        // fast window recovers.
        let mut events = vec![
            call(1.0, None, 0.1),
            call(11.0, None, 0.1),
            call(21.0, None, 0.1),
        ];
        for w in [3u64, 4] {
            events.push(miss(w as f64 * 10.0 + 1.0));
            events.push(miss(w as f64 * 10.0 + 2.0));
        }
        events.push(call(51.0, None, 1.0));
        events.push(call(61.0, None, 1.0));
        let hot = Monitor::replay(cfg, &events);
        let slo: Vec<(u64, bool)> = hot
            .alerts()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SloAlert { window, firing, .. } => Some((window, firing)),
                _ => None,
            })
            .collect();
        assert_eq!(slo, vec![(4, true), (5, false)]);
    }

    #[test]
    fn drift_watchdog_flags_perturbation_and_stays_silent_when_clean() {
        let cfg = MonitorConfig::new(10.0)
            .with_baseline(1.0, 0.0, 0.0, 0.0)
            .with_drift(1, 4);
        // Clean: calls priced exactly at the baseline c_i.
        let clean = Monitor::replay(
            cfg.clone(),
            &(0..8)
                .map(|i| call(i as f64 * 5.0, Some(0), 1.0))
                .collect::<Vec<_>>(),
        );
        assert!(
            clean
                .alerts()
                .iter()
                .all(|e| !matches!(e.kind, EventKind::DriftAlert { .. })),
            "clean trace must not flag drift"
        );
        // Perturbed: the server starts charging 2× per invocation.
        let mut events: Vec<Event> = (0..4).map(|i| call(i as f64 * 2.0, Some(0), 1.0)).collect();
        let mut drifted = Vec::new();
        for i in 0..8 {
            let mut ev = call(40.0 + i as f64 * 5.0, Some(0), 2.0);
            if let EventKind::Call { charge, .. } = &mut ev.kind {
                charge.invocations = 1;
            }
            drifted.push(ev);
        }
        events.extend(drifted);
        let mon = Monitor::replay(cfg, &events);
        let flags: Vec<(&'static str, bool)> = mon
            .alerts()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DriftAlert {
                    component, drifted, ..
                } => Some((component, drifted)),
                _ => None,
            })
            .collect();
        assert!(
            flags.contains(&("c_i", true)),
            "2x pricing must flag c_i within the trailing window: {flags:?}"
        );
    }

    fn sample(clock: f64, cost_q: f64, sel_q: f64, con_q: f64, regret: f64) -> Event {
        Event {
            seq: 0,
            clock,
            kind: EventKind::EstimateSample {
                cost_q,
                selectivity_q: sel_q,
                constants_q: con_q,
                regret_share: regret,
            },
        }
    }

    #[test]
    fn estimate_detector_fires_on_q_error_and_clears_with_hysteresis() {
        let cfg = MonitorConfig::new(10.0).with_estimates(4.0, 2.0);
        let mut events = Vec::new();
        // Window 0: badly misestimated plans, selectivity-dominated.
        for i in 0..3 {
            events.push(sample(0.5 + i as f64 * 0.1, 10.0, 10.0, 1.0, 0.0));
        }
        // Windows 1-8: perfect plans; w1-w7 still hold w0 in the 8-window
        // trail (stays firing), w8 drops it (clears).
        for w in 1u64..=8 {
            for i in 0..3 {
                events.push(sample(
                    w as f64 * 10.0 + 0.5 + i as f64 * 0.1,
                    1.0,
                    1.0,
                    1.0,
                    0.0,
                ));
            }
        }
        let mon = Monitor::replay(cfg, &events);
        let drifts: Vec<(u64, &'static str, bool)> = mon
            .alerts()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::EstimateDrift {
                    window,
                    component,
                    firing,
                    ..
                } => Some((window, component, firing)),
                _ => None,
            })
            .collect();
        assert_eq!(
            drifts,
            vec![(0, "selectivity", true), (8, "selectivity", false)],
            "one enter, one clear"
        );
        let table = mon.render_table();
        assert!(
            table.contains("stats stale, re-export export_stats"),
            "{table}"
        );
    }

    #[test]
    fn estimate_detector_names_constants_and_watches_regret() {
        // Constants-dominated misses name the calibration knob.
        let cfg = MonitorConfig::new(10.0).with_estimates(4.0, 2.0);
        let events: Vec<Event> = (0..3)
            .map(|i| sample(0.5 + i as f64 * 0.1, 6.0, 1.0, 6.0, 0.0))
            .collect();
        let mon = Monitor::replay(cfg, &events);
        assert!(
            mon.alerts().iter().any(|e| matches!(
                e.kind,
                EventKind::EstimateDrift {
                    component: "constants",
                    firing: true,
                    ..
                }
            )),
            "constants-dominated q-error must name constants"
        );
        assert!(
            mon.render_table()
                .contains("constants drifted, run calibrate"),
            "{}",
            mon.render_table()
        );
        // Accurate estimates but costly wrong method choices: the regret
        // share alone trips the detector.
        let cfg = MonitorConfig::new(10.0).with_estimates(4.0, 2.0);
        let events: Vec<Event> = (0..3)
            .map(|i| sample(0.5 + i as f64 * 0.1, 1.0, 1.0, 1.0, 0.5))
            .collect();
        let mon = Monitor::replay(cfg, &events);
        assert!(
            mon.alerts()
                .iter()
                .any(|e| matches!(e.kind, EventKind::EstimateDrift { firing: true, .. })),
            "high regret share must fire even with perfect q-error"
        );
    }

    #[test]
    fn estimate_detector_is_silent_below_min_samples_and_on_good_plans() {
        let cfg = MonitorConfig::new(10.0).with_estimates(4.0, 2.0);
        // Two terrible samples: below the minimum, too quiet to judge.
        let quiet = Monitor::replay(
            cfg.clone(),
            &[
                sample(0.5, 100.0, 100.0, 1.0, 0.9),
                sample(0.6, 100.0, 100.0, 1.0, 0.9),
            ],
        );
        assert!(quiet.alerts().is_empty(), "below min_samples stays silent");
        // Plenty of accurate samples: nothing to report.
        let good: Vec<Event> = (0..12)
            .map(|i| sample(i as f64, 1.1, 1.1, 1.0, 0.01))
            .collect();
        let mon = Monitor::replay(cfg, &good);
        assert!(mon.alerts().is_empty(), "well-estimated plans never alert");
    }

    #[test]
    fn replay_and_render_are_deterministic() {
        let events: Vec<Event> = (0..20)
            .map(|i| call(i as f64 * 3.0, Some(i % 3), 1.0 + (i % 4) as f64))
            .collect();
        let cfg = || MonitorConfig::new(10.0).with_baseline(1.0, 1.0, 1.0, 1.0);
        let a = Monitor::replay(cfg(), &events).render_table();
        let b = Monitor::replay(cfg(), &events).render_table();
        assert_eq!(a, b, "byte-identical across replays");
        assert!(a.starts_with("monitor: "), "{a}");
    }

    #[test]
    fn an_event_past_the_last_window_is_skipped_not_waited_for() {
        let mut lines: Vec<String> = (0..12)
            .map(|i| call(i as f64 * 3.0, Some(i % 2), 1.0).to_jsonl())
            .collect();
        let parse = |lines: &[String]| {
            crate::trace::parse_jsonl(&(lines.join("\n") + "\n")).expect("a well-formed trace")
        };
        let cfg = || MonitorConfig::new(10.0).with_baseline(1.0, 1.0, 1.0, 1.0);
        let want = Monitor::replay(cfg(), &parse(&lines));
        assert_eq!(want.skipped(), 0);
        for clock in ["1e999", "1e300"] {
            let line = call(0.0, Some(1), 1.0)
                .to_jsonl()
                .replace("\"clock\":0", &format!("\"clock\":{clock}"));
            assert!(line.contains(clock), "{line}");
            lines.insert(6, line);
            let mon = Monitor::replay(cfg(), &parse(&lines));
            lines.remove(6);
            assert_eq!(mon.skipped(), 1, "clock {clock}");
            assert_eq!(mon.render_table(), want.render_table(), "clock {clock}");
        }
    }

    #[test]
    fn finish_is_idempotent_and_alert_stream_is_separate() {
        let mon = Monitor::new(MonitorConfig::new(10.0));
        mon.record(&call(1.0, Some(0), 1.0));
        mon.finish();
        mon.finish();
        assert_eq!(mon.windows().len(), 1);
        // Alert events have their own dense sequence numbers.
        for (i, ev) in mon.alerts().iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
    }
}

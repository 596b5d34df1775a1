//! Deterministic retry with simulated exponential backoff.
//!
//! The loose-integration boundary is a WAN (paper, Sections 2.3 and 7):
//! connection refusals and timeouts are part of the service contract, not
//! exceptional conditions. This module gives every join method a uniform,
//! *deterministic* response to them — bounded retries with exponential
//! backoff whose waiting time is **simulated seconds charged into the
//! server's [`Usage`] ledger** (`retries` / `ns_backoff`), never
//! wall-clock sleeps. Experiments stay byte-reproducible; the chaos bench
//! can report fault overhead as exact numbers.
//!
//! Only errors whose [`TextError::is_transient`] is true are retried.
//! Everything else (term-cap violations, cap renegotiation, unknown ids,
//! parse errors) is deterministic — retrying verbatim cannot help, so the
//! error surfaces immediately and the caller decides whether to *degrade*
//! (split the package, fall back to TS, skip the probe) instead.

use std::cell::RefCell;

use textjoin_text::server::TextError;

/// Each further failure multiplies the wait by this (classic doubling).
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Ceiling on any single wait, in simulated seconds.
const MAX_BACKOFF: f64 = 30.0;

/// Bounded-attempt retry schedule with exponential simulated backoff:
/// the wait after the `n`-th failure is `base_backoff × 2^(n−1)`, capped
/// at 30 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Simulated seconds waited after the first failed attempt.
    pub base_backoff: f64,
}

impl RetryPolicy {
    /// Up to 4 attempts, waiting 1s, 2s, 4s. Paired with fault plans
    /// whose `max_consecutive < 4`, every operation succeeds.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 1.0,
        }
    }

    /// One attempt, no retries, no backoff charges — pre-fault behavior.
    /// A [`RetryBudget`] built on it may still grant more attempts; they
    /// wait zero seconds.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: 0.0,
        }
    }

    /// Simulated wait after `failed_attempts` consecutive failures (≥ 1).
    pub(crate) fn backoff_after(&self, failed_attempts: u32) -> f64 {
        let exp = BACKOFF_MULTIPLIER.powi(failed_attempts.saturating_sub(1) as i32);
        (self.base_backoff * exp).min(MAX_BACKOFF)
    }

    /// Mean simulated wait per retry under this schedule: the average of
    /// the waits charged between attempts (0 for a never-retry policy).
    /// The planner's expected-retry cost term is `rate × mean_backoff`.
    pub(crate) fn mean_backoff(&self) -> f64 {
        if self.max_attempts <= 1 {
            return 0.0;
        }
        let waits = self.max_attempts - 1;
        (1..=waits).map(|f| self.backoff_after(f)).sum::<f64>() / f64::from(waits)
    }

    /// The one retry loop: runs `op`, retrying transient failures up to
    /// `max_attempts` total tries. Every attempt's outcome is shown to
    /// `observe` (`true` = faulted transiently), and before each retry
    /// `wait` receives the 1-based count of failures absorbed so far and
    /// the simulated backoff to charge — against the service as a whole or
    /// against the replica that caused the wait, the caller decides.
    /// Non-transient errors and the final transient error pass through
    /// unchanged.
    pub(crate) fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, TextError>,
        mut observe: impl FnMut(bool),
        mut wait: impl FnMut(u32, f64),
    ) -> Result<T, TextError> {
        let attempts = self.max_attempts.max(1);
        let mut failed = 0u32;
        loop {
            let out = op();
            observe(out.as_ref().is_err_and(TextError::is_transient));
            match out {
                Err(e) if e.is_transient() && failed + 1 < attempts => {
                    failed += 1;
                    wait(failed, self.backoff_after(failed));
                }
                out => return out,
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Adaptive per-shard retry budget: tracks each shard's observed fault
/// rate with a deterministic integer EWMA and scales the attempt count of
/// a base [`RetryPolicy`] accordingly — fewer attempts against shards that
/// are persistently dead (retrying a black hole only buys backoff), more
/// against shards that have been healthy (a rare blip there is worth
/// riding out).
///
/// The rate is fixed-point in parts-per-1024. Each observed attempt
/// updates `r ← r − r/8 + (faulted ? 128 : 0)`: all-faults converges to
/// the fixpoint 1024, all-successes decays toward 0 (integer division
/// stalls at ≤ 7, comfortably inside the "healthy" band). Integer
/// arithmetic only — byte-reproducible across runs and platforms.
#[derive(Debug, Default)]
pub struct RetryBudget {
    base: RetryPolicy,
    /// Per-shard EWMA fault rates, parts-per-1024; grows on demand.
    rates: RefCell<Vec<u32>>,
    /// Per-shard circuit breakers over the primary replica; grows on
    /// demand alongside `rates`.
    breakers: RefCell<Vec<Breaker>>,
    /// Per-shard EWMA of the primary leg's charged latency, in ticks
    /// (simulated nanoseconds); 0 = no observation yet. Drives the hedge
    /// threshold.
    latencies: RefCell<Vec<u64>>,
}

/// Per-shard circuit-breaker state. While open, routed calls skip the
/// shard's primary replica entirely (charging it nothing) and every
/// [`HALF_OPEN_INTERVAL`]-th call half-open-probes it instead; a probe
/// success closes the breaker.
#[derive(Debug, Clone, Copy, Default)]
struct Breaker {
    open: bool,
    /// Calls routed while open; drives the deterministic probe cadence.
    skips: u32,
}

/// Routing decision for one replicated shard leg, from
/// [`RetryBudget::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Breaker closed: try the primary first with the shard's full budget.
    Primary,
    /// Breaker open: skip the primary, go straight to the secondaries.
    Replica,
    /// Breaker open, probe turn: one unretried attempt on the primary; a
    /// success closes the breaker.
    HalfOpenProbe,
}

/// Every this-many-th routed call against an open breaker probes the
/// primary instead of skipping it.
const HALF_OPEN_INTERVAL: u32 = 4;

/// EWMA weight of one observation, parts-per-1024 (1/8 of full scale).
const EWMA_STEP: u32 = 128;
/// Above this rate (3/4 of observations faulting) a shard counts as
/// persistently dead.
const DEAD_THRESHOLD: u32 = 768;
/// Below this rate (1/4) a shard counts as healthy.
const HEALTHY_THRESHOLD: u32 = 256;

/// A primary leg this many times slower than its shard's latency EWMA is a
/// straggler worth hedging.
const HEDGE_MULTIPLIER: u64 = 3;
/// Hedging never fires below this absolute latency (1 s, in ticks) —
/// protects cold EWMAs and trivially cheap legs from spurious duplicate
/// work.
const HEDGE_FLOOR: u64 = 1_000_000_000;

impl RetryBudget {
    /// A budget that scales `base` per shard; all shards start neutral
    /// (rate 0 = healthy).
    pub fn new(base: RetryPolicy) -> Self {
        RetryBudget {
            base,
            rates: RefCell::new(Vec::new()),
            breakers: RefCell::new(Vec::new()),
            latencies: RefCell::new(Vec::new()),
        }
    }

    /// The policy this budget scales: the schedule of every failover leg,
    /// and of operations no shard is attributed to.
    pub(crate) fn base(&self) -> RetryPolicy {
        self.base
    }

    /// Records the charged latency, in ticks, of one successful primary
    /// leg against `shard`. Integer EWMA `l ← l − l/8 + ticks/8`, seeded
    /// with the first observation — the decay the fault-rate EWMA uses, so
    /// both adapt on the same horizon.
    pub(crate) fn observe_latency(&self, shard: usize, ticks: u64) {
        let mut lat = self.latencies.borrow_mut();
        if lat.len() <= shard {
            lat.resize(shard + 1, 0);
        }
        let l = lat[shard];
        lat[shard] = if l == 0 { ticks } else { l - l / 8 + ticks / 8 };
    }

    /// The shard's current latency EWMA in ticks (0 = nothing observed
    /// yet).
    pub(crate) fn latency_of(&self, shard: usize) -> u64 {
        self.latencies.borrow().get(shard).copied().unwrap_or(0)
    }

    /// The hedge threshold for `shard`, in ticks: a primary leg whose
    /// charged cost exceeds this launches a hedge on a secondary replica.
    /// `None` until the EWMA has seen at least one leg (never hedge cold),
    /// then `max(3 × EWMA, 1 s)`.
    pub(crate) fn hedge_threshold(&self, shard: usize) -> Option<u64> {
        match self.latency_of(shard) {
            0 => None,
            l => Some((HEDGE_MULTIPLIER * l).max(HEDGE_FLOOR)),
        }
    }

    /// Records the outcome of one attempt against `shard`.
    pub(crate) fn observe(&self, shard: usize, faulted: bool) {
        let mut rates = self.rates.borrow_mut();
        if rates.len() <= shard {
            rates.resize(shard + 1, 0);
        }
        let r = rates[shard];
        rates[shard] = r - r / 8 + if faulted { EWMA_STEP } else { 0 };
    }

    /// The shard's current EWMA fault rate in parts-per-1024.
    pub fn rate_of(&self, shard: usize) -> u32 {
        self.rates.borrow().get(shard).copied().unwrap_or(0)
    }

    /// Attempts granted against `shard` right now: tightened to
    /// `max(2, base − 2)` when the shard looks persistently dead, the base
    /// count in the uncertain middle band, loosened to `base + 2` when the
    /// shard has been healthy.
    pub(crate) fn attempts_for(&self, shard: usize) -> u32 {
        let base = self.base.max_attempts.max(1);
        match self.rate_of(shard) {
            r if r >= DEAD_THRESHOLD => base.saturating_sub(2).max(2),
            r if r >= HEALTHY_THRESHOLD => base,
            _ => base + 2,
        }
    }

    /// The base policy with `max_attempts` swapped for the shard's current
    /// budget; backoff schedule unchanged.
    pub(crate) fn policy_for(&self, shard: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.attempts_for(shard),
            ..self.base
        }
    }

    /// Routing decision for the next replicated leg against `shard`. With
    /// the breaker closed this is always [`Route::Primary`]; while open,
    /// calls skip the primary, and every [`HALF_OPEN_INTERVAL`]-th one
    /// half-open-probes it. The probe cadence is a plain counter, so two
    /// identical call sequences route identically.
    pub(crate) fn route(&self, shard: usize) -> Route {
        let mut breakers = self.breakers.borrow_mut();
        if breakers.len() <= shard {
            breakers.resize_with(shard + 1, Breaker::default);
        }
        let b = &mut breakers[shard];
        if !b.open {
            return Route::Primary;
        }
        b.skips += 1;
        if b.skips.is_multiple_of(HALF_OPEN_INTERVAL) {
            Route::HalfOpenProbe
        } else {
            Route::Replica
        }
    }

    /// Opens `shard`'s breaker if its EWMA says the primary is persistently
    /// dead (rate ≥ the dead threshold). Called when a primary retry leg
    /// exhausts transiently. Returns true only on the closed → open
    /// transition, so the caller emits exactly one `CircuitOpen` event.
    pub(crate) fn open_breaker_if_dead(&self, shard: usize) -> bool {
        if self.rate_of(shard) < DEAD_THRESHOLD {
            return false;
        }
        let mut breakers = self.breakers.borrow_mut();
        if breakers.len() <= shard {
            breakers.resize_with(shard + 1, Breaker::default);
        }
        let b = &mut breakers[shard];
        if b.open {
            return false;
        }
        b.open = true;
        b.skips = 0;
        true
    }

    /// Closes `shard`'s breaker after a successful half-open probe.
    /// Returns true only on the open → closed transition.
    pub(crate) fn close_breaker(&self, shard: usize) -> bool {
        let mut breakers = self.breakers.borrow_mut();
        match breakers.get_mut(shard) {
            Some(b) if b.open => {
                b.open = false;
                b.skips = 0;
                true
            }
            _ => false,
        }
    }

    /// Whether `shard`'s breaker is currently open.
    pub fn breaker_open(&self, shard: usize) -> bool {
        self.breakers
            .borrow()
            .get(shard)
            .map(|b| b.open)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ExecContext;
    use textjoin_text::doc::{Document, TextSchema};
    use textjoin_text::faults::{Fault, FaultPlan};
    use textjoin_text::index::Collection;
    use textjoin_text::parse::parse_search;
    use textjoin_text::server::TextServer;

    fn server_with(plan: FaultPlan) -> TextServer {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(Document::new().with(ti, "Query Processing"));
        let mut s = TextServer::new(c);
        s.set_fault_plan(plan);
        s
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy::standard();
        let waits: Vec<f64> = (1..=6).map(|f| p.backoff_after(f)).collect();
        assert_eq!(
            waits,
            [1.0, 2.0, 4.0, 8.0, 16.0, 30.0],
            "doubling, capped at 30s"
        );
    }

    #[test]
    fn retries_through_transient_faults_and_charges_backoff() {
        // Ops 0 and 1 fault; op 2 (third attempt) succeeds.
        let s = server_with(FaultPlan::scripted(vec![
            (0, Fault::Unavailable),
            (1, Fault::Timeout { after_postings: 7 }),
        ]));
        let expr = parse_search("TI='query'", s.collection().schema()).unwrap();
        let r = ExecContext::new(&s).search(&expr).expect("third try wins");
        assert_eq!(r.len(), 1);
        let u = s.usage();
        assert_eq!(u.faults, 2);
        assert_eq!(u.retries, 2);
        assert_eq!(u.invocations, 3, "two failed attempts + one success");
        assert_eq!(u.ns_backoff, 3_000_000_000, "1 s + 2 s");
        // Decomposition stays exact: 3 c_i + postings + short + backoff.
        assert_eq!(
            (u.ns_invocation, u.ns_processing, u.ns_transmission),
            (
                3 * 3_000_000_000,
                10_000 * u.postings_processed,
                15_000_000 * u.docs_short
            )
        );
    }

    #[test]
    fn exhausted_retries_surface_the_last_transient_error() {
        let s = server_with(FaultPlan::scripted(vec![
            (0, Fault::Unavailable),
            (1, Fault::Unavailable),
            (2, Fault::Unavailable),
            (3, Fault::Unavailable),
        ]));
        let expr = parse_search("TI='query'", s.collection().schema()).unwrap();
        let err = ExecContext::new(&s).search(&expr).unwrap_err();
        assert!(matches!(err, TextError::Unavailable));
        let u = s.usage();
        assert_eq!(u.invocations, 4, "all four attempts charged");
        assert_eq!(u.retries, 3, "three waits between four attempts");
    }

    #[test]
    fn non_transient_errors_pass_through_without_retry() {
        let s = server_with(FaultPlan::scripted(vec![(
            0,
            Fault::CapReduced { new_m: 4 },
        )]));
        let expr = parse_search("TI='query'", s.collection().schema()).unwrap();
        let err = ExecContext::new(&s).search(&expr).unwrap_err();
        assert!(matches!(err, TextError::CapReduced { new_m: 4 }));
        let u = s.usage();
        assert_eq!(u.invocations, 1, "no second attempt");
        assert_eq!(u.retries, 0);
    }

    #[test]
    fn mean_backoff_averages_the_wait_schedule() {
        // standard(): waits 1s, 2s, 4s between 4 attempts → mean 7/3.
        let p = RetryPolicy::standard();
        assert!((p.mean_backoff() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(RetryPolicy::none().mean_backoff(), 0.0);
    }

    #[test]
    fn budget_tightens_on_dead_shards_and_loosens_on_healthy_ones() {
        let b = RetryBudget::new(RetryPolicy::standard());
        // Unobserved shards are healthy: base + 2 attempts.
        assert_eq!(b.attempts_for(0), 6);
        // A persistently dead shard converges above the dead threshold.
        for _ in 0..20 {
            b.observe(1, true);
        }
        assert!(b.rate_of(1) >= 768, "rate {}", b.rate_of(1));
        assert_eq!(b.attempts_for(1), 2, "max(2, 4 - 2)");
        // Recovery: successes decay the rate back through the bands.
        for _ in 0..3 {
            b.observe(1, false);
        }
        assert_eq!(b.attempts_for(1), 4, "middle band = base attempts");
        for _ in 0..10 {
            b.observe(1, false);
        }
        assert_eq!(b.attempts_for(1), 6, "healthy again");
        // Shard 0 was never touched by shard 1's history.
        assert_eq!(b.rate_of(0), 0);
        let p = b.policy_for(1);
        assert_eq!(p.max_attempts, 6);
        assert_eq!(p.base_backoff, RetryPolicy::standard().base_backoff);
    }

    #[test]
    fn budget_is_deterministic_integer_arithmetic() {
        let run = || {
            let b = RetryBudget::new(RetryPolicy::standard());
            let mut trace = Vec::new();
            for i in 0..50u32 {
                b.observe(0, i % 3 == 0);
                trace.push(b.rate_of(0));
            }
            trace
        };
        assert_eq!(
            run(),
            run(),
            "identical observation stream, identical rates"
        );
    }

    #[test]
    fn breaker_opens_only_when_dead_and_probes_on_a_fixed_cadence() {
        let b = RetryBudget::new(RetryPolicy::standard());
        // A healthy shard cannot trip the breaker.
        assert!(!b.open_breaker_if_dead(1));
        assert_eq!(b.route(1), Route::Primary);
        // Drive the EWMA over the dead threshold, then trip it.
        for _ in 0..20 {
            b.observe(1, true);
        }
        assert!(b.open_breaker_if_dead(1), "closed -> open transition");
        assert!(!b.open_breaker_if_dead(1), "already open: no second event");
        assert!(b.breaker_open(1));
        // Skips 1..3 route to replicas; the 4th call probes.
        assert_eq!(b.route(1), Route::Replica);
        assert_eq!(b.route(1), Route::Replica);
        assert_eq!(b.route(1), Route::Replica);
        assert_eq!(b.route(1), Route::HalfOpenProbe);
        assert_eq!(b.route(1), Route::Replica, "cadence restarts after a probe");
        // A successful probe closes it; routing reverts to the primary.
        assert!(b.close_breaker(1), "open -> closed transition");
        assert!(!b.close_breaker(1), "already closed");
        assert!(!b.breaker_open(1));
        assert_eq!(b.route(1), Route::Primary);
        // Other shards were never affected.
        assert_eq!(b.route(0), Route::Primary);
    }

    #[test]
    fn latency_ewma_drives_the_hedge_threshold() {
        const S: u64 = 1_000_000_000;
        let b = RetryBudget::new(RetryPolicy::standard());
        // Cold shard: never hedge.
        assert_eq!(b.latency_of(0), 0);
        assert_eq!(b.hedge_threshold(0), None);
        // First observation seeds the EWMA outright.
        b.observe_latency(0, 4 * S);
        assert_eq!(b.latency_of(0), 4 * S);
        assert_eq!(b.hedge_threshold(0), Some(12 * S), "3 × EWMA");
        // Further observations decay with α = 1/8.
        b.observe_latency(0, 12 * S);
        assert_eq!(b.latency_of(0), 5 * S);
        // The floor protects trivially cheap legs.
        b.observe_latency(1, S / 20);
        assert_eq!(b.hedge_threshold(1), Some(S), "floored at 1 s");
        // Shards are independent.
        assert_eq!(b.latency_of(2), 0);
    }

    #[test]
    fn a_budget_over_none_retries_without_waiting() {
        let p = RetryBudget::new(RetryPolicy::none()).policy_for(0);
        assert_eq!(p.max_attempts, 3, "a healthy shard gets base + 2");
        let (mut calls, mut waits) = (0, Vec::new());
        let out = p.run(
            || {
                calls += 1;
                if calls < 3 {
                    Err(TextError::Unavailable)
                } else {
                    Ok(())
                }
            },
            |_| {},
            |_, w| waits.push(w),
        );
        assert!(out.is_ok());
        assert_eq!(waits, [0.0, 0.0], "no backoff charged");
    }

    #[test]
    fn policy_none_never_retries() {
        let s = server_with(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
        let expr = parse_search("TI='query'", s.collection().schema()).unwrap();
        let err = ExecContext::with_retry(&s, RetryPolicy::none())
            .search(&expr)
            .unwrap_err();
        assert!(matches!(err, TextError::Unavailable));
        assert_eq!(s.usage().retries, 0);
        assert_eq!(s.usage().ns_backoff, 0);
    }
}

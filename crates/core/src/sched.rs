//! Deterministic virtual-time transport scheduler.
//!
//! Execution in this repo is synchronous and single-threaded — that is what
//! keeps every experiment byte-reproducible. But the *modelled* transport is
//! not serial: a scatter/gather sends its shard legs concurrently, a hedged
//! read races two replicas, and a deadline bounds the whole query. This
//! module is the discrete-event model of that concurrency: a simulated
//! clock (no wall time, no threads, no external dependencies — std only)
//! over which the executor replays each leg's *charged* cost as a timed
//! interval on a bounded number of per-shard lanes.
//!
//! The separation of concerns is deliberate:
//!
//! * the **ledger** ([`Usage`](../../textjoin_text/server/struct.Usage.html))
//!   keeps recording what work was charged — the scheduler never books or
//!   rebates a charge;
//! * the **scheduler** decides *when* that work would have happened under
//!   bounded concurrency, yielding the **makespan** (critical-path time),
//!   which becomes a first-class cost next to the total charge;
//! * results are computed exactly as before — the scheduler cannot change a
//!   method's output multiset, so oracle equivalence is structural.
//!
//! Within a [`begin_phase`](Scheduler::begin_phase) /
//! [`end_phase`](Scheduler::end_phase) pair, legs on *different* shards
//! overlap freely and legs on the *same* shard queue on that shard's one
//! lane. Outside a phase, legs are serial (the clock advances by the full
//! cost). Hedged legs occupy their shard lane only until the winner
//! finishes; the loser's charge is rebated by the transport layer, not
//! here.

use std::cell::{Cell, RefCell};

/// Configuration for one query's transport schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Reserved for tie-breaking; nothing reads it.
    pub seed: u64,
    /// Per-query deadline in simulated seconds; `None` = unbounded.
    pub deadline: Option<f64>,
}

impl SchedConfig {
    /// Unbounded config.
    pub fn new(seed: u64) -> Self {
        SchedConfig {
            seed,
            deadline: None,
        }
    }

    /// Sets the per-query deadline (simulated seconds).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// When one leg ran on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegTiming {
    /// Virtual start time.
    pub start: f64,
    /// Virtual completion time.
    pub finish: f64,
    /// True exactly when this leg is the first to finish past the
    /// deadline — the caller emits one `DeadlineMiss` event per query.
    pub crossed_deadline: bool,
}

/// Outcome of a hedged (raced) leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgedTiming {
    /// Virtual start of the primary attempt.
    pub start: f64,
    /// Virtual completion of the *winner*.
    pub finish: f64,
    /// True when the hedge (secondary) attempt won the race.
    pub hedge_won: bool,
    /// See [`LegTiming::crossed_deadline`].
    pub crossed_deadline: bool,
}

/// The per-query virtual-time scheduler. Interior mutability keeps the API
/// `&self` so the executor, the methods, and the transport wrappers can
/// share one schedule within a query, like they share one server.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// The serial frontier: where the clock stands between phases.
    now: Cell<f64>,
    /// Σ of every leg cost issued — what a fully serial transport would
    /// have taken (cancelled hedge legs included: their work was issued).
    serial: Cell<f64>,
    /// Latest completion seen anywhere (the makespan candidate).
    horizon: Cell<f64>,
    in_phase: Cell<bool>,
    /// Phase entry gate: no leg of the current phase starts earlier.
    gate: Cell<f64>,
    /// Latest completion within the current phase (the barrier target).
    phase_max: Cell<f64>,
    /// `lanes[shard]` = when that shard's lane is next free; grown on
    /// demand.
    lanes: RefCell<Vec<f64>>,
    hedges: Cell<u64>,
    cancels: Cell<u64>,
    deadline_misses: Cell<u64>,
    degraded: Cell<u64>,
    missed: Cell<bool>,
    /// Externally asserted pressure (a serving session under overload):
    /// `under_pressure` reports true regardless of the deadline state.
    forced_pressure: Cell<bool>,
}

impl Scheduler {
    /// A fresh schedule at virtual time zero.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            now: Cell::new(0.0),
            serial: Cell::new(0.0),
            horizon: Cell::new(0.0),
            in_phase: Cell::new(false),
            gate: Cell::new(0.0),
            phase_max: Cell::new(0.0),
            lanes: RefCell::new(Vec::new()),
            hedges: Cell::new(0),
            cancels: Cell::new(0),
            deadline_misses: Cell::new(0),
            degraded: Cell::new(0),
            missed: Cell::new(false),
            forced_pressure: Cell::new(false),
        }
    }

    /// Critical-path completion time under the concurrency limit: the
    /// latest virtual completion seen so far.
    pub fn makespan(&self) -> f64 {
        self.horizon.get().max(self.now.get())
    }

    /// What a fully serial transport would have taken: the sum of every
    /// issued leg's cost, cancelled legs included.
    pub fn serial_total(&self) -> f64 {
        self.serial.get()
    }

    /// Hedge legs launched.
    pub fn hedges(&self) -> u64 {
        self.hedges.get()
    }

    /// Legs cancelled (each hedge race cancels exactly one loser; a failed
    /// hedge attempt is also cancelled).
    pub fn cancels(&self) -> u64 {
        self.cancels.get()
    }

    /// Queries (0 or 1 per scheduler) whose makespan crossed the deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses.get()
    }

    /// Method downgrades taken under deadline pressure.
    pub(crate) fn degradations(&self) -> u64 {
        self.degraded.get()
    }

    /// Records that the executor downgraded a method under deadline
    /// pressure instead of erroring.
    pub(crate) fn note_degradation(&self) {
        self.degraded.set(self.degraded.get() + 1);
    }

    /// True once the clock has consumed at least half the deadline — the
    /// executor's trigger for graceful degradation (skip probe phases,
    /// fall back TS-style) rather than erroring at the wire.
    pub(crate) fn under_pressure(&self) -> bool {
        if self.forced_pressure.get() {
            return true;
        }
        match self.cfg.deadline {
            Some(d) => self.makespan() >= 0.5 * d,
            None => false,
        }
    }

    /// Asserts pressure from outside the deadline machinery — a serving
    /// session signalling overload (deep admission queue). The executor's
    /// degradation lattice then fires exactly as it does under deadline
    /// pressure: cost-only downgrades, never rows.
    pub(crate) fn force_pressure(&self) {
        self.forced_pressure.set(true);
    }

    /// Opens a scatter phase: legs issued until [`end_phase`]
    /// (Scheduler::end_phase) start no earlier than now and overlap across
    /// shards. Phases do not nest — a second `begin_phase` is a no-op
    /// inside an open phase (the inner scatter joins the outer one).
    /// Returns `true` when this call actually opened the phase; callers
    /// that got `false` must not close it.
    pub(crate) fn begin_phase(&self) -> bool {
        if self.in_phase.get() {
            return false;
        }
        self.in_phase.set(true);
        self.gate.set(self.now.get());
        self.phase_max.set(self.now.get());
        true
    }

    /// Closes the phase: the clock advances to the latest leg completion
    /// (the barrier — a gather returns when its slowest shard does).
    pub(crate) fn end_phase(&self) {
        if !self.in_phase.get() {
            return;
        }
        self.in_phase.set(false);
        self.now.set(self.now.get().max(self.phase_max.get()));
        self.horizon.set(self.horizon.get().max(self.now.get()));
    }

    /// Earliest start on `shard`'s lane given the phase gate.
    fn lane_start(&self, shard: usize, gate: f64) -> f64 {
        let mut lanes = self.lanes.borrow_mut();
        if lanes.len() <= shard {
            lanes.resize(shard + 1, 0.0);
        }
        lanes[shard].max(gate)
    }

    /// Holds `shard`'s lane until `until`.
    fn reserve_lane(&self, shard: usize, until: f64) {
        self.lanes.borrow_mut()[shard] = until;
    }

    fn check_deadline(&self, finish: f64) -> bool {
        match self.cfg.deadline {
            Some(d) if finish > d && !self.missed.get() => {
                self.missed.set(true);
                self.deadline_misses.set(self.deadline_misses.get() + 1);
                true
            }
            _ => false,
        }
    }

    /// Issues one leg of charged cost `cost`. Inside a phase with a shard,
    /// the leg runs on the shard's lane concurrently with other shards'
    /// legs; otherwise it runs serially and advances the clock by its full
    /// cost. The label names the leg for the caller; it is not recorded.
    pub fn leg(&self, shard: Option<usize>, _label: &str, cost: f64) -> LegTiming {
        self.serial.set(self.serial.get() + cost);
        let (start, finish) = match (self.in_phase.get(), shard) {
            (true, Some(s)) => {
                let start = self.lane_start(s, self.gate.get());
                let finish = start + cost;
                self.reserve_lane(s, finish);
                self.phase_max.set(self.phase_max.get().max(finish));
                (start, finish)
            }
            _ => {
                let start = self.now.get();
                let finish = start + cost;
                self.now.set(finish);
                (start, finish)
            }
        };
        self.horizon.set(self.horizon.get().max(finish));
        LegTiming {
            start,
            finish,
            crossed_deadline: self.check_deadline(finish),
        }
    }

    /// Issues a hedged leg: the primary attempt starts normally; once it
    /// has been in flight for `threshold` seconds without completing, the
    /// hedge attempt launches on a replica; the first completion wins and
    /// the loser is cancelled. The lane is held only until the winner
    /// finishes. Both attempts' costs count toward the serial total — both
    /// were issued; overlap-and-cancel is exactly what the hedge buys.
    pub(crate) fn hedged_leg(
        &self,
        shard: usize,
        primary_cost: f64,
        threshold: f64,
        hedge_cost: f64,
    ) -> HedgedTiming {
        self.race(shard, primary_cost, threshold, hedge_cost, true)
    }

    /// A hedge race whose hedge attempt itself failed: the primary's
    /// answer stands regardless of timing. The hedge's issued work still
    /// counts toward the serial total, and the counters still record one
    /// hedge and one cancellation (the failed hedge is the cancelled leg).
    pub(crate) fn failed_hedge_leg(
        &self,
        shard: usize,
        primary_cost: f64,
        threshold: f64,
        hedge_cost: f64,
    ) -> HedgedTiming {
        self.race(shard, primary_cost, threshold, hedge_cost, false)
    }

    fn race(
        &self,
        shard: usize,
        primary_cost: f64,
        threshold: f64,
        hedge_cost: f64,
        hedge_may_win: bool,
    ) -> HedgedTiming {
        self.serial
            .set(self.serial.get() + primary_cost + hedge_cost);
        self.hedges.set(self.hedges.get() + 1);
        self.cancels.set(self.cancels.get() + 1);
        let (in_phase, gate) = (self.in_phase.get(), self.gate.get());
        let start = if in_phase {
            self.lane_start(shard, gate)
        } else {
            self.now.get()
        };
        let primary_finish = start + primary_cost;
        let hedge_finish = start + threshold + hedge_cost;
        let hedge_won = hedge_may_win && hedge_finish < primary_finish;
        let finish = if hedge_won {
            hedge_finish
        } else {
            primary_finish
        };
        if in_phase {
            self.reserve_lane(shard, finish);
            self.phase_max.set(self.phase_max.get().max(finish));
        } else {
            self.now.set(finish);
        }
        self.horizon.set(self.horizon.get().max(finish));
        HedgedTiming {
            start,
            finish,
            hedge_won,
            crossed_deadline: self.check_deadline(finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_legs_advance_the_clock_by_their_full_cost() {
        let s = Scheduler::new(SchedConfig::new(1));
        let a = s.leg(None, "search", 3.0);
        let b = s.leg(Some(0), "retrieve", 4.0);
        assert_eq!((a.start, a.finish), (0.0, 3.0));
        assert_eq!((b.start, b.finish), (3.0, 7.0), "no phase → serial");
        assert_eq!(s.makespan(), 7.0);
        assert_eq!(s.serial_total(), 7.0);
    }

    #[test]
    fn phase_legs_on_distinct_shards_overlap() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.leg(None, "plan", 1.0);
        s.begin_phase();
        for shard in 0..4 {
            let t = s.leg(Some(shard), "gather", 3.0);
            assert_eq!((t.start, t.finish), (1.0, 4.0), "shard {shard}");
        }
        s.end_phase();
        assert_eq!(s.makespan(), 4.0, "barrier at the slowest leg");
        assert_eq!(s.serial_total(), 13.0);
        assert!(s.makespan() < s.serial_total());
        // The next serial leg starts after the barrier.
        let t = s.leg(None, "merge", 0.5);
        assert_eq!(t.start, 4.0);
    }

    #[test]
    fn same_shard_legs_in_one_phase_queue_on_the_shards_lane() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.leg(None, "plan", 1.0);
        s.begin_phase();
        let a = s.leg(Some(0), "p0", 2.0);
        let b = s.leg(Some(0), "p1", 2.0);
        let other = s.leg(Some(1), "q0", 2.0);
        s.end_phase();
        assert_eq!((a.start, a.finish), (1.0, 3.0));
        assert_eq!((b.start, b.finish), (3.0, 5.0), "queued behind p0");
        assert_eq!(
            (other.start, other.finish),
            (1.0, 3.0),
            "another shard overlaps"
        );
        assert_eq!(s.makespan(), 5.0);
    }

    #[test]
    fn nested_phases_join_the_outer_scatter() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.begin_phase();
        s.leg(Some(0), "outer", 5.0);
        s.begin_phase(); // no-op
        s.leg(Some(1), "inner", 1.0);
        s.end_phase(); // closes the single open phase
        assert_eq!(s.makespan(), 5.0);
        s.end_phase(); // no-op
        assert_eq!(s.makespan(), 5.0);
    }

    #[test]
    fn hedged_leg_takes_the_winner_time() {
        let s = Scheduler::new(SchedConfig::new(1));
        // Slow primary (10s), hedge after 2s costing 3s → winner at 5s.
        let t = s.hedged_leg(0, 10.0, 2.0, 3.0);
        assert!(t.hedge_won);
        assert_eq!((t.start, t.finish), (0.0, 5.0));
        assert_eq!(s.makespan(), 5.0);
        assert_eq!(s.serial_total(), 13.0, "both attempts were issued");
        assert_eq!((s.hedges(), s.cancels()), (1, 1));
        // Fast primary: the hedge loses.
        let t = s.hedged_leg(1, 1.0, 2.0, 3.0);
        assert!(!t.hedge_won);
        assert_eq!(t.finish - t.start, 1.0);
    }

    #[test]
    fn failed_hedge_never_wins_but_still_counts() {
        let s = Scheduler::new(SchedConfig::new(1));
        // Timing-wise the hedge would win (5s < 10s), but it faulted.
        let t = s.failed_hedge_leg(0, 10.0, 2.0, 3.0);
        assert!(!t.hedge_won);
        assert_eq!(t.finish, 10.0, "the primary's completion stands");
        assert_eq!(s.serial_total(), 13.0);
        assert_eq!((s.hedges(), s.cancels()), (1, 1));
    }

    #[test]
    fn deadline_is_flagged_once() {
        let s = Scheduler::new(SchedConfig::new(1).with_deadline(5.0));
        assert!(!s.under_pressure());
        let a = s.leg(None, "a", 3.0);
        assert!(!a.crossed_deadline);
        assert!(s.under_pressure(), "3.0 ≥ half of 5.0");
        let b = s.leg(None, "b", 3.0);
        assert!(b.crossed_deadline, "first crossing flagged");
        let c = s.leg(None, "c", 1.0);
        assert!(!c.crossed_deadline, "flagged once per query");
        assert_eq!(s.deadline_misses(), 1);
    }
}

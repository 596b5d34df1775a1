//! Deterministic virtual-time transport scheduler.
//!
//! Execution is synchronous and single-threaded, which keeps every
//! experiment byte-reproducible; the *modelled* transport is not: a scatter
//! sends its shard legs concurrently, a hedged read races two replicas, and
//! a deadline bounds the query. This is the discrete-event model of that
//! concurrency, std only: a simulated clock over which the transport
//! replays each leg's *invoiced* cost as a timed interval on per-shard
//! lanes. It counts integer ticks (simulated nanoseconds), so deadline
//! pressure, a miss and a hedge race are exact in any summation order.
//!
//! The scheduler never bills or rebates: it decides *when* billed work
//! would have happened, yielding the **makespan** (critical-path time) next
//! to the total charge, and it cannot change a method's output multiset.
//!
//! Within a [`begin_phase`](Scheduler::begin_phase) /
//! [`end_phase`](Scheduler::end_phase) pair, legs on *different* shards
//! overlap and legs on the *same* shard queue on its lane; outside a phase
//! legs are serial. A hedge race holds its lane until the winner finishes;
//! the transport rebates the loser.

use std::cell::{Cell, RefCell};

/// Configuration for one query's transport schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Reserved for tie-breaking; nothing reads it.
    pub seed: u64,
    /// Per-query deadline in ticks (simulated nanoseconds); `None` =
    /// unbounded.
    pub deadline: Option<u64>,
}

impl SchedConfig {
    /// Unbounded config.
    pub fn new(seed: u64) -> Self {
        SchedConfig {
            seed,
            deadline: None,
        }
    }

    /// Sets the per-query deadline, in ticks.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// When one leg ran on the virtual clock, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegTiming {
    /// Virtual start time (of the primary attempt, for a hedge race).
    pub start: u64,
    /// Virtual completion time (of the winner, for a hedge race).
    pub finish: u64,
    /// True when a hedge race's hedge attempt won; false for a plain leg.
    pub hedge_won: bool,
    /// True exactly when this leg is the first to finish past the
    /// deadline — the caller emits one `DeadlineMiss` event per query.
    pub crossed_deadline: bool,
}

/// The per-query virtual-time scheduler. Interior mutability keeps the API
/// `&self` so the executor, the methods, and the transport wrappers can
/// share one schedule within a query, like they share one server. Every
/// time is an integer tick, the ledger's unit.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// The serial frontier: where the clock stands between phases.
    now: Cell<u64>,
    /// Σ of every leg cost issued — what a fully serial transport would
    /// have taken (cancelled hedge legs included: their work was issued).
    serial: Cell<u64>,
    /// Latest completion seen anywhere (the makespan candidate).
    horizon: Cell<u64>,
    in_phase: Cell<bool>,
    /// Phase entry gate: no leg of the current phase starts earlier.
    gate: Cell<u64>,
    /// Latest completion within the current phase (the barrier target).
    phase_max: Cell<u64>,
    /// `lanes[shard]` = when that shard's lane is next free; grown on
    /// demand.
    lanes: RefCell<Vec<u64>>,
    hedges: Cell<u64>,
    cancels: Cell<u64>,
    deadline_misses: Cell<u64>,
    degraded: Cell<u64>,
    /// Externally asserted pressure (a serving session under overload):
    /// `under_pressure` reports true regardless of the deadline state.
    forced_pressure: Cell<bool>,
}

impl Scheduler {
    /// A fresh schedule at virtual time zero.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            now: Cell::new(0),
            serial: Cell::new(0),
            horizon: Cell::new(0),
            in_phase: Cell::new(false),
            gate: Cell::new(0),
            phase_max: Cell::new(0),
            lanes: RefCell::new(Vec::new()),
            hedges: Cell::new(0),
            cancels: Cell::new(0),
            deadline_misses: Cell::new(0),
            degraded: Cell::new(0),
            forced_pressure: Cell::new(false),
        }
    }

    /// Critical-path completion time under the concurrency limit: the
    /// latest virtual completion seen so far, in ticks.
    pub fn makespan(&self) -> u64 {
        self.horizon.get().max(self.now.get())
    }

    /// What a fully serial transport would have taken: the sum of every
    /// issued leg's ticks, cancelled legs included.
    pub fn serial_total(&self) -> u64 {
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

    /// True once the clock has consumed at least half the deadline
    /// (`2 · makespan ≥ deadline`, exact in ticks) — the executor's
    /// trigger for graceful degradation (skip probe phases, fall back
    /// TS-style) rather than erroring at the wire.
    pub(crate) fn under_pressure(&self) -> bool {
        if self.forced_pressure.get() {
            return true;
        }
        match self.cfg.deadline {
            Some(d) => 2 * self.makespan() >= d,
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

    /// Where a leg of `shard` may start: inside a phase, once its lane is
    /// free and not before the phase gate; otherwise at the serial
    /// frontier.
    fn start_on(&self, shard: Option<usize>) -> u64 {
        match (self.in_phase.get(), shard) {
            (true, Some(s)) => {
                let mut lanes = self.lanes.borrow_mut();
                if lanes.len() <= s {
                    lanes.resize(s + 1, 0);
                }
                lanes[s].max(self.gate.get())
            }
            _ => self.now.get(),
        }
    }

    /// Books a leg of `shard` that ran until `finish`: inside a phase it
    /// holds the shard's lane and raises the barrier, otherwise it moves
    /// the serial frontier.
    fn finish_on(
        &self,
        shard: Option<usize>,
        start: u64,
        finish: u64,
        hedge_won: bool,
    ) -> LegTiming {
        match (self.in_phase.get(), shard) {
            (true, Some(s)) => {
                self.lanes.borrow_mut()[s] = finish;
                self.phase_max.set(self.phase_max.get().max(finish));
            }
            _ => self.now.set(finish),
        }
        self.horizon.set(self.horizon.get().max(finish));
        LegTiming {
            start,
            finish,
            hedge_won,
            crossed_deadline: self.check_deadline(finish),
        }
    }

    fn check_deadline(&self, finish: u64) -> bool {
        match self.cfg.deadline {
            Some(d) if finish > d && self.deadline_misses.get() == 0 => {
                self.deadline_misses.set(1);
                true
            }
            _ => false,
        }
    }

    /// Issues one leg of `ticks` charged cost. Inside a phase with a
    /// shard, the leg runs on the shard's lane concurrently with other
    /// shards' legs; otherwise it runs serially and advances the clock by
    /// its full cost.
    pub(crate) fn issue(&self, shard: Option<usize>, ticks: u64) -> LegTiming {
        self.serial.set(self.serial.get() + ticks);
        let start = self.start_on(shard);
        self.finish_on(shard, start, start + ticks, false)
    }

    /// Issues a hedge race on `shard`: the primary attempt starts
    /// normally; once it has been in flight for `threshold` ticks without
    /// completing, the hedge attempt launches on a replica; the first
    /// completion wins and the loser is cancelled. The lane is held only
    /// until the winner finishes. A hedge attempt that itself failed
    /// (`hedge_ok` false) never wins: the primary's answer stands
    /// regardless of timing, and the failed hedge is the cancelled leg.
    /// Both attempts' costs count toward the serial total — both were
    /// issued; overlap-and-cancel is exactly what the hedge buys.
    pub(crate) fn race(
        &self,
        shard: usize,
        primary: u64,
        threshold: u64,
        hedge: u64,
        hedge_ok: bool,
    ) -> LegTiming {
        self.serial.set(self.serial.get() + primary + hedge);
        self.hedges.set(self.hedges.get() + 1);
        self.cancels.set(self.cancels.get() + 1);
        let start = self.start_on(Some(shard));
        let (primary_finish, hedge_finish) = (start + primary, start + threshold + hedge);
        let hedge_won = hedge_ok && hedge_finish < primary_finish;
        let finish = if hedge_won {
            hedge_finish
        } else {
            primary_finish
        };
        self.finish_on(Some(shard), start, finish, hedge_won)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_legs_advance_the_clock_by_their_full_cost() {
        let s = Scheduler::new(SchedConfig::new(1));
        let a = s.issue(None, 3);
        let b = s.issue(Some(0), 4);
        assert_eq!((a.start, a.finish), (0, 3));
        assert_eq!((b.start, b.finish), (3, 7), "no phase → serial");
        assert_eq!(s.makespan(), 7);
        assert_eq!(s.serial_total(), 7);
    }

    #[test]
    fn phase_legs_on_distinct_shards_overlap() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.issue(None, 2);
        s.begin_phase();
        for shard in 0..4 {
            let t = s.issue(Some(shard), 6);
            assert_eq!((t.start, t.finish), (2, 8), "shard {shard}");
        }
        s.end_phase();
        assert_eq!(s.makespan(), 8, "barrier at the slowest leg");
        assert_eq!(s.serial_total(), 26);
        assert!(s.makespan() < s.serial_total());
        // The next serial leg starts after the barrier.
        let t = s.issue(None, 1);
        assert_eq!(t.start, 8);
    }

    #[test]
    fn same_shard_legs_in_one_phase_queue_on_the_shards_lane() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.issue(None, 1);
        s.begin_phase();
        let a = s.issue(Some(0), 2);
        let b = s.issue(Some(0), 2);
        let other = s.issue(Some(1), 2);
        s.end_phase();
        assert_eq!((a.start, a.finish), (1, 3));
        assert_eq!((b.start, b.finish), (3, 5), "queued behind p0");
        assert_eq!(
            (other.start, other.finish),
            (1, 3),
            "another shard overlaps"
        );
        assert_eq!(s.makespan(), 5);
    }

    #[test]
    fn nested_phases_join_the_outer_scatter() {
        let s = Scheduler::new(SchedConfig::new(1));
        s.begin_phase();
        s.issue(Some(0), 5);
        s.begin_phase(); // no-op
        s.issue(Some(1), 1);
        s.end_phase(); // closes the single open phase
        assert_eq!(s.makespan(), 5);
        s.end_phase(); // no-op
        assert_eq!(s.makespan(), 5);
    }

    #[test]
    fn a_hedge_race_takes_the_winner_time() {
        let s = Scheduler::new(SchedConfig::new(1));
        // Slow primary (10), hedge after 2 costing 3 → winner at 5.
        let t = s.race(0, 10, 2, 3, true);
        assert!(t.hedge_won);
        assert_eq!((t.start, t.finish), (0, 5));
        assert_eq!(s.makespan(), 5);
        assert_eq!(s.serial_total(), 13, "both attempts were issued");
        assert_eq!((s.hedges(), s.cancels()), (1, 1));
        // Fast primary: the hedge loses.
        let t = s.race(1, 1, 2, 3, true);
        assert!(!t.hedge_won);
        assert_eq!(t.finish - t.start, 1);
        // A tie goes to the primary.
        let t = s.race(2, 5, 2, 3, true);
        assert!(!t.hedge_won);
    }

    #[test]
    fn failed_hedge_never_wins_but_still_counts() {
        let s = Scheduler::new(SchedConfig::new(1));
        // Timing-wise the hedge would win (5 < 10), but it faulted.
        let t = s.race(0, 10, 2, 3, false);
        assert!(!t.hedge_won);
        assert_eq!(t.finish, 10, "the primary's completion stands");
        assert_eq!(s.serial_total(), 13);
        assert_eq!((s.hedges(), s.cancels()), (1, 1));
    }

    #[test]
    fn deadline_is_flagged_once() {
        let s = Scheduler::new(SchedConfig::new(1).with_deadline(5));
        assert!(!s.under_pressure());
        let a = s.issue(None, 3);
        assert!(!a.crossed_deadline);
        assert!(s.under_pressure(), "2 · 3 ≥ 5");
        let b = s.issue(None, 3);
        assert!(b.crossed_deadline, "first crossing flagged");
        let c = s.issue(None, 1);
        assert!(!c.crossed_deadline, "flagged once per query");
        assert_eq!(s.deadline_misses(), 1);
    }

    #[test]
    fn pressure_starts_at_exactly_half_the_deadline() {
        let s = Scheduler::new(SchedConfig::new(1).with_deadline(7));
        s.issue(None, 3);
        assert!(!s.under_pressure(), "2 · 3 < 7");
        s.issue(None, 1);
        assert!(s.under_pressure(), "2 · 4 ≥ 7");
        let t = Scheduler::new(SchedConfig::new(1).with_deadline(4));
        let leg = t.issue(None, 4);
        assert!(
            !leg.crossed_deadline,
            "finishing on the deadline is on time"
        );
        assert!(t.under_pressure());
    }
}

//! Deterministic fault injection for the text server.
//!
//! The paper's loose integration reaches Mercury over a WAN (Sections 2.3
//! and 7); a remote Boolean service refuses connections, times out
//! mid-scan, and renegotiates its term cap `M` under load. A [`FaultPlan`]
//! scripts those misbehaviors *deterministically*: the same seed produces
//! the same fault sequence on every run, so chaos experiments stay
//! byte-reproducible (the repo-wide determinism invariant).
//!
//! Faults only ever make an operation *fail* — they never corrupt a result
//! set. That is what makes the chaos oracle provable: any completed search
//! is a correct search, so a retrying client either converges on the exact
//! brute-force answer or surfaces a clean error.
//!
//! Charging semantics live in [`crate::server::TextServer`]; the plan only
//! decides *whether* and *how* the next operation fails.

use std::cell::RefCell;
use std::fmt;

use textjoin_obs::splitmix64;

/// One injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Connection refused / service busy. Transient: the identical call can
    /// succeed a moment later.
    Unavailable,
    /// The server started processing, read `after_postings` postings, then
    /// gave up. Transient, but the partial work is still charged.
    Timeout {
        /// Postings processed (and charged) before the deadline hit.
        after_postings: u64,
    },
    /// The server renegotiated its basic-term cap down to `new_m`
    /// mid-flight (real Boolean services did this under load). Permanent
    /// for the current cap: retrying the same search verbatim cannot help,
    /// the client must re-package.
    CapReduced {
        /// The new, lower cap `M`.
        new_m: usize,
    },
    /// The server answers correctly but late: `delta_s` extra simulated
    /// seconds, charged as backoff time. Latency-only — the operation
    /// *succeeds*, no error is surfaced — so hedged reads and deadlines
    /// have a realistic straggler to race against.
    Slow {
        /// Extra simulated seconds before the (correct) answer arrives.
        delta_s: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unavailable => write!(f, "unavailable"),
            Fault::Timeout { after_postings } => {
                write!(f, "timeout after {after_postings} postings")
            }
            Fault::CapReduced { new_m } => write!(f, "cap reduced to {new_m}"),
            Fault::Slow { delta_s } => write!(f, "slow +{delta_s}s"),
        }
    }
}

/// Which fault kinds a random plan may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKinds {
    pub unavailable: bool,
    pub timeout: bool,
    pub cap_reduced: bool,
    pub slow: bool,
}

impl FaultKinds {
    /// Only faults a bounded retry loop provably recovers from.
    pub fn transient_only() -> Self {
        FaultKinds {
            unavailable: true,
            timeout: true,
            cap_reduced: false,
            slow: false,
        }
    }

    /// Every *erroring* kind, including cap renegotiation. Latency-only
    /// `Slow` faults are opt-in (via [`FaultKinds::slow_only`] or the
    /// `slow` field) so existing seeded chaos streams keep their exact
    /// draw sequences.
    pub(crate) fn all() -> Self {
        FaultKinds {
            unavailable: true,
            timeout: true,
            cap_reduced: true,
            slow: false,
        }
    }

    /// Only latency faults: the server always answers, sometimes late.
    pub(crate) fn slow_only() -> Self {
        FaultKinds {
            unavailable: false,
            timeout: false,
            cap_reduced: false,
            slow: true,
        }
    }
}

#[derive(Debug, Clone)]
struct PlanState {
    rng: u64,
    /// Consecutive faults injected without an intervening success.
    consecutive: u32,
}

/// A seeded, deterministic schedule of server misbehavior.
///
/// Two modes:
/// * **random** ([`FaultPlan::transient`], [`FaultPlan::random`]): each
///   operation faults with probability `rate`, drawn from a splitmix64
///   stream. `max_consecutive` bounds runs of back-to-back faults; any
///   retry policy allowing more attempts than that bound is guaranteed to
///   get through.
/// * **scripted** ([`FaultPlan::scripted`]): exact faults at exact search
///   ordinals, for surgically reproducing a scenario in tests.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rate: f64,
    kinds: FaultKinds,
    /// 0 = unbounded.
    max_consecutive: u32,
    /// `(search ordinal, fault)` pairs, sorted; consulted instead of the
    /// random stream when non-empty.
    script: Vec<(u64, Fault)>,
    /// Search ordinal counter for scripted mode (counts every attempt).
    search_ops: RefCell<u64>,
    state: RefCell<PlanState>,
}

impl FaultPlan {
    /// The no-fault plan: the server behaves exactly as before this module
    /// existed.
    pub fn none() -> Self {
        FaultPlan {
            rate: 0.0,
            kinds: FaultKinds::transient_only(),
            max_consecutive: 0,
            script: Vec::new(),
            search_ops: RefCell::new(0),
            state: RefCell::new(PlanState {
                rng: 0,
                consecutive: 0,
            }),
        }
    }

    /// Random transient faults (`Unavailable`/`Timeout` only) at the given
    /// per-operation `rate`, with at most `max_consecutive` back-to-back
    /// faults (0 = unbounded). With `max_consecutive < RetryPolicy::
    /// max_attempts`, every operation eventually succeeds.
    pub fn transient(seed: u64, rate: f64, max_consecutive: u32) -> Self {
        Self::random(seed, rate, FaultKinds::transient_only(), max_consecutive)
    }

    /// A permanently dead server: every operation faults transiently and no
    /// consecutive bound ever forces a success through. Retrying cannot
    /// help; only failing over to a replica can.
    pub fn dead(seed: u64) -> Self {
        Self::random(seed, 1.0, FaultKinds::transient_only(), 0)
    }

    /// A straggler server: operations always *succeed* but, at the given
    /// `rate`, arrive `1..=8` simulated seconds late (charged as backoff).
    /// No error ever surfaces, so no retry fires — only hedging or a
    /// deadline can route around the latency.
    pub fn slow(seed: u64, rate: f64) -> Self {
        Self::random(seed, rate, FaultKinds::slow_only(), 0)
    }

    /// Random plan with explicit kind selection.
    pub fn random(seed: u64, rate: f64, kinds: FaultKinds, max_consecutive: u32) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of [0,1]");
        FaultPlan {
            rate,
            kinds,
            max_consecutive,
            script: Vec::new(),
            search_ops: RefCell::new(0),
            state: RefCell::new(PlanState {
                rng: seed ^ 0x6a09_e667_f3bc_c908, // offset so seed 0 still mixes
                consecutive: 0,
            }),
        }
    }

    /// Exact faults at exact search ordinals (0-based, counting every
    /// search *attempt*, including ones that fault). Retrieve operations
    /// are never faulted by a scripted plan.
    pub fn scripted(mut faults: Vec<(u64, Fault)>) -> Self {
        faults.sort_by_key(|&(op, _)| op);
        FaultPlan {
            rate: 0.0,
            kinds: FaultKinds::all(),
            max_consecutive: 0,
            script: faults,
            search_ops: RefCell::new(0),
            state: RefCell::new(PlanState {
                rng: 0,
                consecutive: 0,
            }),
        }
    }

    fn next_u64(state: &mut PlanState) -> u64 {
        let z = splitmix64(state.rng);
        state.rng = state.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    fn unit_f64(state: &mut PlanState) -> f64 {
        (Self::next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of the next search attempt. `current_m` is the
    /// server's cap, used to derive a meaningful `CapReduced` target.
    pub(crate) fn next_search_fault(&self, current_m: usize) -> Option<Fault> {
        if !self.script.is_empty() {
            let op = {
                let mut ops = self.search_ops.borrow_mut();
                let op = *ops;
                *ops += 1;
                op
            };
            return self
                .script
                .iter()
                .find(|&&(at, _)| at == op)
                .map(|&(_, f)| f);
        }
        self.draw(|state| {
            // Uniform choice over the enabled kinds.
            let mut menu: Vec<u8> = Vec::with_capacity(4);
            if self.kinds.unavailable {
                menu.push(0);
            }
            if self.kinds.timeout {
                menu.push(1);
            }
            // A cap below 4 would make even single-conjunct packages
            // unsendable; stop renegotiating at that floor.
            if self.kinds.cap_reduced && current_m > 4 {
                menu.push(2);
            }
            if self.kinds.slow {
                menu.push(3);
            }
            if menu.is_empty() {
                return None;
            }
            let pick = menu[(Self::next_u64(state) % menu.len() as u64) as usize];
            Some(match pick {
                0 => Fault::Unavailable,
                1 => Fault::Timeout {
                    after_postings: Self::next_u64(state) % 4096,
                },
                2 => Fault::CapReduced {
                    new_m: (current_m * 2 / 3).max(4),
                },
                _ => Fault::Slow {
                    delta_s: 1 + (Self::next_u64(state) % 8) as u32,
                },
            })
        })
    }

    /// Decides the fate of the next retrieve attempt. Retrievals have no
    /// term cap and their processing is subsumed in `c_l`, so only
    /// `Unavailable` applies.
    pub(crate) fn next_retrieve_fault(&self) -> Option<Fault> {
        if !self.script.is_empty() {
            return None;
        }
        if !self.kinds.unavailable {
            return None;
        }
        self.draw(|_| Some(Fault::Unavailable))
    }

    /// Shared random-mode bookkeeping: rate check, consecutive bound, and
    /// the success/fault counter updates.
    fn draw(&self, pick: impl FnOnce(&mut PlanState) -> Option<Fault>) -> Option<Fault> {
        if self.rate == 0.0 {
            return None;
        }
        let mut state = self.state.borrow_mut();
        let capped = self.max_consecutive > 0 && state.consecutive >= self.max_consecutive;
        if capped || Self::unit_f64(&mut state) >= self.rate {
            state.consecutive = 0;
            return None;
        }
        match pick(&mut state) {
            Some(fault) => {
                state.consecutive += 1;
                Some(fault)
            }
            None => {
                state.consecutive = 0;
                None
            }
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let p = FaultPlan::none();
        for _ in 0..1000 {
            assert_eq!(p.next_search_fault(70), None);
            assert_eq!(p.next_retrieve_fault(), None);
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let a = FaultPlan::random(17, 0.5, FaultKinds::all(), 0);
        let b = FaultPlan::random(17, 0.5, FaultKinds::all(), 0);
        let mut faults = 0;
        for _ in 0..500 {
            let f = a.next_search_fault(70);
            assert_eq!(f, b.next_search_fault(70));
            assert_eq!(a.next_retrieve_fault(), b.next_retrieve_fault());
            faults += usize::from(f.is_some());
        }
        assert!(faults > 0, "rate 0.5 over 500 searches must fault");
    }

    #[test]
    fn consecutive_bound_is_respected() {
        let p = FaultPlan::transient(3, 1.0, 2);
        let mut run = 0u32;
        let mut saw_success = false;
        for _ in 0..300 {
            match p.next_search_fault(70) {
                Some(_) => {
                    run += 1;
                    assert!(run <= 2, "more than max_consecutive faults in a row");
                }
                None => {
                    run = 0;
                    saw_success = true;
                }
            }
        }
        assert!(saw_success, "bound must force successes through");
    }

    #[test]
    fn transient_plans_never_touch_the_cap() {
        let p = FaultPlan::transient(11, 1.0, 0);
        for _ in 0..500 {
            if let Some(f) = p.next_search_fault(70) {
                assert!(
                    matches!(f, Fault::Unavailable | Fault::Timeout { .. }),
                    "transient plan drew {f:?}"
                );
            }
        }
    }

    #[test]
    fn cap_reduction_respects_floor() {
        let p = FaultPlan::random(5, 1.0, FaultKinds::all(), 0);
        let mut m = 70usize;
        for _ in 0..200 {
            if let Some(Fault::CapReduced { new_m }) = p.next_search_fault(m) {
                assert!(new_m < m, "cap must actually shrink ({new_m} !< {m})");
                assert!(new_m >= 4);
                m = new_m;
            }
        }
        // With the floor at 4 the plan stops offering reductions.
        let at_floor = FaultPlan::random(6, 1.0, FaultKinds::all(), 0);
        for _ in 0..200 {
            if let Some(f) = at_floor.next_search_fault(4) {
                assert!(!matches!(f, Fault::CapReduced { .. }));
            }
        }
    }

    #[test]
    fn dead_plan_faults_every_operation() {
        let p = FaultPlan::dead(42);
        for _ in 0..200 {
            assert!(
                p.next_search_fault(70).is_some(),
                "a dead server never answers"
            );
            assert!(matches!(
                p.next_search_fault(70),
                Some(Fault::Unavailable | Fault::Timeout { .. })
            ));
        }
    }

    #[test]
    fn slow_plans_only_draw_latency_faults() {
        let p = FaultPlan::slow(9, 1.0);
        for _ in 0..200 {
            match p.next_search_fault(70).expect("rate 1.0 must draw") {
                Fault::Slow { delta_s } => assert!((1..=8).contains(&delta_s)),
                other => panic!("slow plan drew {other:?}"),
            }
        }
        // Retrieves need `unavailable`, which slow-only plans disable.
        assert_eq!(p.next_retrieve_fault(), None);
    }

    #[test]
    fn erroring_menus_never_draw_slow() {
        let p = FaultPlan::random(21, 1.0, FaultKinds::all(), 0);
        for _ in 0..300 {
            if let Some(f) = p.next_search_fault(70) {
                assert!(!matches!(f, Fault::Slow { .. }), "erroring menu drew {f:?}");
            }
        }
    }

    #[test]
    fn scripted_hits_exact_ordinals() {
        let p = FaultPlan::scripted(vec![
            (1, Fault::Unavailable),
            (3, Fault::CapReduced { new_m: 5 }),
        ]);
        assert_eq!(p.next_search_fault(70), None); // op 0
        assert_eq!(p.next_search_fault(70), Some(Fault::Unavailable)); // op 1
        assert_eq!(p.next_search_fault(70), None); // op 2
        assert_eq!(
            p.next_search_fault(70),
            Some(Fault::CapReduced { new_m: 5 })
        ); // op 3
        assert_eq!(p.next_search_fault(70), None); // op 4
        assert_eq!(p.next_retrieve_fault(), None);
    }
}

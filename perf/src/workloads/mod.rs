//! The four pinned workloads.
//!
//! A workload owns its generated inputs and exposes one operation to time:
//! a *round*, one deterministic pass over a fixed operation list. Every
//! round of a run is identical work, so its result checksum and simulated
//! cost repeat exactly and are compared to the verified reference round.

pub mod serve_stream;
pub mod single_join;
pub mod text_search;
pub mod trace_pipeline;

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use textjoin_rel::table::Table;
use textjoin_rel::value::Value;
use textjoin_workload::world::{World, WorldSpec};

use crate::metrics::Values;
use crate::span::{Span, Tracer};

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes; every reported number uses these.
    Full,
    /// Scale-1 worlds and short lists: the harness end to end in seconds,
    /// debug builds included. Numbers from it mean nothing.
    Smoke,
}

/// What one round did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err` or were refused.
    pub failed: u64,
    /// Fold of row counts and docid checksums over the round's results.
    pub checksum: u64,
    /// Simulated seconds charged: Σ `Usage::total_cost()` + `c_a` ×
    /// comparisons — the paper's cost.
    pub sim_cost: f64,
}

impl RoundOutcome {
    /// Whether `self` repeats `reference` exactly: same counts, same
    /// checksum, and a bit-identical simulated cost.
    pub fn repeats(&self, reference: &RoundOutcome) -> bool {
        self.attempted == reference.attempted
            && self.failed == reference.failed
            && self.checksum == reference.checksum
            && self.sim_cost.to_bits() == reference.sim_cost.to_bits()
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Untimed state reset before a round (ledgers, fault plans, input
    /// copies), so that every round starts from the same state.
    fn prepare(&mut self) {}

    /// One pass over the fixed operation list. With `t` enabled the same
    /// operations run under spans.
    fn round(&mut self, t: &Tracer) -> RoundOutcome;

    /// The correctness gate: checks every operation of a round against an
    /// independent oracle and returns the outcome of that verified round.
    fn verify(&mut self) -> Result<RoundOutcome, String>;

    /// Traced run only: runs this workload's layer probes (spans tagged
    /// outside the rounds, at most about `budget` of wall time) and writes
    /// its per-layer metrics from `rounds` — the spans of the traced
    /// rounds and of the set-ups — plus the probes.
    fn layer_metrics(&mut self, t: &Tracer, rounds: &[Span], budget: Duration, out: &mut Values);
}

/// Builds workload `name` from `seed`. Set-up calls into the layers run
/// under `t` (`workload.generate`, `text.shard.build`, ...).
pub fn setup(name: &str, seed: u64, size: Size, t: &Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "text_search" => Box::new(text_search::TextSearch::setup(seed, size, t)),
        "single_join" => Box::new(single_join::SingleJoin::setup(seed, size, t)),
        "serve_stream" => Box::new(serve_stream::ServeStream::setup(seed, size, t)),
        "trace_pipeline" => Box::new(trace_pipeline::TracePipeline::setup(seed, size, t)),
        _ => return None,
    })
}

/// The default world scaled `scale`-fold in every population, seeded with
/// the workload seed.
pub fn world_spec(seed: u64, scale: usize) -> WorldSpec {
    let d = WorldSpec::default();
    WorldSpec {
        seed,
        background_docs: d.background_docs * scale,
        students: d.students * scale,
        projects: d.projects * scale,
        advisors: d.advisors * scale,
        ..d
    }
}

/// Generates the world for `(seed, scale)` under a `workload.generate`
/// span.
pub fn generate(seed: u64, scale: usize, t: &Tracer) -> World {
    t.time("workload.generate", || {
        World::generate(world_spec(seed, scale))
    })
}

/// The world seed of the workloads whose *amount of work* depends on the
/// world: `WorldSpec::default().seed`, the world every recorded table of
/// the repository uses.
///
/// Populations of a few hundred make the generator's statistics — and
/// with them plan choice, result sizes and the cubic relational match of
/// Q5 — move with the seed: across world seeds 1–8, `serve_stream`'s
/// simulated cost per round is 1.3k or 5.9k seconds depending on which
/// plan regime the world lands in, and Q4 P+RTP on `single_join` ranges
/// 28–37 ms. A benchmark whose rounds differ 4x between seeds cannot
/// bound a 5 % regression, so these workloads pin the world and let
/// `--seed` drive everything else (operation order, stream interleaving,
/// tenant assignment, planner inputs). `text_search` runs at scale 10,
/// where the law of large numbers holds the work within 2 % across seeds,
/// and seeds its world too.
pub const PINNED_WORLD_SEED: u64 = 42;

/// The benchmark's seeded generator: every shuffle and every choice of
/// terms or tenants comes from one of these, so `--seed` alone fixes the
/// inputs. `stream` separates independent uses of one workload seed (term
/// choice, stream order, ...).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// FNV-1a step: folds `x` into `h`.
#[inline]
pub fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV offset basis.
pub const FNV: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a byte string, eight bytes a step (megabytes of JSONL are
/// folded inside a timed round, so this has to be cheap).
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = fold(
            h,
            u64::from_le_bytes(c.try_into().expect("chunks of eight")),
        );
    }
    for &b in chunks.remainder() {
        h = fold(h, u64::from(b));
    }
    fold(h, bytes.len() as u64)
}

/// Order-independent checksum of a result table: row count folded with
/// the sum of per-row value hashes (join methods emit the same multiset
/// in different orders).
pub fn table_checksum(t: &Table) -> u64 {
    let mut sum = 0u64;
    for row in t.iter() {
        let mut h = FNV;
        for v in row.values() {
            h = match v {
                Value::Null => fold(h, 0),
                Value::Int(i) => fold(h, *i as u64),
                Value::Str(s) => fold_bytes(h, s.as_bytes()),
            };
        }
        sum = sum.wrapping_add(h);
    }
    fold(fold(FNV, t.len() as u64), sum)
}

/// Median duration of spans called `name`, in the given unit.
pub(crate) fn p50(spans: &[Span], name: &str, ns_per_unit: f64) -> f64 {
    crate::span::p50_ns(spans, name) / ns_per_unit
}

pub(crate) const US: f64 = 1e3;
pub(crate) const MS: f64 = 1e6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_world() {
        let t = Tracer::off();
        let a = generate(1, 1, &t);
        let b = generate(1, 1, &t);
        let c = generate(2, 1, &t);
        let names = |w: &World| w.catalog.table("student").unwrap().rows().to_vec();
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
    }

    #[test]
    fn table_checksum_ignores_row_order_but_not_content() {
        use textjoin_rel::schema::RelSchema;
        use textjoin_rel::tuple;
        use textjoin_rel::value::ValueType;
        let schema = || RelSchema::from_columns(vec![("a", ValueType::Str), ("b", ValueType::Int)]);
        let mut x = Table::new("x", schema());
        x.push(tuple!["p", 1i64]);
        x.push(tuple!["q", 2i64]);
        let mut y = Table::new("y", schema());
        y.push(tuple!["q", 2i64]);
        y.push(tuple!["p", 1i64]);
        let mut z = Table::new("z", schema());
        z.push(tuple!["q", 2i64]);
        z.push(tuple!["p", 3i64]);
        assert_eq!(table_checksum(&x), table_checksum(&y));
        assert_ne!(table_checksum(&x), table_checksum(&z));
    }
}

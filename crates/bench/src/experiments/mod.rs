//! Experiment runners reproducing the paper's evaluation (Section 7).
//!
//! Each function is deterministic (seeded worlds, simulated costs) and
//! returns structured results; the `src/bin/*` binaries print them in the
//! paper's shape and `EXPERIMENTS.md` records paper-vs-measured.
//!
//! The evaluation is one setting — five join methods over Q1–Q4 against
//! one text system — and every later table is that setting under a
//! different server. `scenario` declares the setting once; every
//! experiment module reads it from there.

mod analyze;
mod chaos;
mod monitor;
mod paper;
mod rebalance;
mod scenario;
mod serve;
mod transport;

pub use analyze::*;
pub use chaos::*;
pub use monitor::*;
pub use paper::*;
pub use rebalance::*;
pub use scenario::*;
pub use serve::*;
pub use transport::*;

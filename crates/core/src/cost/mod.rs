//! The cost model — paper, Section 4.
//!
//! [`params`] holds the Table 1 parameters; [`correlate`] implements the
//! g-correlated joint selectivity/fanout models; [`formulas`] gives the
//! closed-form cost of every join method, used by the optimizer to pick a
//! method and probe columns without touching the text system.

pub mod correlate;
pub mod formulas;
pub mod params;

pub use params::{CostParams, JoinStatistics, PredStats};

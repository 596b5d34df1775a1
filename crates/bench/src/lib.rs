//! # textjoin-bench — the experiment harness
//!
//! Deterministic reproductions of every table and figure in the paper's
//! evaluation (Section 7), plus the Section 4.1 calibration, the
//! Section 6 multi-join comparison, and the tables the repository has
//! added since — the same setting under a different server. Each
//! experiment is a library function ([`experiments`]) with a small
//! printing binary in `src/bin/`:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table2` | Table 2 — execution times of each method on Q1–Q4 |
//! | `fig1a`  | Figure 1(A) — Q3 method costs vs `s_1` |
//! | `fig1b`  | Figure 1(B) — Q4 method costs vs `N_1/N` |
//! | `fig2`   | Figure 2 — TS vs P+TS winner regions |
//! | `calibrate` | Section 4.1 — cost-constant recovery, then the trace-driven fit |
//! | `validate`  | Section 7 — model-predicted vs measured winners |
//! | `multijoin` | Section 6 — Q5 across execution spaces |
//! | `ablations` | the design choices DESIGN.md calls out |
//! | `chaos`     | cost overhead under injected faults (`--sharded`, `--replicated`, `--rebalance`) |
//! | `explain`   | flight-recorder replay: span tree, quantiles, `--windows`, `--analyze` |
//! | `makespan`  | concurrent transport, hedged reads, deadline degradation |
//! | `rebalance` | stats-routing fan-out and migration amortization |
//! | `monitor`   | windowed telemetry: skew closed loop, SLO burn, drift |
//! | `serve`     | the multi-tenant serving session |
//! | `analyze`   | plan quality: EXPLAIN ANALYZE, counterfactual regret, misestimation |

pub mod experiments;
pub mod format;

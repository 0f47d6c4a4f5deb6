//! # chasekit-bench
//!
//! The experiment harness reproducing the paper's results: one experiment
//! per theorem/example (E0–E7), a tiny table writer, and chase-based ground
//! truth. The `experiments` binary prints every table; the Criterion
//! benches in `benches/` measure the same workloads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp;
pub mod parallel;
pub mod table;
pub mod truth;

//! The replipred benchmark: end-to-end host cost and accuracy of three
//! simulation workloads driven through `replipred::Scenario`, plus a
//! traced replay that times each layer's public functions. See
//! `README.md` in this directory for the metrics, workloads and layer
//! map.

// The benchmark measures host time by design; the workspace-wide ban on
// wall-clock reads protects the simulation crates, not their benchmark.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod e2e;
pub mod expected;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

//! `hbench`: the repository's benchmark — four workloads, host-time and
//! simulated-time end-to-end metrics, and an outside-in layer ledger.
//! See `benchmark/README.md`; `main.rs` is the command line.

pub mod alloc;
pub mod calibrate;
pub mod compare;
pub mod describe;
pub mod estimate;
pub mod json;
pub mod ladder;
pub mod machine;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workload;

//! Repository-level façade crate.
//!
//! This crate exists so that the repo root can host runnable `examples/`
//! and cross-crate integration `tests/`. It re-exports the public library.

#![forbid(unsafe_code)]

pub use hstorage::{SystemConfig, TpchSystem};

//! The TPC-H substrate used by the paper's evaluation.
//!
//! The paper runs TPC-H at scale factor 30 (46 GB with the nine indexes of
//! Table 3) for the single-query experiments and scale factor 10 for the
//! throughput test. We do not need literal tuples — every experiment in
//! the paper is driven by the *block-level access behaviour* of the
//! queries — so this crate provides:
//!
//! * the schema and its scale-dependent sizing ([`schema`], [`scale`]),
//! * the nine indexes of Table 3 ([`schema::TpchIndex`]),
//! * a physical layout that registers every table and index in an engine
//!   [`Catalog`](hstorage_engine::Catalog) ([`database`]),
//! * plan templates for Q1–Q22 and the RF1/RF2 refresh functions, built
//!   from the plans the paper prints (Figures 7, 8, 10) and the standard
//!   TPC-H plan shapes ([`queries`]),
//! * the power-test ordering and throughput-test streams of the TPC-H
//!   specification ([`power`], [`throughput`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod database;
pub mod power;
pub mod queries;
pub mod scale;
pub mod schema;
pub mod throughput;

pub use database::TpchDatabase;
pub use queries::{build_plan, QueryId};
pub use scale::TpchScale;
pub use schema::{TpchIndex, TpchTable};

//! Storage substrate for the hStorage-DB reproduction.
//!
//! This crate models everything *below* the DBMS storage manager:
//!
//! * a block-addressed storage space ([`block`]),
//! * I/O requests and their direction ([`request`]),
//! * the QoS policy vocabulary of the hybrid storage system — a set of
//!   caching priorities parameterised by `{N, t, b}` ([`policy`]),
//! * the Differentiated Storage Services request tagging ([`dss`]),
//! * simulated storage devices with calibrated service-time models:
//!   a 15K RPM enterprise HDD ([`hdd`]) and the Intel 320 SSD whose
//!   specification the paper lists in Table 2 ([`ssd`]),
//! * a virtual clock used to account simulated service time ([`clock`]),
//! * the TRIM command used to invalidate dead temporary data ([`trim`]).
//!
//! The paper runs on real hardware behind iSCSI; this crate substitutes a
//! discrete service-time simulation so the experiments are reproducible on
//! any machine. The device parameters are taken from the paper (Table 2 for
//! the SSD, Seagate Cheetah 15K.7 characteristics for the HDD) so the
//! *relative* behaviour of the four storage configurations is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod clock;
pub mod device;
pub mod dss;
pub mod hdd;
pub mod policy;
pub mod request;
pub mod ssd;
pub mod stats;
pub mod trim;

pub use block::{BlockAddr, BlockRange, BLOCK_SIZE};
pub use clock::{ClockLane, SimClock};
pub use device::{DeviceKind, StorageDevice, PRICE_TABLE_BLOCKS};
pub use dss::ClassifiedRequest;
pub use hdd::{HddDevice, HddParameters};
pub use policy::{CachePriority, PolicyConfig, QosPolicy};
pub use request::{Direction, IoRequest, RequestClass};
pub use ssd::{SsdDevice, SsdParameters};
pub use stats::DeviceStats;
pub use trim::TrimCommand;

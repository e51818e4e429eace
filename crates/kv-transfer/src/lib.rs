//! # kv-transfer — a deterministic cross-replica KV movement plane
//!
//! Models the network side of moving paged KV blocks between replicas of a
//! serving fleet: warm-prefix migration on failover/scale-up and
//! prefill→decode streaming in disaggregated serving. Everything lives on
//! the integer-nanosecond spine of [`sim_core`]: a transfer is scheduled as
//! an event at its finish time, and concurrent transfers sharing a NIC are
//! serialized on a per-replica budget, so results are bit-identical for a
//! given seed at any `PAT_SIM_THREADS`.
//!
//! The plane knows nothing about tokens' content or caches — callers (the
//! controller) decide *what* to move and feed it byte counts; the plane
//! answers *when* the bytes arrive.
//!
//! ## Example
//!
//! ```
//! use kv_transfer::{FleetTopology, LinkSpec, TransferKind, TransferPlane};
//! use sim_core::SimTime;
//!
//! let topo = FleetTopology::uniform(4, LinkSpec::rdma_200g());
//! let mut plane = TransferPlane::new(topo);
//! let t = plane.begin(SimTime::ZERO, 0, 2, 64 << 20, 4096, TransferKind::PrefixMigration);
//! assert!(t.finish > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod link;
mod plane;

pub use link::{FleetTopology, LinkSpec};
pub use plane::{Transfer, TransferKind, TransferPlane, TransferStats};

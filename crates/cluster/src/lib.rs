//! # cluster — re-exports of the fixed-fleet API
//!
//! The fixed fleet ([`Cluster`]), its routers and its metrics live in the
//! `controller` crate, whose event loop drives every fleet. This crate only
//! re-exports the names the separate `perfbench/` package imports, so that
//! package builds unchanged; in-workspace code imports from `controller`.
//!
//! ```no_run
//! use cluster::{
//!     load_imbalance, Cluster, ClusterConfig, ClusterResult, LeastOutstanding, PrefixAffinity,
//!     ReplicaView, RoundRobin, Router,
//! };
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

pub use controller::{
    load_imbalance, Cluster, ClusterConfig, ClusterResult, LeastOutstanding, PrefixAffinity,
    ReplicaView, RoundRobin, Router,
};

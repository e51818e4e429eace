//! # sim-core — the simulation spine shared by every layer of the stack
//!
//! Three small pieces every simulator crate in this workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time as **integer nanoseconds**
//!   (`u64`). Clocks across `sim-gpu`, `serving`, and `controller` all
//!   advance on this spine, so equal instants compare
//!   *exactly* equal on every platform: "bit-deterministic per seed" is a
//!   guarantee of the arithmetic, not an accident of x87 rounding. Floating
//!   point appears only at two explicit, lossy boundaries — model outputs
//!   coming in ([`SimDuration::from_ns_f64`]) and metrics going out
//!   ([`SimTime::as_ns_f64`], [`SimDuration::as_ms_f64`]).
//! * [`EventQueue`] — a binary heap keyed on `(SimTime, sequence)`. Events
//!   scheduled for the same instant pop in insertion order, which makes the
//!   event order of a whole fleet run a pure function of its inputs.
//! * [`stats`] — the NaN-guarded sample statistics (nearest-rank
//!   percentiles, guarded means) previously duplicated across the serving,
//!   cluster, and controller metrics modules. [`stats::Samples`] sorts once
//!   and answers any number of quantile queries.
//!
//! ## Example
//!
//! ```
//! use sim_core::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! let t = SimTime::ZERO + SimDuration::from_ns(500);
//! queue.push(t, "b");
//! queue.push(t, "c"); // same instant: pops after "b", deterministically
//! queue.push(SimTime::ZERO, "a");
//! let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod cast;
mod event;
pub mod knobs;
pub mod par;
pub mod stats;
mod time;

pub use event::EventQueue;
pub use time::{SimDuration, SimTime};

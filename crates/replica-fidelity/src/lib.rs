//! # replica-fidelity — multi-fidelity replica models for fleet simulation
//!
//! Every replica in a simulated fleet used to be a full [`serving`] engine
//! over the kernel-level GPU simulator. That fidelity is the right default
//! for kernel studies, but it caps fleet experiments at tens of replicas:
//! the ROADMAP's "millions of users against O(1k) replicas" scenarios spend
//! almost all their wall-clock inside per-step kernel simulation that fleet
//! questions (routing, failover, autoscaling) do not need.
//!
//! This crate decouples *what a replica costs to simulate* from *what the
//! fleet observes about it*. The [`ReplicaModel`] trait captures the exact
//! surface the `controller` fleet loop consumes — submit / step /
//! clock / queue depths / prefix probes / drain / metrics — and two
//! interchangeable backends implement it:
//!
//! - [`ExactReplica`] — today's full [`serving::ServingEngine`] over the
//!   kernel simulator. Token-exact timing; the reference.
//! - [`AnalyticalReplica`] — no kernel simulator at all: decode-attention
//!   time comes from a closed-form model fitted offline against exact-sim
//!   samples (the committed [`calibration`] table), prefill from the same
//!   FLOPs/bandwidth roofline the engine itself uses, and prefix warmth
//!   from a block-hash [`PrefixStore`] that mirrors the real KV cache at
//!   block granularity. O(batch) arithmetic per decode step.
//!
//! Both run on the integer-nanosecond spine ([`sim_core::SimTime`])
//! and are advanced by fleet drivers on `sim_core::par` workers, so fleet
//! results stay byte-identical at any `PAT_SIM_THREADS` regardless of the
//! fidelity mix. Fidelity is selected per replica ([`Fidelity`], env knob
//! `PAT_REPLICA_FIDELITY`) and may be switched mid-run by the controller
//! (hot replicas exact, cold replicas analytical).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytical;
pub mod calibration;
mod exact;
mod fidelity;
mod model;
mod prefix_store;

pub use analytical::AnalyticalReplica;
pub use calibration::{
    AttnCalibration, CalibrationTable, ANALYTICAL_REL_ERROR_BOUND, KERNEL_FIT_REL_ERR_BOUND,
};
pub use exact::ExactReplica;
pub use fidelity::{fidelity_from_env, Fidelity, FIDELITY_ENV};
pub use model::{new_replica, ReplicaModel};
pub use prefix_store::PrefixStore;

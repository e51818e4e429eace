//! # controller — multi-replica fleets: routing, faults and control
//!
//! Scales the single-engine serving simulator (the `serving` crate) out to a
//! fleet: N independent replicas, each with its own KV cache and attention
//! backend, co-simulated in deterministic virtual time behind a pluggable
//! [`Router`]. Because replicas never share KV state, the router's placement
//! decides where prefixes stay warm — the same observation that motivates
//! prefix-aware attention inside a replica (PAT, §3.1) applies across
//! replicas: a request routed away from its cached prefix pays full
//! recomputation and duplicates KV memory.
//!
//! Four routing policies ship with the crate:
//!
//! * [`RoundRobin`] — the oblivious baseline;
//! * [`LeastOutstanding`] — classic load balancing, prefix-blind;
//! * [`ConsistentHashPrefix`] — sticky prefix placement via a hash ring,
//!   load-blind;
//! * [`PrefixAffinity`] — probes every replica's live cache (read-only) and
//!   scores `overlap_tokens − α · outstanding`, falling back to least-loaded
//!   when no replica holds a useful overlap.
//!
//! Routing cannot change what is computed — only where: any single
//! request's decoded output is identical under every policy (a property the
//! test suite checks), while fleet latency, per-replica cache hit rates,
//! load balance, and cross-replica KV duplication vary.
//!
//! One event loop drives every fleet. A [`Cluster`] is a fixed fleet — a
//! static, fault-free run reported as a [`ClusterResult`]. A
//! [`FleetController`] runs the same loop with the operational layer a
//! production deployment uses to survive failures, reported as a
//! [`ControlResult`]:
//!
//! * **Fault injection** ([`FaultPlan`]) — scripted or seeded-random
//!   crashes (cold-cache restarts) and stragglers (speed-factor
//!   slowdowns), generated up front so every run is deterministic.
//! * **Health checking** — the control plane's *observed* replica state
//!   lags ground truth by up to one tick; routing decisions use the
//!   observed state, so requests keep flowing into a dead replica until
//!   the crash is detected.
//! * **Failover** — incomplete requests are torn off a crashed replica and
//!   replayed elsewhere. The replay pays the PAT-specific price: whatever
//!   prefix was warm on the dead replica must be re-prefilled wherever the
//!   request lands ([`ControlResult::refilled_prefill_tokens`]).
//! * **SLO-aware autoscaling** ([`AutoscalerConfig`]) — grows the fleet on
//!   queue depth or rolling-TTFT pressure (after a provisioning delay,
//!   cold), and drains the least-loaded replica gracefully when load
//!   recedes.
//! * **Admission control** ([`AdmissionConfig`]) — queues load at
//!   saturation and sheds past the buffer, so overload degrades goodput
//!   ([`ControlResult::goodput`]) instead of latency for everyone.
//! * **KV movement** ([`TransferConfig`]) — a cross-replica transfer plane
//!   (the `kv-transfer` crate) the controller uses for warm-prefix
//!   migration on failover, speculative prewarm on revive/scale-up, and
//!   prefill/decode disaggregation ([`DisaggConfig`]): shadow prefills run
//!   on a prefill tier and stream finished KV to the decode tier before
//!   decode admission.
//! * **Per-replica fidelity** ([`FidelityPolicy`]) — each replica simulates
//!   at a [`replica_fidelity::Fidelity`] chosen at construction
//!   ([`ControllerConfig::fidelity`], env `PAT_REPLICA_FIDELITY`) or
//!   adaptively per tick: hot replicas exact, cold replicas analytical,
//!   switched mid-run via a cold handoff.
//!
//! Every offered request is accounted for in exactly one of
//! `completed / shed / lost / unfinished` — nothing is silently dropped.
//!
//! ## Examples
//!
//! A fixed fleet:
//!
//! ```no_run
//! use controller::{Cluster, ClusterConfig, PrefixAffinity};
//! use serving::{ModelSpec, ServingConfig};
//! use workloads::{generate_trace, TraceConfig, TraceKind};
//!
//! let requests = generate_trace(TraceConfig {
//!     kind: TraceKind::ToolAgent,
//!     rate_per_s: 16.0,
//!     duration_s: 30.0,
//!     seed: 1,
//! });
//! let config = ClusterConfig::new(4, ServingConfig::single_gpu(ModelSpec::llama3_8b()));
//! let result =
//!     Cluster::with_lazy_pat(&config, Box::new(PrefixAffinity::new())).run(&requests);
//! println!(
//!     "fleet TPOT {:.2} ms, hit rate {:.1}%, imbalance {:.2}",
//!     result.fleet.mean_tpot_ms,
//!     100.0 * result.fleet_hit_rate,
//!     result.load_imbalance,
//! );
//! ```
//!
//! A managed fleet through a crash:
//!
//! ```
//! use controller::{
//!     ControllerConfig, FaultEvent, FaultKind, FaultPlan, FleetController, PrefixAffinity,
//! };
//! use serving::{ModelSpec, ServingConfig};
//! use workloads::{generate_trace, TraceConfig, TraceKind};
//!
//! let trace = generate_trace(TraceConfig {
//!     kind: TraceKind::ToolAgent,
//!     rate_per_s: 8.0,
//!     duration_s: 6.0,
//!     seed: 1,
//! });
//! let faults = FaultPlan::scripted(vec![FaultEvent {
//!     at_s: 2.0,
//!     kind: FaultKind::Crash { replica: 0, restart_after_s: Some(3.0) },
//! }]);
//! let config = ControllerConfig::managed(2, ServingConfig::single_gpu(ModelSpec::llama3_8b()));
//! let result = FleetController::with_lazy_pat(config, Box::new(PrefixAffinity::new()), faults)
//!     .run(&trace);
//! assert_eq!(result.crashes, 1);
//! assert_eq!(
//!     result.offered,
//!     result.completed + result.shed + result.lost + result.unfinished
//! );
//! ```

#![warn(missing_docs)]

mod cluster;
mod faults;
mod fleet;
mod metrics;
mod router;
mod trace;

pub use cluster::{Cluster, ClusterConfig};
pub use faults::{FaultEvent, FaultKind, FaultPlan, RandomFaultConfig};
pub use fleet::{
    AdmissionConfig, AutoscalerConfig, ControllerConfig, DisaggConfig, FidelityPolicy,
    FleetController, TransferConfig,
};
pub use metrics::{
    load_imbalance, window_stats, window_stats_with, ClusterResult, ControlEvent, ControlResult,
    FleetRow, ReplicaSummary, TimelineEvent, WindowScratch, WindowStats,
};
pub use router::{
    ConsistentHashPrefix, LeastOutstanding, PrefixAffinity, ReplicaState, ReplicaView, RoundRobin,
    Router,
};
pub use trace::{result_chrome_json, timeline_chrome_json};

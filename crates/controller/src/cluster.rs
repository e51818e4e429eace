//! The fixed fleet: N replicas built up front behind a routing policy.
//!
//! A [`Cluster`] is a static, fault-free controller run. Its replicas — each
//! a [`ReplicaModel`] with its own prefix residency and (for kernel-level
//! fidelities) attention backend — are built at construction, one fidelity
//! per slot, and [`Cluster::run`] hands them to the controller's event loop
//! with no health checks, faults, autoscaler or admission control. Before
//! each arrival is routed, every busy replica is advanced to the arrival
//! instant, so the router observes loads and cache contents as of that
//! moment. Replicas never share KV state, which is precisely why placement
//! matters: a prefix cached on replica A is recomputed from scratch on
//! replica B.

use crate::metrics::ClusterResult;
use crate::router::Router;
use pat_core::LazyPat;
use replica_fidelity::{fidelity_from_env, new_replica, Fidelity, ReplicaModel};
use serving::{ServingAttention, ServingConfig};
use workloads::Request;

/// Cluster shape: how many replicas, each running the same engine config.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent replicas.
    pub replicas: usize,
    /// Per-replica engine configuration.
    pub engine: ServingConfig,
}

impl ClusterConfig {
    /// `replicas` copies of `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize, engine: ServingConfig) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        ClusterConfig { replicas, engine }
    }
}

/// A fleet of simulated replicas behind a routing policy.
pub struct Cluster {
    engine: ServingConfig,
    replicas: Vec<Box<dyn ReplicaModel>>,
    router: Box<dyn Router>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.replicas.len())
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster at one uniform fidelity. The backend factory is
    /// consulted for every replica slot regardless of fidelity (analytical
    /// replicas drop theirs), so slot → backend assignment is stable across
    /// fidelities.
    pub fn with_fidelity(
        config: &ClusterConfig,
        router: Box<dyn Router>,
        fidelity: Fidelity,
        backend: impl FnMut() -> Box<dyn ServingAttention>,
    ) -> Self {
        let fidelities = vec![fidelity; config.replicas];
        Cluster::with_fidelities(config, router, &fidelities, backend)
    }

    /// Builds a mixed-fidelity cluster: replica `i` runs at
    /// `fidelities[i % fidelities.len()]`.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero or `fidelities` is empty.
    pub fn with_fidelities(
        config: &ClusterConfig,
        router: Box<dyn Router>,
        fidelities: &[Fidelity],
        mut backend: impl FnMut() -> Box<dyn ServingAttention>,
    ) -> Self {
        assert!(config.replicas > 0, "a cluster needs at least one replica");
        assert!(!fidelities.is_empty(), "need at least one fidelity");
        let replicas = (0..config.replicas)
            .map(|i| new_replica(fidelities[i % fidelities.len()], &config.engine, backend()))
            .collect();
        Cluster {
            engine: config.engine.clone(),
            replicas,
            router,
        }
    }

    /// A cluster of PAT ([`LazyPat`]) replicas at the fidelity selected by
    /// `PAT_REPLICA_FIDELITY` (exact when unset) and the tile policy
    /// selected by `PAT_TILE_POLICY` (heuristic when unset) — the common
    /// case.
    pub fn with_lazy_pat(config: &ClusterConfig, router: Box<dyn Router>) -> Self {
        Cluster::with_fidelity(config, router, fidelity_from_env(), || {
            Box::new(LazyPat::from_env())
        })
    }

    /// Routes and serves `requests`, then drains every replica and
    /// aggregates fleet metrics. Simultaneous arrivals route in trace order,
    /// and the result is bit-identical at any `PAT_SIM_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are unsorted by arrival, if two share an id, or
    /// if an id has its high bit (bit 63) set, which the controller
    /// reserves. Also panics if the router returns no replica, or an
    /// out-of-range one, for the all-healthy fleet.
    pub fn run(self, requests: &[Request]) -> ClusterResult {
        crate::fleet::run_fixed(self.engine, self.replicas, self.router, requests)
    }
}

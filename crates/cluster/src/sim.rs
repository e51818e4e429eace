//! The multi-replica cluster simulator.
//!
//! Instantiates N independent replicas — each a [`ReplicaModel`] with its
//! own prefix residency and (for kernel-level fidelities) attention backend
//! — and co-simulates them event-driven on the shared [`sim_core`] spine:
//! arrivals are drained from a deterministic [`EventQueue`], and before each
//! arrival is routed, every *busy* replica is advanced to the arrival
//! instant so the router observes loads and cache contents as they would be
//! at that moment (idle replicas are never ticked — their clocks jump
//! forward on the next submission). The routed request is then submitted to
//! exactly one replica. Replicas never share KV state, which is precisely
//! why placement matters: a prefix cached on replica A is recomputed from
//! scratch on replica B.
//!
//! Replica fidelity is selectable per cluster (or per replica via
//! [`Cluster::with_fidelities`]): exact kernel simulation or the
//! calibrated analytical model — see the [`replica_fidelity`] crate. The
//! driver logic is fidelity-blind.
//!
//! Replicas with identical integer clocks advance in replica-index order —
//! an exact guarantee under [`SimTime`], where equal instants compare equal
//! instead of hiding an ulp of float drift.

use crate::metrics::{
    duplicated_blocks, kv_block_bytes, load_imbalance, ClusterResult, FleetMergeScratch,
    ReplicaSummary,
};
use crate::router::{ReplicaView, Router};
use pat_core::LazyPat;
use replica_fidelity::{fidelity_from_env, new_replica, Fidelity, ReplicaModel};
use serving::{ServingAttention, ServingConfig, StepOutcome};
use sim_core::{par, EventQueue, SimTime};
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
    /// Builds an exact-fidelity cluster whose replicas each get a backend
    /// from `backend`.
    pub fn new(
        config: &ClusterConfig,
        router: Box<dyn Router>,
        backend: impl FnMut() -> Box<dyn ServingAttention>,
    ) -> Self {
        Cluster::with_fidelity(config, router, Fidelity::Exact, backend)
    }

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
        Cluster { replicas, router }
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

    /// Advances every replica until its clock reaches `t` or it goes idle.
    /// Replicas with no outstanding work are skipped outright: stepping an
    /// idle replica is a no-op, and its lagging clock jumps forward on the
    /// next submission.
    ///
    /// Replicas are independent between fleet event barriers — no shared
    /// state is touched until the router runs at `t` — so they advance
    /// concurrently on the `sim_core::par` workers. Each replica's step
    /// sequence is a pure function of its own state; parallelism reorders
    /// wall-clock execution only, so fleet results are bit-identical at any
    /// `PAT_SIM_THREADS`.
    fn advance_all_to(&mut self, t: SimTime) {
        let mut busy: Vec<&mut Box<dyn ReplicaModel>> = self
            .replicas
            .iter_mut()
            .filter(|m| m.outstanding() > 0 && m.clock() < t)
            .collect();
        par::for_each_mut(&mut busy, |_, model| {
            while model.clock() < t {
                if model.step() == StepOutcome::Idle {
                    break;
                }
            }
        });
    }

    /// Routes and serves `requests` (must be sorted by arrival), then drains
    /// every replica and aggregates fleet metrics.
    ///
    /// # Panics
    ///
    /// Panics if requests are unsorted or the router returns an out-of-range
    /// replica index.
    pub fn run(mut self, requests: &[Request]) -> ClusterResult {
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival"
        );
        let n = self.replicas.len();
        let mut assignments: Vec<(u64, usize)> = Vec::with_capacity(requests.len());
        let mut routed = vec![0usize; n];
        // Arrivals drain from the event queue in (time, submission-order):
        // simultaneous arrivals route in trace order, deterministically.
        let mut events: EventQueue<usize> = EventQueue::new();
        for (idx, request) in requests.iter().enumerate() {
            events.push(SimTime::from_secs_f64(request.arrival_s), idx);
        }
        while let Some((t, idx)) = events.pop() {
            let request = &requests[idx];
            // Bring every busy replica up to the arrival instant so the
            // router sees loads and caches as of "now", not as of the last
            // arrival. Replicas advance concurrently between barriers.
            self.advance_all_to(t);
            let choice = {
                let views: Vec<ReplicaView<'_>> = self
                    .replicas
                    .iter()
                    .map(|m| ReplicaView::new(m.as_ref()))
                    .collect();
                self.router.route(request, &views)
            };
            // The fixed fleet is all-healthy, so a router returning `None`
            // is a policy bug, not an operational condition.
            let Some(target) = choice else {
                panic!("router returned no replica for an all-healthy fleet of {n}");
            };
            assert!(target < n, "router picked replica {target} of {n}");
            self.replicas[target].submit(request.clone());
            assignments.push((request.id, target));
            routed[target] += 1;
        }
        // Drain: run every replica to quiescence (or its drain deadline),
        // concurrently — no more routing barriers exist past this point.
        par::for_each_mut(&mut self.replicas, |_, model| {
            while model.step() == StepOutcome::Progress {}
        });

        // Cache-level fleet metrics, read before finalization consumes the
        // replicas.
        let block_bytes = kv_block_bytes(
            &self.replicas[0].config().model,
            self.replicas[0].block_size(),
        );
        let resident: Vec<Vec<u64>> = self
            .replicas
            .iter()
            .map(|m| m.resident_block_hashes())
            .collect();
        let dup_blocks = duplicated_blocks(&resident);
        let hit_rates: Vec<f64> = self.replicas.iter().map(|m| m.cache_hit_rate()).collect();
        let fidelities: Vec<Fidelity> = self.replicas.iter().map(|m| m.fidelity()).collect();
        let (mut hit_tokens, mut total_tokens) = (0u64, 0u64);
        for model in &self.replicas {
            let (hit, miss) = model.cache_hit_miss_tokens();
            hit_tokens += hit;
            total_tokens += hit + miss;
        }

        let results: Vec<_> = self.replicas.into_iter().map(|m| m.into_result()).collect();
        let fleet =
            FleetMergeScratch::default().merge(results.iter().map(|r| r.per_request.as_slice()));
        let (mut unfinished, mut preemptions, mut dropped) = (0usize, 0u64, 0u64);
        for r in &results {
            unfinished += r.unfinished;
            preemptions += r.preemptions;
            dropped += r.dropped;
        }
        let per_replica = results
            .into_iter()
            .zip(routed.iter())
            .zip(hit_rates)
            .zip(fidelities)
            .map(
                |(((result, &routed), prefix_hit_rate), fidelity)| ReplicaSummary {
                    routed,
                    prefix_hit_rate,
                    fidelity,
                    result,
                },
            )
            .collect();
        ClusterResult {
            per_replica,
            fleet,
            fleet_hit_rate: if total_tokens == 0 {
                0.0
            } else {
                hit_tokens as f64 / total_tokens as f64
            },
            load_imbalance: load_imbalance(&routed),
            duplicated_kv_blocks: dup_blocks,
            duplicated_kv_bytes: dup_blocks as u64 * block_bytes,
            assignments,
            unfinished,
            preemptions,
            dropped,
        }
    }
}

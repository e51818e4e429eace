//! The three benchmark workloads: seeded trace generation, fleet
//! construction, and the simulated payload each run produces.
//!
//! A workload's trace is a pure function of its seed. The fleet receives only
//! the generated trace; every output-affecting knob is pinned at start-up
//! (see `main.rs`), so the payload digest depends on nothing but the seed and
//! the simulator's code.

use crate::digest::Digest;
use cluster::{Cluster, ClusterConfig, ClusterResult, LeastOutstanding, PrefixAffinity};
use cluster::{RoundRobin, Router};
use controller::{
    AdmissionConfig, AutoscalerConfig, ControlResult, ControllerConfig, FaultEvent, FaultKind,
    FaultPlan, FleetController, TransferConfig,
};
use kv_transfer::{FleetTopology, LinkSpec};
use pat_core::LazyPat;
use rand::SeedableRng;
use replica_fidelity::Fidelity;
use serving::{ModelSpec, RequestMetrics, ServingAttention, ServingConfig};
use workloads::{
    generate_multi_tenant, generate_multi_tenant_at, Burst, BurstyArrivals, DiurnalArrivals,
    MultiTenantConfig, PoissonArrivals, Request, TenantSpec, TraceKind,
};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight exact replicas behind prefix-affinity routing, steady
    /// shared-prefix decode.
    PrefixFleet,
    /// 256 analytical replicas under the full control plane, a compressed
    /// three-tenant day with six crashes.
    FleetDay,
    /// Six exact replicas with a small KV pool, round-robin routing, bursty
    /// load and three crashes with KV migration.
    FailoverChurn,
}

/// How much virtual time a workload's trace spans and how many requests it
/// keeps. The request count is fixed so that every seed offers the same
/// amount of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Virtual seconds of arrivals generated (faults scale with it).
    pub duration_s: f64,
    /// Requests kept from the start of the generated stream.
    pub requests: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PrefixFleet,
        Workload::FleetDay,
        Workload::FailoverChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrefixFleet => "prefix_fleet",
            Workload::FleetDay => "fleet_day",
            Workload::FailoverChurn => "failover_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fidelity every replica simulates at.
    pub fn fidelity(self) -> Fidelity {
        match self {
            Workload::FleetDay => Fidelity::Analytical,
            Workload::PrefixFleet | Workload::FailoverChurn => Fidelity::Exact,
        }
    }

    /// The engine configuration of every replica.
    pub fn engine(self) -> ServingConfig {
        let mut engine = ServingConfig::single_gpu(ModelSpec::llama3_8b());
        if self == Workload::FailoverChurn {
            // A pool small enough that eviction and preemption run beside
            // prefix reuse.
            engine.kv_capacity_blocks = 3_000;
        }
        engine
    }

    /// The measured size of the workload.
    pub fn size(self) -> Size {
        match self {
            Workload::PrefixFleet => Size {
                duration_s: 15.0,
                requests: 450,
            },
            Workload::FleetDay => Size {
                duration_s: 1.4,
                requests: 1_300,
            },
            Workload::FailoverChurn => Size {
                duration_s: 14.0,
                requests: 370,
            },
        }
    }

    /// A few dozen requests of the same shape, for the self-tests.
    #[cfg(test)]
    pub fn tiny(self) -> Size {
        match self {
            Workload::PrefixFleet => Size {
                duration_s: 3.0,
                requests: 60,
            },
            Workload::FleetDay => Size {
                duration_s: 1.0,
                requests: 400,
            },
            Workload::FailoverChurn => Size {
                duration_s: 4.0,
                requests: 60,
            },
        }
    }

    /// Generates the workload's trace from `seed`.
    pub fn trace(self, seed: u64, size: Size) -> Vec<Request> {
        let d = size.duration_s;
        let mut requests = match self {
            Workload::PrefixFleet => {
                generate_multi_tenant(&MultiTenantConfig {
                    tenants: vec![
                        TenantSpec {
                            kind: TraceKind::ToolAgent,
                            rate_per_s: 20.0,
                        },
                        TenantSpec {
                            kind: TraceKind::Conversation,
                            rate_per_s: 12.0,
                        },
                    ],
                    // Generous headroom so the cut below always binds.
                    duration_s: 1.5 * d,
                    seed,
                })
                .requests
            }
            Workload::FleetDay => {
                // The fig_fleet_scale day: two phase-shifted diurnal tenants
                // and a bursty batch tenant over disjoint prefix pools.
                let span = 1.5 * d;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let tool = DiurnalArrivals::new(430.0, d, 0.5).take_until(span, &mut rng);
                let chat = DiurnalArrivals::new(340.0, d / 2.0, 0.4).take_until(span, &mut rng);
                let batch = BurstyArrivals::new(
                    250.0,
                    vec![
                        burst(0.25 * d, 0.30 * d, 2.5),
                        burst(0.70 * d, 0.74 * d, 3.0),
                    ],
                )
                .take_until(span, &mut rng);
                generate_multi_tenant_at(
                    &[
                        (TraceKind::ToolAgent, tool),
                        (TraceKind::Conversation, chat),
                        (TraceKind::QwenB, batch),
                    ],
                    seed,
                )
                .requests
            }
            Workload::FailoverChurn => {
                let span = 1.5 * d;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let qwen = BurstyArrivals::new(
                    12.0,
                    vec![
                        burst(0.30 * d, 0.40 * d, 3.0),
                        burst(0.70 * d, 0.78 * d, 3.0),
                    ],
                )
                .take_until(span, &mut rng);
                let tool = PoissonArrivals::new(12.0).take_until(span, &mut rng);
                generate_multi_tenant_at(
                    &[(TraceKind::QwenA, qwen), (TraceKind::ToolAgent, tool)],
                    seed,
                )
                .requests
            }
        };
        assert!(
            requests.len() >= size.requests,
            "{}: seed {seed} generated {} requests, fewer than the {} kept",
            self.name(),
            requests.len(),
            size.requests
        );
        requests.truncate(size.requests);
        requests
    }

    /// Builds the fleet. `wrap` sees the workload's router before the fleet
    /// takes it, and `backend` supplies every replica's attention backend.
    pub fn build(
        self,
        size: Size,
        wrap: impl FnOnce(Box<dyn Router>) -> Box<dyn Router>,
        backend: impl FnMut() -> Box<dyn ServingAttention> + 'static,
    ) -> Fleet {
        match self {
            Workload::PrefixFleet => {
                let config = ClusterConfig::new(8, self.engine());
                let router = wrap(Box::new(PrefixAffinity::new()));
                Fleet::Cluster(Cluster::with_fidelity(
                    &config,
                    router,
                    self.fidelity(),
                    backend,
                ))
            }
            Workload::FleetDay => {
                let replicas = 256;
                let d = size.duration_s;
                let mut config = ControllerConfig::managed(replicas, self.engine());
                config.fidelity = self.fidelity();
                let mut autoscaler = AutoscalerConfig::new(replicas, replicas + replicas / 8);
                autoscaler.scale_up_outstanding = 24.0;
                autoscaler.scale_down_outstanding = 2.0;
                autoscaler.provision_delay_s = (d / 100.0).max(1.0);
                autoscaler.cooldown_s = (d / 50.0).max(2.0);
                config.autoscaler = Some(autoscaler);
                config.admission = Some(AdmissionConfig {
                    max_outstanding_per_replica: 64,
                    max_queued: 8192,
                });
                config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
                    replicas,
                    LinkSpec::rdma_200g(),
                )));
                let restart = d / 10.0;
                let faults = (0..6)
                    .map(|i| {
                        crash(
                            d * (0.08 + 0.14 * i as f64),
                            (i * 37 + 5) % replicas,
                            restart,
                        )
                    })
                    .collect();
                let router = wrap(Box::new(LeastOutstanding::new()));
                Fleet::Controller(Box::new(FleetController::new(
                    config,
                    router,
                    FaultPlan::scripted(faults),
                    backend,
                )))
            }
            Workload::FailoverChurn => {
                let replicas = 6;
                let d = size.duration_s;
                let mut config = ControllerConfig::managed(replicas, self.engine());
                config.fidelity = self.fidelity();
                config.transfer = Some(TransferConfig::migration(FleetTopology::uniform(
                    replicas,
                    LinkSpec::rdma_200g(),
                )));
                let faults = [(0.20, 0), (0.45, 2), (0.70, 4)]
                    .into_iter()
                    .map(|(at, replica)| crash(at * d, replica, 0.15 * d))
                    .collect();
                let router = wrap(Box::new(RoundRobin::new()));
                Fleet::Controller(Box::new(FleetController::new(
                    config,
                    router,
                    FaultPlan::scripted(faults),
                    backend,
                )))
            }
        }
    }
}

fn burst(start_s: f64, end_s: f64, multiplier: f64) -> Burst {
    Burst {
        start_s,
        end_s,
        multiplier,
    }
}

fn crash(at_s: f64, replica: usize, restart_after_s: f64) -> FaultEvent {
    FaultEvent {
        at_s,
        kind: FaultKind::Crash {
            replica,
            restart_after_s: Some(restart_after_s),
        },
    }
}

/// The untimed PAT backend.
pub fn lazy_pat() -> Box<dyn ServingAttention> {
    Box::new(LazyPat::new())
}

/// A built fleet, ready to serve one trace.
pub enum Fleet {
    /// A fixed `cluster::Cluster`.
    Cluster(Cluster),
    /// A managed `controller::FleetController`.
    Controller(Box<FleetController>),
}

/// What one fleet run returned.
pub enum FleetResult {
    /// From `Cluster::run`.
    Cluster(ClusterResult),
    /// From `FleetController::run`.
    Controller(Box<ControlResult>),
}

impl Fleet {
    /// Serves `requests`. This call is what `wall_s` times.
    pub fn run(self, requests: &[Request]) -> FleetResult {
        match self {
            Fleet::Cluster(c) => FleetResult::Cluster(c.run(requests)),
            Fleet::Controller(c) => FleetResult::Controller(Box::new(c.run(requests))),
        }
    }
}

/// The simulated accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Requests in the trace.
    pub offered: usize,
    /// Requests that finished.
    pub completed: usize,
    /// Requests that did not finish: shed + lost + unfinished + dropped.
    pub not_completed: usize,
}

impl Accounting {
    /// Whether every offered request is in exactly one bucket, as
    /// `Cluster` and `FleetController` promise.
    pub fn balanced(&self) -> bool {
        self.offered == self.completed + self.not_completed
    }
}

impl FleetResult {
    /// The run's request accounting.
    pub fn accounting(&self) -> Accounting {
        match self {
            FleetResult::Cluster(r) => Accounting {
                offered: r.assignments.len(),
                completed: r.completed(),
                not_completed: r.unfinished + usize::try_from(r.dropped).unwrap_or(usize::MAX),
            },
            FleetResult::Controller(r) => Accounting {
                offered: r.offered,
                completed: r.completed,
                not_completed: r.shed + r.lost + r.unfinished,
            },
        }
    }

    /// Digest of the simulated payload: every per-request record plus the
    /// accounting counters. Host timing never enters it.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        match self {
            FleetResult::Cluster(r) => {
                for (replica, summary) in r.per_replica.iter().enumerate() {
                    d.usize(replica);
                    d.usize(summary.routed);
                    d.f64(summary.prefix_hit_rate);
                    requests(&mut d, &summary.result.per_request);
                    d.usize(summary.result.decode_steps);
                    d.usize(summary.result.unfinished);
                    d.u64(summary.result.preemptions);
                    d.u64(summary.result.dropped);
                }
                for &(id, replica) in &r.assignments {
                    d.u64(id);
                    d.usize(replica);
                }
                d.f64(r.fleet_hit_rate);
                d.f64(r.load_imbalance);
                d.usize(r.duplicated_kv_blocks);
            }
            FleetResult::Controller(r) => {
                requests(&mut d, &r.per_request);
                for n in [
                    r.offered,
                    r.completed,
                    r.shed,
                    r.lost,
                    r.unfinished,
                    r.failovers,
                    r.migrations,
                    r.prewarm_transfers,
                    r.disagg_handoffs,
                    r.crashes,
                    r.scale_ups,
                    r.scale_downs,
                    r.fidelity_switches,
                    r.peak_replicas,
                ] {
                    d.usize(n);
                }
                for n in [
                    r.refilled_prefill_tokens,
                    r.refilled_cold,
                    r.refilled_after_partial_migration,
                    r.migrated_prefix_tokens,
                    r.kv_transfers,
                    r.kv_transfer_bytes,
                    r.kv_transfer_nic_wait_ns,
                    r.preemptions,
                ] {
                    d.u64(n);
                }
                d.f64(r.goodput);
                for &id in r.shed_ids.iter().chain(&r.lost_ids) {
                    d.u64(id);
                }
            }
        }
        d.finish()
    }
}

fn requests(d: &mut Digest, records: &[RequestMetrics]) {
    d.usize(records.len());
    for m in records {
        d.u64(m.request_id);
        d.f64(m.ttft_ns);
        d.f64(m.tpot_ns);
        d.f64(m.completion_ns);
        d.usize(m.decode_tokens);
    }
}

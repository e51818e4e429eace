//! The standalone replica pass of a traced run.
//!
//! `Cluster` and `FleetController` build their replicas internally, so the
//! benchmark cannot time a fleet replica's `step` from outside. Instead it
//! rebuilds each replica with `replica_fidelity::new_replica` and drives it
//! with the requests the timed router sent it, advancing the replica to each
//! arrival exactly as `Cluster::run` does before it submits. On a fixed
//! fault-free cluster this reproduces every replica's step sequence, so the
//! pass's step times are the fleet's step times; `check_matches_cluster`
//! proves it per request, bit for bit. Under a controller, failover moves
//! requests between replicas, so the pass is an approximation there.

use crate::timed::{lock, nanos, PlanLog, Shared, TimedAttention};
use cluster::ClusterResult;
use pat_core::LazyPat;
use replica_fidelity::{new_replica, Fidelity, ReplicaModel};
use serving::{ServingConfig, SimulationResult, StepOutcome};
use sim_core::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::Request;

/// Host time and work counters of one standalone replica pass.
#[derive(Debug, Default)]
pub struct ReplicaPass {
    /// Host nanoseconds of every `ReplicaModel::step` call.
    pub step_ns: Vec<u64>,
    /// Host nanoseconds of all `submit` calls.
    pub submit_ns: u64,
    /// Planning nanoseconds that ran inside the timed steps.
    pub plan_ns: u64,
    /// Steps that missed the step-simulation cache and ran the kernel
    /// simulation.
    pub miss_steps: u64,
    /// Host nanoseconds of the miss steps, planning excluded.
    pub miss_self_ns: u64,
    /// Prefix-cache `(hit, miss)` tokens summed over replicas.
    pub cache_tokens: (u64, u64),
    /// Every replica's final result, in replica order.
    pub results: Vec<SimulationResult>,
}

impl ReplicaPass {
    /// Host nanoseconds the replicas were busy (steps plus submissions).
    pub fn busy_ns(&self) -> u64 {
        self.step_ns.iter().sum::<u64>() + self.submit_ns
    }
}

/// Splits `requests` by the replica each was last routed to. `choices` is
/// the router's `(request id, replica)` log in call order; a request routed
/// more than once (failover) lands where it was routed last.
pub fn split(requests: &[Request], choices: &[(u64, Option<usize>)]) -> Vec<Vec<Request>> {
    let mut last: BTreeMap<u64, usize> = BTreeMap::new();
    for &(id, choice) in choices {
        if let Some(replica) = choice {
            last.insert(id, replica);
        }
    }
    let replicas = last.values().max().map_or(0, |&m| m + 1);
    let mut out = vec![Vec::new(); replicas];
    for r in requests {
        if let Some(&replica) = last.get(&r.id) {
            out[replica].push(r.clone());
        }
    }
    out
}

/// Drives one fresh replica per entry of `split`, timing every step.
pub fn run(fidelity: Fidelity, engine: &ServingConfig, split: &[Vec<Request>]) -> ReplicaPass {
    let plans: Shared<PlanLog> = Shared::default();
    let mut pass = ReplicaPass::default();
    for requests in split {
        let backend = Box::new(TimedAttention::new(Box::new(LazyPat::new()), plans.clone()));
        let mut model = new_replica(fidelity, engine, backend);
        for request in requests {
            let t = SimTime::from_secs_f64(request.arrival_s);
            if model.outstanding() > 0 {
                while model.clock() < t {
                    if timed_step(model.as_mut(), &plans, &mut pass) == StepOutcome::Idle {
                        break;
                    }
                }
            }
            let t0 = Instant::now();
            model.submit(request.clone());
            pass.submit_ns += nanos(t0.elapsed());
        }
        while timed_step(model.as_mut(), &plans, &mut pass) == StepOutcome::Progress {}
        let (hit, miss) = model.cache_hit_miss_tokens();
        pass.cache_tokens.0 += hit;
        pass.cache_tokens.1 += miss;
        pass.results.push(model.into_result());
    }
    pass
}

fn timed_step(
    model: &mut dyn ReplicaModel,
    plans: &Shared<PlanLog>,
    pass: &mut ReplicaPass,
) -> StepOutcome {
    let misses = model.step_sim_stats().misses;
    let planned = lock(plans).total_ns;
    let t0 = Instant::now();
    let outcome = model.step();
    let busy = nanos(t0.elapsed());
    let plan = lock(plans).total_ns - planned;
    pass.step_ns.push(busy);
    pass.plan_ns += plan;
    if model.step_sim_stats().misses > misses {
        pass.miss_steps += 1;
        pass.miss_self_ns += busy.saturating_sub(plan);
    }
    outcome
}

/// Checks that the pass reproduced the cluster run: every replica's
/// per-request records must equal the fleet's, bit for bit.
pub fn check_matches_cluster(pass: &ReplicaPass, fleet: &ClusterResult) -> Result<(), String> {
    for (i, summary) in fleet.per_replica.iter().enumerate() {
        let fleet_records = &summary.result.per_request;
        let pass_records = pass.results.get(i).map_or(&[][..], |r| &r.per_request[..]);
        if fleet_records.len() != pass_records.len() {
            return Err(format!(
                "replica {i}: the standalone pass completed {} requests, the fleet {}",
                pass_records.len(),
                fleet_records.len()
            ));
        }
        for (a, b) in fleet_records.iter().zip(pass_records) {
            let same = a.request_id == b.request_id
                && a.ttft_ns.to_bits() == b.ttft_ns.to_bits()
                && a.tpot_ns.to_bits() == b.tpot_ns.to_bits()
                && a.completion_ns.to_bits() == b.completion_ns.to_bits()
                && a.decode_tokens == b.decode_tokens;
            if !same {
                return Err(format!(
                    "replica {i}: request {} differs: fleet {a:?}, standalone {b:?}",
                    a.request_id
                ));
            }
        }
    }
    Ok(())
}

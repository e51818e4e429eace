//! Multi-replica cluster serving with prefix-aware request routing.
//!
//! Three tenants (a tool agent, a chat product, and a batch summarizer) share
//! a four-replica fleet. Each tenant's requests draw on its own pool of
//! shared prefixes, so where a request lands decides whether its prefix is
//! already cached there. The same interleaved stream is served under every
//! routing policy and the fleet metrics are compared: prefix-affinity
//! routing finds the warm replica (higher fleet hit rate, less duplicated KV
//! across replicas) without giving up load balance, which is exactly the
//! cluster-level analogue of PAT's within-batch prefix awareness.
//!
//! Run with `cargo run --release --example cluster_routing`.

use controller::FleetRow;
use pat::prelude::*;
use workloads::{generate_multi_tenant, MultiTenantConfig, TenantSpec, TraceKind};

fn main() {
    // One interleaved request stream: three tenants with disjoint prefix
    // pools, 12 req/s fleet-wide for 10 s.
    let trace = generate_multi_tenant(&MultiTenantConfig {
        tenants: vec![
            TenantSpec {
                kind: TraceKind::ToolAgent,
                rate_per_s: 6.0,
            },
            TenantSpec {
                kind: TraceKind::Conversation,
                rate_per_s: 4.0,
            },
            TenantSpec {
                kind: TraceKind::QwenA,
                rate_per_s: 2.0,
            },
        ],
        duration_s: 10.0,
        seed: 42,
    });
    println!(
        "multi-tenant stream: {} requests over 10 s from {} tenants",
        trace.requests.len(),
        trace.tenant_of.iter().max().map_or(0, |t| t + 1),
    );

    let replicas = 4;
    let policies: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastOutstanding::new()),
        Box::new(ConsistentHashPrefix::default()),
        Box::new(PrefixAffinity::new()),
    ];

    println!(
        "\n{:<18} {:>10} {:>10} {:>8} {:>10} {:>10} {:>6}",
        "policy", "TTFT(ms)", "TPOT(ms)", "hit", "imbalance", "dup(MiB)", "done"
    );
    let mut rows: Vec<FleetRow> = Vec::new();
    for router in policies {
        let policy = router.name();
        let config =
            ClusterConfig::new(replicas, ServingConfig::single_gpu(ModelSpec::llama3_8b()));
        let result = Cluster::with_lazy_pat(&config, router).run(&trace.requests);
        let row = FleetRow::new(policy, "multi-tenant", 12.0, &result);
        println!(
            "{:<18} {:>10.1} {:>10.2} {:>7.1}% {:>10.3} {:>10.1} {:>6}",
            row.policy,
            row.mean_ttft_ms,
            row.mean_tpot_ms,
            100.0 * row.fleet_hit_rate,
            row.load_imbalance,
            row.duplicated_kv_mib,
            row.completed,
        );
        rows.push(row);
    }

    let rr = &rows[0];
    let aff = &rows[3];
    println!(
        "\nprefix-affinity vs round-robin: TPOT {:.2} -> {:.2} ms, \
         fleet hit rate {:.1}% -> {:.1}%, duplicated KV {:.0} -> {:.0} MiB",
        rr.mean_tpot_ms,
        aff.mean_tpot_ms,
        100.0 * rr.fleet_hit_rate,
        100.0 * aff.fleet_hit_rate,
        rr.duplicated_kv_mib,
        aff.duplicated_kv_mib,
    );
}

//! The untraced and traced runs of one workload.
//!
//! An untraced run draws `SUBTRACES` traces from its seed and cycles through
//! them, one fleet run per repetition, until its time is up; a traced run
//! repeats the first of them. Every repetition's payload digest must equal
//! the digest recorded for its trace: the first execution of the trace in
//! this run, and the committed `digests.txt` entry when the seed has one. An
//! untraced run executes trace 0 first at another worker count than the
//! pinned one, so the payload is checked to be independent of it.

use crate::report::{median, peak_rss_mb, percentile_us, ratio, Metrics};
use crate::timed::{lock, PlanLog, RouteLog, Shared, TimedAttention, TimedRouter};
use crate::workload::{lazy_pat, FleetResult, Size, Workload};
use crate::{digest_table, replay};
use pat_core::LazyPat;
use replica_fidelity::Fidelity;
use sim_core::par;
use std::time::{Duration, Instant};
use workloads::Request;

/// Distinct traces a run draws from its seed. Cycling through several
/// traces keeps one unlucky trace from setting a run's median.
pub const SUBTRACES: u64 = 4;

/// The seed of trace `k` of a run seeded `seed`. Distinct run seeds draw
/// disjoint traces.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUBTRACES).wrapping_add(k)
}

/// The correctness tally of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulated requests offered over every checked repetition.
    pub attempted: usize,
    /// Requests of repetitions whose digest or accounting check failed.
    pub failed: usize,
    /// Repetitions checked.
    pub reps: usize,
    /// Repetitions whose digest matched a committed entry.
    pub recorded_matches: usize,
}

/// Digests seen so far in a run, per trace.
struct Checker {
    workload: Workload,
    seed: u64,
    /// Whether the committed digests apply: they are taken at the
    /// workload's measured size.
    committed: bool,
    seen: Vec<Option<u64>>,
    tally: Tally,
}

impl Checker {
    fn new(workload: Workload, size: Size, seed: u64) -> Self {
        Checker {
            workload,
            seed,
            committed: size == workload.size(),
            seen: vec![None; SUBTRACES as usize],
            tally: Tally::default(),
        }
    }

    /// Checks one repetition of trace `k`.
    fn check(&mut self, k: u64, result: &FleetResult) {
        let accounting = result.accounting();
        let digest = result.digest();
        let sub = sub_seed(self.seed, k);
        let recorded = digest_table::lookup(self.workload, sub).filter(|_| self.committed);
        let first = *self.seen[k as usize].get_or_insert(digest);
        let ok = accounting.balanced() && digest == first && recorded.is_none_or(|r| r == digest);
        if !ok {
            eprintln!(
                "{}: trace {sub}: digest {digest:016x} (first {first:016x}, recorded {}), \
                 accounting {accounting:?}",
                self.workload.name(),
                recorded.map_or("none".to_string(), |r| format!("{r:016x}")),
            );
        }
        self.tally.reps += 1;
        self.tally.recorded_matches += usize::from(ok && recorded.is_some());
        self.tally.attempted += accounting.offered;
        if !ok {
            self.tally.failed += accounting.offered;
        }
    }
}

/// One timed repetition: set-up (trace generation plus fleet construction)
/// and the fleet run itself.
struct Rep {
    gen_s: f64,
    setup_s: f64,
    wall_s: f64,
    requests: Vec<Request>,
    result: FleetResult,
}

fn rep(workload: Workload, size: Size, seed: u64, k: u64, timers: Option<&Timers>) -> Rep {
    let t0 = Instant::now();
    let requests = workload.trace(sub_seed(seed, k), size);
    let gen_s = t0.elapsed().as_secs_f64();
    let fleet = match timers {
        None => workload.build(size, |r| r, lazy_pat),
        Some(t) => {
            let (routes, plans) = (t.routes.clone(), t.plans.clone());
            workload.build(
                size,
                |r| Box::new(TimedRouter::new(r, routes)),
                move || Box::new(TimedAttention::new(Box::new(LazyPat::new()), plans.clone())),
            )
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = fleet.run(&requests);
    let wall_s = t1.elapsed().as_secs_f64();
    Rep {
        gen_s,
        setup_s,
        wall_s,
        requests,
        result,
    }
}

/// The logs the timing wrappers of one traced repetition write.
#[derive(Default)]
struct Timers {
    routes: Shared<RouteLog>,
    plans: Shared<PlanLog>,
}

/// Runs `workload` at `size` untraced for at least `seconds` at its pinned
/// worker count and returns the end-to-end metrics.
pub fn untraced(workload: Workload, size: Size, seed: u64, seconds: f64) -> (Metrics, Tally) {
    let mut checker = Checker::new(workload, size, seed);
    // Warm-up, and the reference for trace 0 at another worker count than
    // the pinned one (bounded by the core count).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let other = if par::configured_threads() == 1 {
        nproc.min(2)
    } else {
        1
    };
    par::set_thread_override(Some(other));
    let warm = rep(workload, size, seed, 0, None);
    checker.check(0, &warm.result);
    drop(warm);
    par::set_thread_override(None);

    let mut walls = vec![Vec::new(); SUBTRACES as usize];
    let mut setups = Vec::new();
    let (mut offered, mut completed) = (0usize, 0usize);
    let start = Instant::now();
    for i in 0.. {
        let k = i % SUBTRACES;
        let r = rep(workload, size, seed, k, None);
        checker.check(k, &r.result);
        let accounting = r.result.accounting();
        offered += accounting.offered;
        completed += accounting.completed;
        walls[k as usize].push(r.wall_s);
        setups.push(r.setup_s);
        if i + 1 >= SUBTRACES && start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    // Each trace's median, averaged over the traces: the seed's traces weigh
    // equally however many repetitions each one got.
    let per_trace: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let wall_s = per_trace.iter().sum::<f64>() / per_trace.len() as f64;
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set(
        "sim_req_per_s",
        size.requests as f64 / wall_s.max(f64::MIN_POSITIVE),
    );
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("completed_share", ratio(completed as f64, offered as f64));
    let per_trace: Vec<String> = per_trace.iter().map(|w| format!("{w:.4}")).collect();
    println!(
        "{}: {} repetitions, median wall per trace [{}] s, error_rate {:.6}",
        workload.name(),
        setups.len(),
        per_trace.join(", "),
        1.0 - ratio(completed as f64, offered as f64),
    );
    (m, checker.tally)
}

/// Runs `workload` at `size` traced at one worker thread for at least
/// `seconds` and returns the per-layer metrics.
///
/// Every iteration serves the seed's first trace three times, back to back:
/// untraced, traced, and as a standalone replica pass driven by the traced
/// run's routing. Each per-layer metric is the median over iterations; the
/// fleet driver's self time and the tracing overhead are differences taken
/// within an iteration, so slow drift of the host cancels out of them.
///
/// Returns `Err` when the replica pass fails to reproduce a cluster run,
/// since its layer numbers would then describe different work.
pub fn traced(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, Tally), String> {
    par::set_thread_override(Some(1));
    let mut checker = Checker::new(workload, size, seed);
    let mut iterations = Vec::new();
    let mut approximate = false;
    let start = Instant::now();
    while iterations.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        let plain = rep(workload, size, seed, 0, None);
        checker.check(0, &plain.result);
        let timers = Timers::default();
        let timed = rep(workload, size, seed, 0, Some(&timers));
        checker.check(0, &timed.result);
        let routes = lock(&timers.routes);
        let split = replay::split(&timed.requests, &routes.choices);
        let pass = replay::run(workload.fidelity(), &workload.engine(), &split);
        match &timed.result {
            FleetResult::Cluster(r) => replay::check_matches_cluster(&pass, r)?,
            FleetResult::Controller(_) => approximate = true,
        }

        let mut m = Metrics::default();
        m.set("workloads.gen_s", median(&[plain.gen_s, timed.gen_s]));
        m.set("workloads.requests", timed.requests.len() as f64);
        m.set("trace.overhead_s", timed.wall_s - plain.wall_s);
        let route_busy_s = secs(&routes.busy_ns);
        m.set("cluster.route_calls", routes.busy_ns.len() as f64);
        m.set("cluster.route_busy_s", route_busy_s);
        m.set("cluster.route_p99_us", percentile_us(&routes.busy_ns, 99.0));
        m.set(
            "cluster.route_prefix_share",
            ratio(routes.prefix_routes as f64, routes.busy_ns.len() as f64),
        );
        let routed: Vec<usize> = split.iter().map(Vec::len).collect();
        m.set("cluster.load_imbalance", cluster::load_imbalance(&routed));
        // Host time the fleet driver spent outside routing and replica work.
        let driver_self_s = timed.wall_s - route_busy_s - pass.busy_ns() as f64 / 1e9;
        fleet_metrics(&mut m, &timed.result, driver_self_s);
        replica_metrics(&mut m, workload, &pass);
        let plans = lock(&timers.plans);
        m.set("pat_core.plan_calls", plans.busy_ns.len() as f64);
        m.set("pat_core.plan_busy_s", plans.total_ns as f64 / 1e9);
        m.set("pat_core.plan_p99_us", percentile_us(&plans.busy_ns, 99.0));
        m.set("pat_core.plan_frozen", plans.frozen as f64);
        m.set("pat_core.plan_delta", plans.delta as f64);
        m.set("pat_core.plan_cold", plans.cold as f64);
        iterations.push(m);
    }
    par::set_thread_override(None);
    if approximate {
        println!(
            "{}: replica pass is approximate: failover moves requests between replicas",
            workload.name()
        );
    }
    let m = Metrics::medians(&iterations);
    let get = |name| m.get(name).unwrap_or(0.0);
    let replica_busy_s =
        get("serving.step_busy_s") + get("replica_fidelity.analytical_step_busy_s");
    println!(
        "{}: one thread, medians over {} iterations: route {:.4} s + replica steps {:.4} s \
         + driver self {:.4} s; tracing overhead {:.4} s",
        workload.name(),
        iterations.len(),
        get("cluster.route_busy_s"),
        replica_busy_s,
        get("cluster.driver_self_s") + get("controller.driver_self_s"),
        get("trace.overhead_s"),
    );
    Ok((m, checker.tally))
}

fn secs(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

/// Metrics read from the fleet driver's result. A layer that fleet driver
/// does not have reads 0.
fn fleet_metrics(m: &mut Metrics, result: &FleetResult, driver_self_s: f64) {
    match result {
        FleetResult::Cluster(r) => {
            m.set("cluster.driver_self_s", driver_self_s);
            m.set("cluster.fleet_prefix_hit_rate", r.fleet_hit_rate);
            m.set("kv_cache.preemptions", r.preemptions as f64);
            for name in [
                "controller.driver_self_s",
                "controller.failovers",
                "controller.migrations",
                "controller.refilled_tokens",
                "controller.scale_events",
                "controller.shed",
                "kv_transfer.transfers",
                "kv_transfer.mib",
                "kv_transfer.nic_wait_ms",
            ] {
                m.set(name, 0.0);
            }
        }
        FleetResult::Controller(r) => {
            m.set("cluster.driver_self_s", 0.0);
            m.set("cluster.fleet_prefix_hit_rate", 0.0);
            m.set("kv_cache.preemptions", r.preemptions as f64);
            m.set("controller.driver_self_s", driver_self_s);
            m.set("controller.failovers", r.failovers as f64);
            m.set("controller.migrations", r.migrations as f64);
            m.set(
                "controller.refilled_tokens",
                r.refilled_prefill_tokens as f64,
            );
            m.set(
                "controller.scale_events",
                (r.scale_ups + r.scale_downs) as f64,
            );
            m.set("controller.shed", r.shed as f64);
            m.set("kv_transfer.transfers", r.kv_transfers as f64);
            m.set(
                "kv_transfer.mib",
                r.kv_transfer_bytes as f64 / f64::from(1u32 << 20),
            );
            m.set(
                "kv_transfer.nic_wait_ms",
                r.kv_transfer_nic_wait_ns as f64 / 1e6,
            );
        }
    }
}

/// Metrics of the standalone replica pass. Exact replicas load the serving,
/// attn-kernel and kv-cache layers; analytical ones only their own step.
fn replica_metrics(m: &mut Metrics, workload: Workload, pass: &replay::ReplicaPass) {
    let analytical = workload.fidelity() == Fidelity::Analytical;
    let (exact_steps, analytical_steps): (&[u64], &[u64]) = if analytical {
        (&[], &pass.step_ns)
    } else {
        (&pass.step_ns, &[])
    };
    m.set(
        "replica_fidelity.analytical_steps",
        analytical_steps.len() as f64,
    );
    m.set(
        "replica_fidelity.analytical_step_busy_s",
        secs(analytical_steps),
    );
    m.set(
        "replica_fidelity.analytical_step_p99_us",
        percentile_us(analytical_steps, 99.0),
    );

    let exact = |v: f64| if analytical { 0.0 } else { v };
    let decode_steps: usize = pass.results.iter().map(|r| r.decode_steps).sum();
    let batch_steps: f64 = pass
        .results
        .iter()
        .map(|r| r.mean_batch * r.decode_steps as f64)
        .sum();
    let preemptions: u64 = pass.results.iter().map(|r| r.preemptions).sum();
    m.set("serving.steps", exact_steps.len() as f64);
    m.set("serving.step_busy_s", secs(exact_steps));
    m.set("serving.step_p50_us", percentile_us(exact_steps, 50.0));
    m.set("serving.step_p99_us", percentile_us(exact_steps, 99.0));
    m.set(
        "serving.mean_batch",
        exact(ratio(batch_steps, decode_steps as f64)),
    );
    m.set("serving.preemptions", exact(preemptions as f64));
    m.set(
        "serving.step_self_s",
        exact(secs(exact_steps) - pass.plan_ns as f64 / 1e9),
    );

    let (hits, misses) = pass.results.iter().fold((0u64, 0u64), |(h, s), r| {
        (h + r.step_sim.hits, s + r.step_sim.misses)
    });
    m.set(
        "attn_kernel.step_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("attn_kernel.kernel_sims", pass.miss_steps as f64);
    m.set(
        "attn_kernel.us_per_kernel_sim",
        ratio(pass.miss_self_ns as f64 / 1e3, pass.miss_steps as f64),
    );
    let (hit_tokens, miss_tokens) = pass.cache_tokens;
    m.set(
        "kv_cache.prefix_hit_rate",
        ratio(hit_tokens as f64, (hit_tokens + miss_tokens) as f64),
    );
}

/// Prints `workload seed digest` lines for traces `0..count` of every
/// workload, at one worker thread, in the format of `digests.txt`.
pub fn record_digests(count: u64) {
    par::set_thread_override(Some(1));
    for workload in Workload::ALL {
        for seed in 0..count {
            for k in 0..SUBTRACES {
                let r = rep(workload, workload.size(), seed, k, None);
                assert!(r.result.accounting().balanced(), "unbalanced accounting");
                println!(
                    "{} {} {:016x}",
                    workload.name(),
                    sub_seed(seed, k),
                    r.result.digest()
                );
            }
        }
    }
}

//! Self-tests of the benchmark: wrapper faithfulness, thread-count
//! invariance of the payload digest, the replica pass, and the metric
//! declarations. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use crate::report::{END_TO_END, PER_LAYER};
use crate::timed::{lock, PlanLog, RouteLog, Shared, TimedAttention, TimedRouter};
use crate::workload::{lazy_pat, FleetResult, Workload};
use crate::{digest_table, parse, replay, run};
use pat_core::LazyPat;
use sim_core::par;

const SEED: u64 = 7;

fn plain(workload: Workload) -> FleetResult {
    let size = workload.tiny();
    let requests = workload.trace(SEED, size);
    workload.build(size, |r| r, lazy_pat).run(&requests)
}

fn timed(workload: Workload) -> (FleetResult, Shared<RouteLog>, Shared<PlanLog>) {
    let size = workload.tiny();
    let requests = workload.trace(SEED, size);
    let (routes, plans): (Shared<RouteLog>, Shared<PlanLog>) = Default::default();
    let (r, p) = (routes.clone(), plans.clone());
    let result = workload
        .build(
            size,
            |inner| Box::new(TimedRouter::new(inner, r)),
            move || Box::new(TimedAttention::new(Box::new(LazyPat::new()), p.clone())),
        )
        .run(&requests);
    (result, routes, plans)
}

#[test]
fn timing_wrappers_delegate_faithfully() {
    for workload in Workload::ALL {
        let reference = plain(workload);
        let (wrapped, routes, plans) = timed(workload);
        assert_eq!(
            reference.digest(),
            wrapped.digest(),
            "{}: wrapping changed the payload",
            workload.name()
        );
        assert!(reference.accounting().balanced());
        let routes = lock(&routes);
        assert!(routes.busy_ns.len() >= workload.tiny().requests);
        let plans = lock(&plans);
        let exact = workload.fidelity() == replica_fidelity::Fidelity::Exact;
        assert_eq!(!plans.busy_ns.is_empty(), exact, "{}", workload.name());
        assert_eq!(
            plans.frozen + plans.delta + plans.cold,
            plans.busy_ns.len() as u64
        );
    }
}

#[test]
fn digest_is_identical_at_one_and_two_threads() {
    for workload in Workload::ALL {
        par::set_thread_override(Some(1));
        let one = plain(workload).digest();
        par::set_thread_override(Some(2));
        let two = plain(workload).digest();
        par::set_thread_override(None);
        assert_eq!(one, two, "{}", workload.name());
    }
}

#[test]
fn digest_tells_traces_apart() {
    let w = Workload::PrefixFleet;
    let size = w.tiny();
    let a = plain(w).digest();
    let other = w.trace(SEED + 1, size);
    let b = w.build(size, |r| r, lazy_pat).run(&other).digest();
    assert_ne!(a, b);
}

#[test]
fn replica_pass_reproduces_the_cluster_bit_for_bit() {
    let w = Workload::PrefixFleet;
    let requests = w.trace(SEED, w.tiny());
    let (result, routes, _) = timed(w);
    let FleetResult::Cluster(cluster) = &result else {
        panic!("prefix_fleet runs under cluster::Cluster")
    };
    let split = replay::split(&requests, &lock(&routes).choices);
    let pass = replay::run(w.fidelity(), &w.engine(), &split);
    replay::check_matches_cluster(&pass, cluster).expect("replica pass must match");
    assert!(!pass.step_ns.is_empty());

    // A pass over a different split describes other work and must fail.
    let mut moved = split.clone();
    let donor = moved
        .iter()
        .position(|r| r.len() > 1)
        .expect("a busy replica");
    let request = moved[donor].remove(0);
    let target = (donor + 1) % moved.len();
    moved[target].push(request);
    moved[target].sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    let wrong = replay::run(w.fidelity(), &w.engine(), &moved);
    assert!(replay::check_matches_cluster(&wrong, cluster).is_err());
}

#[test]
fn every_declared_metric_is_reported_for_every_workload() {
    for workload in Workload::ALL {
        let size = workload.tiny();
        let (end_to_end, tally) = run::untraced(workload, size, SEED, 0.01);
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted > 0);
        let (per_layer, tally) =
            run::traced(workload, size, SEED, 0.01).expect("replica pass must match");
        assert_eq!(tally.failed, 0);
        for (metrics, declared) in [(&end_to_end, END_TO_END), (&per_layer, PER_LAYER)] {
            for (name, _) in declared {
                assert!(
                    metrics.get(name).is_some_and(f64::is_finite),
                    "{}: {name} missing",
                    workload.name()
                );
            }
            // Panics on a missing metric.
            metrics.json(declared);
        }
        for name in ["wall_s", "sim_req_per_s", "setup_s", "peak_rss_mb"] {
            assert!(end_to_end.get(name).unwrap() > 0.0, "{name} must not be 0");
        }
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_are_well_formed_unique_and_match_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for name in &names {
        assert!(well_formed(name), "bad name `{name}`");
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "`{name}` is not declared in BENCHMARK.json"
        );
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names repeat");
    assert_eq!(
        manifest.matches("\"name\":").count(),
        count,
        "BENCHMARK.json declares names the benchmark does not report"
    );
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
    }
}

#[test]
fn command_line_is_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse(&args(
        "--workload fleet_day --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(ok.workload, Workload::FleetDay);
    assert_eq!(ok.seed, 3);
    assert!(ok.trace);
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload fleet_day --seed x --seconds 10 --trace 0",
        "--workload fleet_day --seed 3 --seconds 0 --trace 0",
        "--workload fleet_day --seed 3 --seconds 10 --trace 2",
        "--workload fleet_day --seed 3 --seconds 10",
    ] {
        assert!(parse(&args(bad)).is_err(), "{bad}");
    }
}

#[test]
fn committed_digests_cover_every_workload() {
    for workload in Workload::ALL {
        assert!(
            digest_table::lookup(workload, run::sub_seed(1, 0)).is_some(),
            "{} has no committed digests",
            workload.name()
        );
    }
}

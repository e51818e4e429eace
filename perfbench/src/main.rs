//! Host-side benchmark of the PAT fleet simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <prefix_fleet|fleet_day|failover_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (host wall clock of
//! the fleet run, simulated requests per wall-second, set-up time, peak
//! memory, completed share); with `--trace 1` the per-layer split, timed
//! from outside the program by wrappers on the trait objects the fleet
//! drivers accept. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `attempted` counts simulated requests offered over the checked runs and
//! `failed` those of runs whose payload digest or request accounting did not
//! check out. Workload definitions and the layers each one loads are
//! recorded in `BENCHMARK.json` at the repository root.

mod digest;
mod digest_table;
mod replay;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod timed;
mod workload;

use report::{host_json, result_line, END_TO_END, PER_LAYER};
use sim_core::knobs::{self, KnobScope};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <prefix_fleet|fleet_day|failover_churn> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --record-digests <seeds>";

/// The `PAT_SIM_THREADS` every measured run is pinned to. Two threads were
/// tried for `fleet_day` on a 2-vCPU VM: its run-to-run spread of `wall_s`
/// was 19-28%, against 8-10% for the one-thread workloads, and one thread
/// ran it faster. Each untraced run still executes one trace at two threads
/// to check that the payload does not depend on the worker count.
const SIM_THREADS: usize = 1;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Pins every output-affecting knob to its declared default, so the
/// payload depends only on the seed, and pins the worker count.
fn pin_knobs(threads: usize) {
    for knob in knobs::KNOBS {
        if knob.scope == KnobScope::Output {
            knobs::set_override(knob.name, Some(knob.default));
        }
    }
    knobs::set_override("PAT_SIM_THREADS", Some(&threads.to_string()));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-digests") {
        let count = argv.get(1).and_then(|c| c.parse().ok()).unwrap_or(1);
        pin_knobs(1);
        run::record_digests(count);
        return;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_knobs(SIM_THREADS);
    println!("host {}", host_json(SIM_THREADS));

    let (metrics, tally, declared) = if args.trace {
        match run::traced(args.workload, args.workload.size(), args.seed, args.seconds) {
            Ok((m, t)) => (m, t, PER_LAYER),
            Err(e) => {
                eprintln!(
                    "{}: the standalone replica pass did not reproduce the fleet run, \
                     so its layer times would describe other work: {e}",
                    args.workload.name()
                );
                std::process::exit(3);
            }
        }
    } else {
        let (m, t) = run::untraced(args.workload, args.workload.size(), args.seed, args.seconds);
        (m, t, END_TO_END)
    };
    print!("{}", metrics.lines(declared));
    println!(
        "{}: {} checked runs, {} matched committed digests",
        args.workload.name(),
        tally.reps,
        tally.recorded_matches
    );
    println!(
        "{}",
        result_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &metrics.json(declared)
        )
    );
}

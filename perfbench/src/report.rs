//! Metric declarations, host information and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.requests", "count"),
    ("cluster.route_calls", "count"),
    ("cluster.route_busy_s", "s"),
    ("cluster.route_p99_us", "us"),
    ("cluster.route_prefix_share", "ratio"),
    ("cluster.fleet_prefix_hit_rate", "ratio"),
    ("cluster.load_imbalance", "ratio"),
    ("cluster.driver_self_s", "s"),
    ("controller.driver_self_s", "s"),
    ("controller.failovers", "count"),
    ("controller.migrations", "count"),
    ("controller.refilled_tokens", "count"),
    ("controller.scale_events", "count"),
    ("controller.shed", "count"),
    ("kv_transfer.transfers", "count"),
    ("kv_transfer.mib", "MiB"),
    ("kv_transfer.nic_wait_ms", "ms"),
    ("replica_fidelity.analytical_steps", "count"),
    ("replica_fidelity.analytical_step_busy_s", "s"),
    ("replica_fidelity.analytical_step_p99_us", "us"),
    ("serving.steps", "count"),
    ("serving.step_busy_s", "s"),
    ("serving.step_p50_us", "us"),
    ("serving.step_p99_us", "us"),
    ("serving.mean_batch", "count"),
    ("serving.preemptions", "count"),
    ("serving.step_self_s", "s"),
    ("attn_kernel.step_cache_hit_rate", "ratio"),
    ("attn_kernel.kernel_sims", "count"),
    ("attn_kernel.us_per_kernel_sim", "us"),
    ("pat_core.plan_calls", "count"),
    ("pat_core.plan_busy_s", "s"),
    ("pat_core.plan_p99_us", "us"),
    ("pat_core.plan_frozen", "count"),
    ("pat_core.plan_delta", "count"),
    ("pat_core.plan_cold", "count"),
    ("kv_cache.prefix_hit_rate", "ratio"),
    ("kv_cache.preemptions", "count"),
    ("trace.overhead_s", "s"),
];

/// The metrics of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared metric name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not declared"
        );
        self.0.insert(name, value);
    }

    /// The median of each metric over `runs`.
    pub fn medians(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        if let Some(first) = runs.first() {
            for &name in first.0.keys() {
                let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
                out.set(name, median(&values));
            }
        }
        out
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `"name": {"value": v, "unit": u}` entries for every metric of
    /// `declared`, in declared order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never recorded.
    pub fn json(&self, declared: &[(&str, &str)]) -> String {
        let entries: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not recorded"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// One `name value unit` line per metric of `declared`.
    pub fn lines(&self, declared: &[(&str, &str)]) -> String {
        declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(f64::NAN);
                format!("  {name:<42} {value:>16.6} {unit}\n")
            })
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// JSON has no NaN or infinity; a non-finite value (a ratio over nothing)
/// prints as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Host facts recorded with every result: core count, CPU model, the pinned
/// worker count, the output-affecting knob snapshot the repository's
/// artifacts embed, and the performance-only knobs that snapshot excludes.
pub fn host_json(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let snapshot = sim_core::knobs::snapshot();
    let perf: Vec<String> = snapshot
        .values
        .iter()
        .filter(|v| v.scope == sim_core::knobs::KnobScope::PerfOnly)
        .map(|v| format!("\"{}\":\"{}\"", v.name, v.value))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"sim_threads\": {threads}, \
         \"knobs\": {}, \"perf_knobs\": {{{}}}}}",
        snapshot.artifact_json(),
        perf.join(",")
    )
}

/// Peak resident memory of this process in megabytes (10^6 bytes), from
/// the kernel's high-water mark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The median of `samples` (the mean of the middle pair for even counts);
/// 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of nanosecond samples, in
/// microseconds; 0 for none.
pub fn percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

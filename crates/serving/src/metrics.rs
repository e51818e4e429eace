//! Serving metrics: TTFT, TPOT, completion latency (§8.2).
//!
//! The statistics primitives live in [`sim_core::stats`]; this module keeps
//! the serving-specific record types and re-exports [`percentile`] for the
//! crates that aggregate on top of serving runs.

use serde::Serialize;
use sim_core::stats::Samples;
use sim_core::SimTime;

pub use sim_core::stats::percentile;

/// Per-request latency record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RequestMetrics {
    /// Id of the completed request (from [`workloads::Request::id`]).
    pub request_id: u64,
    /// Time to first token, ns.
    pub ttft_ns: f64,
    /// Mean time per output token after the first, ns (0 for single-token
    /// outputs).
    pub tpot_ns: f64,
    /// Total completion latency (arrival → last token), ns.
    pub completion_ns: f64,
    /// Output tokens produced.
    pub decode_tokens: usize,
}

impl RequestMetrics {
    /// The record of a request that finished with its prefill at `now`:
    /// its single token is both the first and the last.
    pub fn prefill_only(request_id: u64, arrival: SimTime, now: SimTime) -> Self {
        let latency = (now - arrival).as_ns_f64();
        RequestMetrics {
            request_id,
            ttft_ns: latency,
            tpot_ns: 0.0,
            completion_ns: latency,
            decode_tokens: 1,
        }
    }

    /// The record of a request that produced `produced` tokens, the first
    /// at `first_token` and the last at `now`. TPOT spreads the decode time
    /// over `max(produced − 1, 1)` inter-token gaps.
    pub fn decoded(
        request_id: u64,
        arrival: SimTime,
        first_token: SimTime,
        now: SimTime,
        produced: usize,
    ) -> Self {
        let gaps = produced.saturating_sub(1).max(1) as f64;
        RequestMetrics {
            request_id,
            ttft_ns: (first_token - arrival).as_ns_f64(),
            tpot_ns: (now - first_token).as_ns_f64() / gaps,
            completion_ns: (now - arrival).as_ns_f64(),
            decode_tokens: produced,
        }
    }
}

/// Aggregates over completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct AggregateMetrics {
    /// Mean time to first token, ms.
    pub mean_ttft_ms: f64,
    /// 99th-percentile time to first token, ms.
    pub p99_ttft_ms: f64,
    /// Mean time per output token, ms.
    pub mean_tpot_ms: f64,
    /// 99th-percentile per-request TPOT, ms.
    pub p99_tpot_ms: f64,
    /// Mean request completion latency, ms.
    pub mean_completion_ms: f64,
    /// Number of completed requests.
    pub completed: usize,
}

impl AggregateMetrics {
    /// Aggregates a set of per-request records. Every field is 0 (never
    /// NaN) when `requests` is empty or when no request decoded more than
    /// one token. Each sample vector is sorted exactly once.
    pub fn from_requests(requests: &[RequestMetrics]) -> Self {
        let ttfts = Samples::new(requests.iter().map(|r| r.ttft_ns).collect());
        let completions = Samples::new(requests.iter().map(|r| r.completion_ns).collect());
        let tpots = Samples::new(
            requests
                .iter()
                .filter(|r| r.decode_tokens > 1)
                .map(|r| r.tpot_ns)
                .collect(),
        );
        AggregateMetrics {
            mean_ttft_ms: ttfts.mean() / 1e6,
            p99_ttft_ms: ttfts.percentile(0.99) / 1e6,
            mean_tpot_ms: tpots.mean() / 1e6,
            p99_tpot_ms: tpots.percentile(0.99) / 1e6,
            mean_completion_ms: completions.mean() / 1e6,
            completed: requests.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(ttft: f64, tpot: f64, tokens: usize) -> RequestMetrics {
        RequestMetrics {
            request_id: 0,
            ttft_ns: ttft,
            tpot_ns: tpot,
            completion_ns: ttft + tpot * tokens as f64,
            decode_tokens: tokens,
        }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let reqs = vec![rm(1e6, 2e6, 10), rm(3e6, 4e6, 10)];
        let agg = AggregateMetrics::from_requests(&reqs);
        assert!((agg.mean_ttft_ms - 2.0).abs() < 1e-9);
        assert!((agg.mean_tpot_ms - 3.0).abs() < 1e-9);
        assert!((agg.p99_tpot_ms - 4.0).abs() < 1e-9);
        assert_eq!(agg.completed, 2);
    }

    #[test]
    fn p99_picks_the_tail() {
        let mut reqs: Vec<RequestMetrics> = (1..=100).map(|i| rm(0.0, i as f64 * 1e6, 5)).collect();
        let agg = AggregateMetrics::from_requests(&reqs);
        assert!((agg.p99_tpot_ms - 99.0).abs() < 1e-9);
        reqs.truncate(10);
        let agg = AggregateMetrics::from_requests(&reqs);
        assert!((agg.p99_tpot_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_token_requests_do_not_pollute_tpot() {
        let reqs = vec![rm(1e6, 0.0, 1), rm(1e6, 5e6, 10)];
        let agg = AggregateMetrics::from_requests(&reqs);
        assert!((agg.mean_tpot_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_zeroes() {
        let agg = AggregateMetrics::from_requests(&[]);
        assert_eq!(agg.completed, 0);
        assert_eq!(agg.mean_tpot_ms, 0.0);
    }

    /// No input shape may produce NaN: empty runs, single-request runs, and
    /// all-single-token runs (empty TPOT sample with non-empty TTFT sample)
    /// must all aggregate to finite numbers.
    #[test]
    fn aggregates_are_never_nan() {
        for reqs in [
            vec![],
            vec![rm(2e6, 0.0, 1)],
            vec![rm(2e6, 0.0, 1), rm(4e6, 0.0, 1)],
            vec![rm(1e6, 3e6, 8)],
        ] {
            let agg = AggregateMetrics::from_requests(&reqs);
            for v in [
                agg.mean_ttft_ms,
                agg.p99_ttft_ms,
                agg.mean_tpot_ms,
                agg.p99_tpot_ms,
                agg.mean_completion_ms,
            ] {
                assert!(v.is_finite(), "{agg:?} contains a non-finite field");
            }
        }
    }

    #[test]
    fn percentile_is_guarded_and_exact() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[5.0], 0.0), 5.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn p99_ttft_picks_the_tail() {
        let reqs: Vec<RequestMetrics> = (1..=100).map(|i| rm(i as f64 * 1e6, 0.0, 5)).collect();
        let agg = AggregateMetrics::from_requests(&reqs);
        assert!((agg.p99_ttft_ms - 99.0).abs() < 1e-9);
    }

    /// O(n²) nearest-rank reference, defined without sorting: the smallest
    /// sample value that at least `ceil(q·n)` samples are ≤ to.
    fn naive_percentile(values: &[f64], q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let need = sim_core::cast::f64_to_usize((values.len() as f64 * q).ceil()).max(1);
        values
            .iter()
            .copied()
            .filter(|&v| values.iter().filter(|&&x| x <= v).count() >= need)
            .fold(f64::INFINITY, f64::min)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The sort-once [`Samples`] path and the one-shot [`percentile`]
        /// both match the quadratic reference on arbitrary samples for every
        /// quantile the repo's metrics actually query.
        #[test]
        fn percentile_matches_naive_reference(
            values in proptest::collection::vec(0.0f64..1e9, 0..64),
        ) {
            let samples = Samples::new(values.clone());
            for q in [0.0, 0.5, 0.99, 1.0] {
                let reference = naive_percentile(&values, q);
                proptest::prop_assert_eq!(samples.percentile(q), reference, "Samples, q={}", q);
                proptest::prop_assert_eq!(percentile(&values, q), reference, "one-shot, q={}", q);
            }
        }
    }
}

//! Statistical models of the paper's four real-world traces (§3.1, §8.2).
//!
//! The originals (Mooncake's toolagent/conversation, Alibaba's Qwen-A/B) are
//! proprietary; the generators below are matched to the published
//! characteristics — prefix ratios of 51.9–75.0% (Fig. 4), the conversation
//! trace's three-level system prefix (lengths ≈ 46/348/2123 with randomized
//! language and country fields), toolagent's task-specific system prompts
//! (~59% cache hit rate), and heavy template reuse in Qwen-B.

use crate::arrival::PoissonArrivals;
use crate::requests::{PromptSpec, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which trace to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Tool/agent interaction workload (Mooncake).
    ToolAgent,
    /// Online conversation workload: Meta-AI system instruction + burstgpt
    /// prompts.
    Conversation,
    /// Online API service (Qwen-A).
    QwenA,
    /// Task automation with API calling (Qwen-B).
    QwenB,
}

impl TraceKind {
    /// All four traces in Fig. 4 order.
    pub fn all() -> [TraceKind; 4] {
        [
            TraceKind::ToolAgent,
            TraceKind::Conversation,
            TraceKind::QwenA,
            TraceKind::QwenB,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::ToolAgent => "toolagent",
            TraceKind::Conversation => "conversation",
            TraceKind::QwenA => "qwen-a",
            TraceKind::QwenB => "qwen-b",
        }
    }

    /// The prefix ratio the paper reports for this trace (Fig. 4, approx.).
    pub fn paper_prefix_ratio(&self) -> f64 {
        match self {
            TraceKind::ToolAgent => 0.59,
            TraceKind::Conversation => 0.75,
            TraceKind::QwenA => 0.52,
            TraceKind::QwenB => 0.70,
        }
    }
}

/// Trace generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Which trace to model.
    pub kind: TraceKind,
    /// Mean request rate, req/s.
    pub rate_per_s: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Segment-id namespaces (keeps shared segments distinct across traces).
const NS_SYSTEM: u64 = 1 << 40;
const NS_LANG: u64 = 2 << 40;
const NS_COUNTRY: u64 = 3 << 40;
const NS_TOOL: u64 = 4 << 40;
const NS_TEMPLATE: u64 = 5 << 40;
const NS_MID: u64 = 6 << 40;
const NS_UNIQUE: u64 = 7 << 40;

/// Generates the request stream for a trace.
///
/// # Examples
///
/// ```
/// use workloads::{generate_trace, TraceConfig, TraceKind};
///
/// let requests = generate_trace(TraceConfig {
///     kind: TraceKind::Conversation,
///     rate_per_s: 4.0,
///     duration_s: 30.0,
///     seed: 1,
/// });
/// assert!(!requests.is_empty());
/// // Every conversation request starts with the same 46-token segment.
/// let first = requests[0].prompt.segments[0];
/// assert!(requests.iter().all(|r| r.prompt.segments[0] == first));
/// ```
pub fn generate_trace(cfg: TraceConfig) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let arrivals = PoissonArrivals::new(cfg.rate_per_s).take_until(cfg.duration_s, &mut rng);
    build_requests(cfg.kind, &arrivals, &mut rng)
}

/// Generates a trace's prompts over an externally supplied arrival process
/// (e.g. [`BurstyArrivals`](crate::BurstyArrivals) or
/// [`DiurnalArrivals`](crate::DiurnalArrivals)): same prompt models as
/// [`generate_trace`], but the caller controls when requests land.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted ascending.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use workloads::{generate_trace_at, Burst, BurstyArrivals, TraceKind};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let arrivals = BurstyArrivals::new(
///     8.0,
///     vec![Burst { start_s: 5.0, end_s: 10.0, multiplier: 4.0 }],
/// )
/// .take_until(15.0, &mut rng);
/// let requests = generate_trace_at(TraceKind::ToolAgent, &arrivals, 2);
/// assert_eq!(requests.len(), arrivals.len());
/// ```
pub fn generate_trace_at(kind: TraceKind, arrivals: &[f64], seed: u64) -> Vec<Request> {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    build_requests(kind, arrivals, &mut rng)
}

fn build_requests(kind: TraceKind, arrivals: &[f64], rng: &mut StdRng) -> Vec<Request> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival_s)| {
            let id = i as u64;
            let (prompt, decode_tokens) = match kind {
                TraceKind::ToolAgent => toolagent_prompt(id, rng),
                TraceKind::Conversation => conversation_prompt(id, rng),
                TraceKind::QwenA => qwen_a_prompt(id, rng),
                TraceKind::QwenB => qwen_b_prompt(id, rng),
            };
            Request {
                id,
                arrival_s,
                prompt,
                decode_tokens,
            }
        })
        .collect()
}

/// Zipf-like pick over `n` choices (popularity ~ 1/(rank+1)).
fn zipf_pick<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut x = rng.gen_range(0.0..total);
    for k in 0..n {
        x -= 1.0 / (k + 1) as f64;
        if x <= 0.0 {
            return k;
        }
    }
    n - 1
}

/// Tool/agent workloads: one of 24 task-specific system prompts (Zipf
/// popularity, 800–3200 tokens) plus a unique task description.
fn toolagent_prompt<R: Rng + ?Sized>(id: u64, rng: &mut R) -> (PromptSpec, usize) {
    let tool = zipf_pick(rng, 24) as u64;
    // Deterministic per-tool prompt length in [600, 2200).
    let tool_len = 600 + ((tool * 2654435761) % 1600) as usize;
    let unique_len = rng.gen_range(300..1500);
    let decode = rng.gen_range(64..256);
    (
        PromptSpec::from_parts([(NS_TOOL | tool, tool_len), (NS_UNIQUE | id, unique_len)]),
        decode,
    )
}

/// Conversation: the Meta-AI instruction as a three-level prefix — 46 shared
/// tokens, +302 per language, +1775 per (language, country) — followed by a
/// burstgpt-like user prompt.
fn conversation_prompt<R: Rng + ?Sized>(id: u64, rng: &mut R) -> (PromptSpec, usize) {
    let lang = zipf_pick(rng, 8) as u64;
    let country = zipf_pick(rng, 4) as u64;
    let user_len = (rng.gen_range(30.0f64..60.0) * rng.gen_range(1.0f64..12.0)) as usize;
    let decode = rng.gen_range(64..512);
    (
        PromptSpec::from_parts([
            (NS_SYSTEM, 46),
            (NS_LANG | lang, 302),
            (NS_COUNTRY | (lang * 16 + country), 1775),
            (NS_UNIQUE | id, user_len.max(16)),
        ]),
        decode,
    )
}

/// Qwen-A (online API service): about half the requests reuse one of 16
/// mid-sized API prefixes; the rest are mostly unique.
fn qwen_a_prompt<R: Rng + ?Sized>(id: u64, rng: &mut R) -> (PromptSpec, usize) {
    let decode = rng.gen_range(32..256);
    if rng.gen_bool(0.62) {
        let api = zipf_pick(rng, 16) as u64;
        let api_len = 768 + ((api * 40503) % 768) as usize;
        let unique = rng.gen_range(200..1000);
        (
            PromptSpec::from_parts([(NS_MID | api, api_len), (NS_UNIQUE | id, unique)]),
            decode,
        )
    } else {
        let unique = rng.gen_range(400..2000);
        (PromptSpec::from_parts([(NS_UNIQUE | id, unique)]), decode)
    }
}

/// Qwen-B (task automation): heavy template reuse — one of 8 long templates
/// plus a short unique payload.
fn qwen_b_prompt<R: Rng + ?Sized>(id: u64, rng: &mut R) -> (PromptSpec, usize) {
    let template = zipf_pick(rng, 8) as u64;
    let template_len = 2400 + ((template * 104729) % 1200) as usize;
    let unique = rng.gen_range(200..1400);
    let decode = rng.gen_range(32..192);
    (
        PromptSpec::from_parts([
            (NS_TEMPLATE | template, template_len),
            (NS_UNIQUE | id, unique),
        ]),
        decode,
    )
}

/// Replays a trace's prompts through a prefix cache and reports the
/// token-level prefix ratio (the Fig. 4 measurement).
pub fn measure_prefix_ratio(requests: &[Request]) -> f64 {
    let blocks_needed: usize = requests
        .iter()
        .map(|r| r.prompt.total_tokens() / 16 + 2)
        .sum::<usize>();
    let mut cache = kv_cache::CacheManager::new(blocks_needed, 16);
    for r in requests {
        // The table is dropped unfreed: its blocks stay referenced, so
        // nothing is evicted and every later prompt can hit them.
        #[expect(clippy::expect_used, reason = "the pool is sized to hold every prompt")]
        cache
            .insert_sequence(&r.prompt.to_tokens())
            .expect("sized to fit");
    }
    cache.stats().hit_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: TraceKind) -> TraceConfig {
        TraceConfig {
            kind,
            rate_per_s: 10.0,
            duration_s: 60.0,
            seed: 42,
        }
    }

    #[test]
    fn prefix_ratios_land_near_paper_values() {
        for kind in TraceKind::all() {
            let requests = generate_trace(cfg(kind));
            let ratio = measure_prefix_ratio(&requests);
            let paper = kind.paper_prefix_ratio();
            assert!(
                (ratio - paper).abs() < 0.15,
                "{}: measured {ratio:.3}, paper ~{paper:.2}",
                kind.name()
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = generate_trace(cfg(TraceKind::ToolAgent));
        let b = generate_trace(cfg(TraceKind::ToolAgent));
        assert_eq!(a, b);
        let c = generate_trace(TraceConfig {
            seed: 43,
            ..cfg(TraceKind::ToolAgent)
        });
        assert_ne!(a, c);
    }

    #[test]
    fn conversation_has_three_prefix_levels() {
        let requests = generate_trace(cfg(TraceKind::Conversation));
        for r in &requests {
            assert_eq!(r.prompt.segments.len(), 4);
            assert_eq!(r.prompt.segments[0].tokens, 46);
            assert_eq!(r.prompt.segments[1].tokens, 302);
            assert_eq!(r.prompt.segments[2].tokens, 1775);
        }
        // Total three-level prefix length matches the paper's ~2123 tokens.
        let prefix: usize = requests[0].prompt.segments[..3]
            .iter()
            .map(|s| s.tokens)
            .sum();
        assert_eq!(prefix, 2123);
    }

    #[test]
    fn toolagent_reuses_tools_across_requests() {
        let requests = generate_trace(cfg(TraceKind::ToolAgent));
        let mut tool_ids: Vec<u64> = requests.iter().map(|r| r.prompt.segments[0].id).collect();
        tool_ids.sort_unstable();
        tool_ids.dedup();
        assert!(tool_ids.len() <= 24);
        assert!(tool_ids.len() >= 8, "popular tools recur");
        assert!(requests.len() > tool_ids.len() * 4);
    }

    #[test]
    fn request_rate_is_respected() {
        let requests = generate_trace(cfg(TraceKind::QwenB));
        let rate = requests.len() as f64 / 60.0;
        assert!((rate - 10.0).abs() < 2.0);
    }
}

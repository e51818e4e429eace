//! Routing policies: which replica serves an arriving request.
//!
//! Routers see a read-only [`ReplicaView`] of every replica — load counters
//! and a prefix-overlap probe against the replica's prefix residency — and
//! pick a replica index. The probes are strictly read-only (no LRU
//! perturbation), so a router's observations never change any replica's
//! behavior; only its placement decision does. Views are fidelity-agnostic:
//! they wrap any [`ReplicaModel`], so the same policies route over exact
//! and analytical replicas (and mixes of them) unchanged.

use kv_cache::PrefixProbe;
use replica_fidelity::ReplicaModel;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use workloads::Request;

/// Lifecycle state of a replica, as a fleet control plane sees it.
///
/// Routers receive the state alongside each [`ReplicaView`] and must only
/// place requests on *routable* replicas: [`Healthy`](ReplicaState::Healthy)
/// and [`Degraded`](ReplicaState::Degraded) accept traffic (a degraded
/// replica is slow but alive), while [`Draining`](ReplicaState::Draining)
/// finishes its in-flight work before retiring and
/// [`Dead`](ReplicaState::Dead) serves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicaState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Alive but slowed (straggler); still routable.
    Degraded,
    /// Graceful scale-down: finishes existing work, accepts nothing new.
    Draining,
    /// Crashed or retired: not serving, KV cache lost.
    Dead,
}

impl ReplicaState {
    /// Whether a router may place new requests on a replica in this state.
    pub fn is_routable(self) -> bool {
        matches!(self, ReplicaState::Healthy | ReplicaState::Degraded)
    }
}

/// Serving role of a replica in a (possibly disaggregated) fleet.
///
/// A unified fleet runs every replica as [`Unified`](ReplicaRole::Unified).
/// Disaggregated serving splits the fleet: [`Prefill`](ReplicaRole::Prefill)
/// replicas compute prompt KV and stream it out over the KV movement plane;
/// [`Decode`](ReplicaRole::Decode) replicas ingest that KV and run the decode
/// batches. Roles are a control-plane axis, not an engine capability — every
/// engine *can* do both; the controller routes each phase only over
/// replicas that serve it, showing the rest to the router as
/// [`ReplicaState::Dead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ReplicaRole {
    /// Serves both prefill and decode (the non-disaggregated default).
    #[default]
    Unified,
    /// Prefill-only: computes prompt KV, never holds decode batches.
    Prefill,
    /// Decode-only: admits requests whose prompt KV arrives pre-computed.
    Decode,
}

impl ReplicaRole {
    /// Whether a replica of this role may serve work of role `wanted`.
    /// Unified replicas serve everything; specialized replicas serve only
    /// their own phase.
    pub(crate) fn serves(self, wanted: ReplicaRole) -> bool {
        self == ReplicaRole::Unified || self == wanted
    }
}

/// Read-only snapshot of one replica, as exposed to routers.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaView<'a> {
    model: &'a dyn ReplicaModel,
    state: ReplicaState,
}

impl<'a> ReplicaView<'a> {
    /// A view of `model` in lifecycle `state`.
    pub fn new(model: &'a dyn ReplicaModel, state: ReplicaState) -> Self {
        ReplicaView { model, state }
    }

    /// The replica's lifecycle state.
    pub fn state(&self) -> ReplicaState {
        self.state
    }

    /// Requests routed here that have not finished (queued, prefilling,
    /// decoding, or not yet admitted).
    pub fn outstanding(&self) -> usize {
        self.model.outstanding()
    }

    /// Requests admitted but not yet decoding.
    pub fn queue_depth(&self) -> usize {
        self.model.queue_depth()
    }

    /// Requests currently decoding.
    pub fn num_active(&self) -> usize {
        self.model.num_active()
    }

    /// The replica's KV block size in tokens.
    pub fn block_size(&self) -> usize {
        self.model.block_size()
    }

    /// How many leading tokens of the probed prompt this replica's KV cache
    /// would serve without recomputation. Read-only: never touches cache
    /// recency. Share one probe across views to hash the prompt once.
    pub fn prefix_overlap(&self, probe: &mut PrefixProbe<'_>) -> usize {
        self.model.prefix_overlap(probe)
    }

    /// [`ReplicaView::prefix_overlap`] of a fresh probe of `prompt_tokens`.
    pub fn prefix_overlap_tokens(&self, prompt_tokens: &[u32]) -> usize {
        self.prefix_overlap(&mut PrefixProbe::new(prompt_tokens, self.block_size()))
    }
}

/// A request-routing policy over a fleet of replicas.
pub trait Router: std::fmt::Debug {
    /// Short policy name (used in metrics and bench output).
    fn name(&self) -> &'static str;

    /// Picks the replica (index into `replicas`) to serve `request`, or
    /// `None` when no replica is routable.
    ///
    /// Implementations must skip non-routable replicas (draining or dead —
    /// see [`ReplicaState::is_routable`]); callers decide whether to shed,
    /// queue, or fail when the whole fleet is unroutable.
    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize>;
}

/// Cycles through replicas in order, ignoring state entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Starts the cycle at replica 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        let n = replicas.len();
        for _ in 0..n {
            let pick = self.next % n;
            self.next = (self.next + 1) % n;
            if replicas[pick].state().is_routable() {
                return Some(pick);
            }
        }
        None
    }
}

/// Routes to the replica with the fewest outstanding requests (lowest index
/// on ties).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstanding;

impl LeastOutstanding {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastOutstanding
    }
}

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        least_loaded(replicas)
    }
}

fn least_loaded(replicas: &[ReplicaView<'_>]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, view) in replicas.iter().enumerate() {
        if !view.state().is_routable() {
            continue;
        }
        match best {
            Some(b) if view.outstanding() >= replicas[b].outstanding() => {}
            _ => best = Some(i),
        }
    }
    best
}

/// Consistent hashing on the request's prefix identity.
///
/// The shared prefix of a prompt is everything but its final (per-request
/// unique) segment; hashing that identity onto a ring of replica virtual
/// nodes sends all requests of one prefix family to the same replica,
/// stabilizing placements as the fleet grows or shrinks. Skewed prefix
/// popularity translates directly into load skew — the classic weakness the
/// prefix-affinity policy addresses.
#[derive(Debug, Clone)]
pub struct ConsistentHashPrefix {
    vnodes: usize,
    ring: Vec<(u64, usize)>,
    built_for: usize,
}

impl ConsistentHashPrefix {
    /// A ring with `vnodes` virtual nodes per replica.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "need at least one virtual node per replica");
        ConsistentHashPrefix {
            vnodes,
            ring: Vec::new(),
            built_for: 0,
        }
    }

    fn rebuild(&mut self, replicas: usize) {
        self.ring.clear();
        for replica in 0..replicas {
            for v in 0..self.vnodes {
                let mut h = DefaultHasher::new();
                (replica as u64, v as u64).hash(&mut h);
                self.ring.push((h.finish(), replica));
            }
        }
        self.ring.sort_unstable();
        self.built_for = replicas;
    }

    /// Identity of the request's shared prefix: all segments except the
    /// final one (the whole prompt when there is only one segment).
    fn prefix_key(request: &Request) -> u64 {
        let segments = &request.prompt.segments;
        let shared = if segments.len() > 1 {
            &segments[..segments.len() - 1]
        } else {
            segments
        };
        let mut h = DefaultHasher::new();
        for seg in shared {
            (seg.id, seg.tokens as u64).hash(&mut h);
        }
        h.finish()
    }
}

impl Default for ConsistentHashPrefix {
    fn default() -> Self {
        ConsistentHashPrefix::new(64)
    }
}

impl Router for ConsistentHashPrefix {
    fn name(&self) -> &'static str {
        "consistent-hash"
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        if self.built_for != replicas.len() {
            self.rebuild(replicas.len());
        }
        let key = Self::prefix_key(request);
        let at = self.ring.partition_point(|&(h, _)| h < key);
        // Walk the ring clockwise past vnodes of non-routable replicas, so a
        // prefix family fails over to the next replica on the ring (and
        // snaps back when its home replica recovers).
        for offset in 0..self.ring.len() {
            let replica = self.ring[(at + offset) % self.ring.len()].1;
            if replicas[replica].state().is_routable() {
                return Some(replica);
            }
        }
        None
    }
}

/// Prefix-affinity routing: probe every replica's live KV cache and score
/// `overlap_tokens − alpha · load`, where load is the replica's outstanding
/// request count. When no replica holds a useful overlap (best overlap below
/// `min_overlap_tokens`), falls back to least-loaded placement so cold
/// prefixes spread across the fleet instead of piling onto replica 0.
#[derive(Debug, Clone, Copy)]
pub struct PrefixAffinity {
    /// Tokens of cached overlap one outstanding request is worth.
    pub alpha: f64,
    /// Minimum useful overlap; below it the policy balances load instead.
    pub min_overlap_tokens: usize,
}

impl PrefixAffinity {
    /// The defaults used by the Fig. 18 experiment: one outstanding request
    /// outweighs 2048 cached tokens, and anything under one KV block (16
    /// tokens) counts as no overlap. The large `alpha` makes cache warmth a
    /// strong tiebreak among comparably loaded replicas rather than a
    /// license to skew load — decode steps are priced by batch size, so a
    /// systematically deeper replica costs more TPOT than a warm cache
    /// saves.
    pub fn new() -> Self {
        PrefixAffinity {
            alpha: 2048.0,
            min_overlap_tokens: 16,
        }
    }
}

impl Default for PrefixAffinity {
    fn default() -> Self {
        PrefixAffinity::new()
    }
}

impl Router for PrefixAffinity {
    fn name(&self) -> &'static str {
        "prefix-affinity"
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaView<'_>]) -> Option<usize> {
        let first = replicas.first()?;
        let prompt_tokens = request.prompt.to_tokens();
        let mut probe = PrefixProbe::new(&prompt_tokens, first.block_size());
        let mut best: Option<usize> = None;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_overlap = 0usize;
        for (i, view) in replicas.iter().enumerate() {
            if !view.state().is_routable() {
                continue;
            }
            let overlap = view.prefix_overlap(&mut probe);
            let score = overlap as f64 - self.alpha * view.outstanding() as f64;
            if score > best_score {
                best = Some(i);
                best_score = score;
                best_overlap = overlap;
            }
        }
        if best_overlap < self.min_overlap_tokens {
            return least_loaded(replicas);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pat_core::LazyPat;
    use replica_fidelity::{new_replica, Fidelity};
    use serving::{ModelSpec, ServingConfig};
    use workloads::PromptSpec;

    fn engines(n: usize) -> Vec<Box<dyn ReplicaModel>> {
        let config = ServingConfig::single_gpu(ModelSpec::llama3_8b());
        (0..n)
            .map(|_| new_replica(Fidelity::Exact, &config, Box::new(LazyPat::new())))
            .collect()
    }

    fn request() -> Request {
        Request {
            id: 0,
            arrival_s: 0.0,
            prompt: PromptSpec::from_parts([(1, 64)]),
            decode_tokens: 8,
        }
    }

    fn views<'a>(
        engines: &'a [Box<dyn ReplicaModel>],
        states: &[ReplicaState],
    ) -> Vec<ReplicaView<'a>> {
        engines
            .iter()
            .zip(states)
            .map(|(e, &s)| ReplicaView::new(e.as_ref(), s))
            .collect()
    }

    #[test]
    fn routable_states_are_healthy_and_degraded_only() {
        assert!(ReplicaState::Healthy.is_routable());
        assert!(ReplicaState::Degraded.is_routable());
        assert!(!ReplicaState::Draining.is_routable());
        assert!(!ReplicaState::Dead.is_routable());
    }

    #[test]
    fn round_robin_skips_dead_and_draining_replicas() {
        use ReplicaState::{Dead, Draining, Healthy};
        let engines = engines(4);
        let states = [Healthy, Dead, Draining, Healthy];
        let mut rr = RoundRobin::new();
        let picks: Vec<Option<usize>> = (0..6)
            .map(|_| rr.route(&request(), &views(&engines, &states)))
            .collect();
        assert_eq!(
            picks,
            vec![Some(0), Some(3), Some(0), Some(3), Some(0), Some(3)]
        );
    }

    #[test]
    fn least_outstanding_ignores_non_routable_replicas() {
        use ReplicaState::{Dead, Healthy};
        let mut engines = engines(3);
        // Replica 0 is dead (and idle: zero outstanding would otherwise win);
        // replica 1 carries work; replica 2 is idle and healthy.
        engines[1].submit(request());
        let states = [Dead, Healthy, Healthy];
        let mut lo = LeastOutstanding::new();
        assert_eq!(lo.route(&request(), &views(&engines, &states)), Some(2));
    }

    #[test]
    fn consistent_hash_fails_over_along_the_ring_and_snaps_back() {
        use ReplicaState::{Dead, Healthy};
        let engines = engines(4);
        let mut ch = ConsistentHashPrefix::default();
        let all_healthy = [Healthy; 4];
        let home = ch
            .route(&request(), &views(&engines, &all_healthy))
            .unwrap();
        let mut with_dead = all_healthy;
        with_dead[home] = Dead;
        let fallback = ch.route(&request(), &views(&engines, &with_dead)).unwrap();
        assert_ne!(fallback, home, "dead home replica must be skipped");
        // Deterministic fallback, and recovery snaps the family back home.
        assert_eq!(
            Some(fallback),
            ch.route(&request(), &views(&engines, &with_dead))
        );
        assert_eq!(
            Some(home),
            ch.route(&request(), &views(&engines, &all_healthy))
        );
    }

    #[test]
    fn prefix_affinity_never_picks_a_dead_replica() {
        use ReplicaState::{Dead, Healthy};
        let engines = engines(2);
        let states = [Dead, Healthy];
        let mut aff = PrefixAffinity::new();
        for _ in 0..4 {
            assert_eq!(aff.route(&request(), &views(&engines, &states)), Some(1));
        }
    }

    #[test]
    fn unified_replicas_serve_every_role() {
        use ReplicaRole::{Decode, Prefill, Unified};
        assert!(Unified.serves(Prefill) && Unified.serves(Decode));
        assert!(Prefill.serves(Prefill) && !Prefill.serves(Decode));
        assert!(Decode.serves(Decode) && !Decode.serves(Prefill));
    }

    #[test]
    fn routing_into_a_fully_dead_fleet_returns_none() {
        let engines = engines(2);
        let states = [ReplicaState::Dead, ReplicaState::Dead];
        let v = views(&engines, &states);
        assert_eq!(LeastOutstanding::new().route(&request(), &v), None);
        assert_eq!(RoundRobin::new().route(&request(), &v), None);
        assert_eq!(ConsistentHashPrefix::default().route(&request(), &v), None);
        assert_eq!(PrefixAffinity::new().route(&request(), &v), None);
    }
}

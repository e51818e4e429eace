//! The fleet controller: a deterministic control plane over a set of
//! serving-engine replicas, and the one event loop that drives every fleet.
//!
//! Steps [`ReplicaModel`] replicas behind a [`Router`] and adds the
//! operational layer a real deployment needs: injected faults
//! ([`crate::FaultPlan`]), a periodic health checker that distinguishes a
//! replica's *actual* state from what the control plane has *observed*,
//! failover that tears incomplete requests off a crashed replica and
//! replays them elsewhere (paying the cold-prefix recompute cost), an
//! SLO-aware autoscaler with graceful drain, and admission control that
//! queues or sheds load at saturation. A fixed fleet ([`crate::Cluster`]) is
//! the same loop run static and fault-free, with its own finisher.
//!
//! Everything runs on the shared [`sim_core`] spine: virtual time is
//! integer nanoseconds ([`SimTime`]), and the run is driven by a single
//! [`EventQueue`] holding arrivals, faults, restarts, speed restorations,
//! and health ticks. Idle stretches are skipped outright — the loop jumps
//! from event to event instead of polling a grid — and simultaneous events
//! resolve in a fixed order (faults, then restarts, then the tick, then
//! arrivals; same-kind ties in push order), so a run is a pure function of
//! `(config, router, fault plan, trace)` down to the bit.

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::metrics::{
    duplicated_blocks, kv_block_bytes, load_imbalance, ClusterResult, ControlEvent, ControlResult,
    ReplicaSummary, TimelineEvent,
};
use crate::router::{ReplicaRole, ReplicaState, ReplicaView, Router};
use kv_cache::{PrefixProbe, Token};
use kv_transfer::{FleetTopology, TransferKind, TransferPlane};
use pat_core::LazyPat;
use replica_fidelity::{fidelity_from_env, new_replica, Fidelity, ReplicaModel};
use serving::{AggregateMetrics, RequestMetrics, ServingAttention, ServingConfig, StepOutcome};
use sim_core::{par, EventQueue, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use workloads::Request;

/// High bit of the request-id space, reserved for the shadow prefill
/// requests a disaggregated controller mints internally (one per original
/// request). Shadow records never leak into [`ControlResult`].
const SHADOW_BIT: u64 = 1 << 63;

fn is_shadow(id: u64) -> bool {
    id & SHADOW_BIT != 0
}

fn public_id(id: u64) -> u64 {
    id & !SHADOW_BIT
}

/// Health-check / control-loop period, seconds. Crash detection latency is
/// at most one tick.
const TICK_S: f64 = 0.5;

/// Donor gain (tokens beyond what the target already holds) below which a
/// migration or prewarm transfer is not attempted.
const MIN_MIGRATION_TOKENS: usize = 32;

/// How many backlog requests the prewarm donor scan considers.
const PREWARM_CANDIDATES: usize = 8;

/// Rolling window (completions) of the autoscaler's TTFT scale-up signal.
const TTFT_WINDOW: usize = 64;

/// Prefill/decode split of a disaggregated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisaggConfig {
    /// The first `prefill_replicas` replicas are prefill-only; the rest of
    /// the initial fleet is decode-only. Autoscaled replicas join as
    /// decode-only (decode is the capacity-bound phase).
    pub prefill_replicas: usize,
}

/// KV movement policy of a fleet: the link topology plus which movements
/// the controller is allowed to make on it.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Link model between every replica pair.
    pub topology: FleetTopology,
    /// Warm-prefix migration on failover: stream the best donor's
    /// overlapping prefix blocks to the failover target instead of
    /// recomputing them — unless the cost model says recompute wins. It
    /// also prewarms: on revive/scale-up, the backlog's hottest warm prefix
    /// is pushed to the cold replica before traffic lands on it.
    pub migration: bool,
    /// Prefill/decode disaggregation; `None` keeps the fleet unified.
    pub disaggregation: Option<DisaggConfig>,
}

impl TransferConfig {
    /// Warm-prefix migration (failover + revive prewarm) over `topology`,
    /// unified fleet.
    pub fn migration(topology: FleetTopology) -> Self {
        TransferConfig {
            topology,
            migration: true,
            disaggregation: None,
        }
    }

    /// Disaggregated serving over `topology`: the first `prefill_replicas`
    /// replicas prefill and stream KV, the rest decode. Migration (with
    /// prewarm) stays off so the handoff effect can be measured alone;
    /// enable it with the field.
    pub fn disaggregated(topology: FleetTopology, prefill_replicas: usize) -> Self {
        TransferConfig {
            topology,
            migration: false,
            disaggregation: Some(DisaggConfig { prefill_replicas }),
        }
    }
}

/// SLO-aware autoscaling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerConfig {
    /// Never drain below this many routable replicas.
    pub min_replicas: usize,
    /// Never grow beyond this many live + provisioning replicas.
    pub max_replicas: usize,
    /// Scale up when mean outstanding per routable replica (counting the
    /// controller's own backlog) exceeds this.
    pub scale_up_outstanding: f64,
    /// Scale down when mean outstanding falls below this.
    pub scale_down_outstanding: f64,
    /// Seconds between a scale-up decision and the new replica serving.
    pub provision_delay_s: f64,
    /// Minimum seconds between scaling decisions.
    pub cooldown_s: f64,
}

impl AutoscalerConfig {
    /// A policy bounded to `[min_replicas, max_replicas]` with default
    /// thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min_replicas <= max_replicas`.
    pub fn new(min_replicas: usize, max_replicas: usize) -> Self {
        assert!(
            (1..=max_replicas).contains(&min_replicas),
            "need 1 <= min_replicas <= max_replicas"
        );
        AutoscalerConfig {
            min_replicas,
            max_replicas,
            scale_up_outstanding: 32.0,
            scale_down_outstanding: 4.0,
            provision_delay_s: 2.0,
            cooldown_s: 5.0,
        }
    }
}

/// Load-adaptive per-replica fidelity: hot replicas simulate exactly, cold
/// ones analytically.
///
/// At every control tick, each healthy replica whose outstanding work is at
/// least `hot_outstanding` is switched to the `hot` fidelity, and each one
/// below it to `cold`. A switch is a *cold handoff*: the replica's
/// incomplete requests are torn off (exactly as in failover) and
/// resubmitted to the fresh model, and its KV warmth is lost — which is why
/// the policy is sound for throughput/latency aggregates but should be left
/// off when studying per-request cache warmth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityPolicy {
    /// Fidelity for replicas at or above the outstanding threshold.
    pub hot: Fidelity,
    /// Fidelity for replicas below the threshold.
    pub cold: Fidelity,
    /// Outstanding-request threshold splitting hot from cold.
    pub hot_outstanding: usize,
}

impl FidelityPolicy {
    /// The canonical mix: busy replicas exact, idle-ish replicas
    /// analytical, split at 8 outstanding requests.
    pub fn hot_exact_cold_analytical() -> Self {
        FidelityPolicy {
            hot: Fidelity::Exact,
            cold: Fidelity::Analytical,
            hot_outstanding: 8,
        }
    }
}

/// Admission-control policy: queue at saturation, shed past the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Saturation threshold: admit directly while fleet outstanding stays
    /// below `max_outstanding_per_replica * routable_replicas`.
    pub max_outstanding_per_replica: usize,
    /// Controller-side buffer; arrivals beyond it are shed.
    pub max_queued: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_outstanding_per_replica: 64,
            max_queued: 256,
        }
    }
}

/// Full configuration of a controlled fleet.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Per-replica engine configuration.
    pub engine: ServingConfig,
    /// Replicas at t = 0.
    pub initial_replicas: usize,
    /// Whether the control plane health-checks replicas every tick and
    /// replays a crashed replica's incomplete work elsewhere. Off, the
    /// fleet is flown blind: routers keep addressing crashed replicas, and
    /// work in flight at a crash is lost.
    pub failover: bool,
    /// TTFT service-level objective, ms; goodput counts completions within
    /// it, measured from original arrival.
    pub slo_ttft_ms: f64,
    /// Autoscaling policy; `None` pins the fleet at `initial_replicas`.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Admission policy; `None` admits everything immediately.
    pub admission: Option<AdmissionConfig>,
    /// KV movement plane; `None` means warm KV is never moved (every
    /// failover pays full recompute, no disaggregation).
    pub transfer: Option<TransferConfig>,
    /// Fidelity every replica starts at (and crashed/scaled-up replicas
    /// rejoin at, absent a policy). `managed` and `static_fleet` default it
    /// from `PAT_REPLICA_FIDELITY` (exact when unset).
    pub fidelity: Fidelity,
    /// Load-adaptive per-replica fidelity switching; `None` keeps every
    /// replica at `fidelity` for the whole run.
    pub fidelity_policy: Option<FidelityPolicy>,
}

impl ControllerConfig {
    /// A managed fleet: health checks and failover on, no autoscaler or
    /// admission control (add them by setting the fields).
    ///
    /// # Panics
    ///
    /// Panics if `initial_replicas` is zero.
    pub fn managed(initial_replicas: usize, engine: ServingConfig) -> Self {
        assert!(initial_replicas > 0, "a fleet needs at least one replica");
        ControllerConfig {
            engine,
            initial_replicas,
            failover: true,
            slo_ttft_ms: 500.0,
            autoscaler: None,
            admission: None,
            transfer: None,
            fidelity: fidelity_from_env(),
            fidelity_policy: None,
        }
    }

    /// An unmanaged fleet of fixed size: no health checks, no failover, no
    /// autoscaling, no admission control. Requests routed to a crashed
    /// replica wait for its restart (or are lost if it never returns); work
    /// in flight at a crash is lost outright. The baseline the control
    /// plane is judged against.
    pub fn static_fleet(initial_replicas: usize, engine: ServingConfig) -> Self {
        ControllerConfig {
            failover: false,
            ..ControllerConfig::managed(initial_replicas, engine)
        }
    }
}

/// One replica slot: the replica model (which owns its attention backend,
/// when its fidelity has one) and the split between ground truth (`actual`)
/// and the control plane's belief (`observed`). Routing always uses
/// `observed`; faults mutate `actual`.
struct Replica {
    model: Box<dyn ReplicaModel>,
    actual: ReplicaState,
    observed: ReplicaState,
    /// Serving role (always `Unified` outside disaggregated mode).
    role: ReplicaRole,
    /// When a crashed (or still-provisioning) replica comes up.
    restart_at: Option<SimTime>,
    /// When a straggler's speed factor resets to 1.0.
    restore_speed_at: Option<SimTime>,
    /// Requests routed here while the replica was actually down: the
    /// control plane hasn't noticed, so from its view they are "in
    /// flight"; they surface at detection (failover) or restart (replay).
    limbo: Vec<Request>,
    /// Cursor into `model.completed_requests()` for incremental
    /// observation of completions.
    completed_seen: usize,
    /// Per-request records of previous incarnations (pre-crash engines and
    /// pre-switch fidelities).
    archived: Vec<RequestMetrics>,
    archived_preemptions: u64,
}

impl Replica {
    fn fresh(model: Box<dyn ReplicaModel>) -> Self {
        Replica {
            model,
            actual: ReplicaState::Healthy,
            observed: ReplicaState::Healthy,
            role: ReplicaRole::Unified,
            restart_at: None,
            restore_speed_at: None,
            limbo: Vec::new(),
            completed_seen: 0,
            archived: Vec::new(),
            archived_preemptions: 0,
        }
    }

    fn provisioning(model: Box<dyn ReplicaModel>, ready: SimTime) -> Self {
        let mut r = Replica::fresh(model);
        r.actual = ReplicaState::Dead;
        r.observed = ReplicaState::Dead;
        r.restart_at = Some(ready);
        r
    }
}

/// What the control plane's event queue schedules. Restart and
/// restore-speed entries are wake-ups: the authoritative due-times live on
/// the replica (`restart_at` / `restore_speed_at`), so a superseded entry
/// pops as a harmless no-op.
enum FleetEvent {
    /// Index into the fault schedule.
    Fault(usize),
    /// A crashed or provisioning replica comes up.
    Restart,
    /// A straggler's speed factor resets.
    RestoreSpeed,
    /// Periodic health-check / control-loop tick.
    Tick,
    /// Index into the request trace.
    Arrival(usize),
    /// A KV transfer's last byte arrived (id on the transfer plane).
    TransferDone(u64),
}

/// What the controller does when an in-flight transfer completes.
enum PendingTransfer {
    /// Ingest the migrated prefix at the destination, then submit the held
    /// failover request there (`donor_overlap` = tokens streamed + already
    /// resident at decision time).
    Migration { req: Request, donor_overlap: usize },
    /// Ingest the pushed prefix at the (re)joined replica; no request held.
    Prewarm { tokens: Vec<Token> },
    /// Disaggregated handoff: ingest the full prompt prefix at the decode
    /// replica, then submit the original request there.
    Handoff { req: Request },
}

/// Builds the attention backend of every replica the control plane creates.
type BackendFactory = Box<dyn FnMut() -> Box<dyn ServingAttention>>;

/// The fleet control plane. Build one per run; [`run`](FleetController::run)
/// consumes it.
pub struct FleetController {
    config: ControllerConfig,
    router: Box<dyn Router>,
    faults: FaultPlan,
    backend_factory: BackendFactory,
}

impl std::fmt::Debug for FleetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("config", &self.config)
            .field("router", &self.router)
            .field("faults", &self.faults.events().len())
            .finish_non_exhaustive()
    }
}

impl FleetController {
    /// A controller whose replicas each get a backend from `backend`.
    pub fn new(
        config: ControllerConfig,
        router: Box<dyn Router>,
        faults: FaultPlan,
        backend: impl FnMut() -> Box<dyn ServingAttention> + 'static,
    ) -> Self {
        assert!(
            config.initial_replicas > 0,
            "a fleet needs at least one replica"
        );
        FleetController {
            config,
            router,
            faults,
            backend_factory: Box::new(backend),
        }
    }

    /// A controller over PAT ([`LazyPat`]) replicas with the tile policy
    /// selected by `PAT_TILE_POLICY` (heuristic when unset) — the common
    /// case.
    pub fn with_lazy_pat(
        config: ControllerConfig,
        router: Box<dyn Router>,
        faults: FaultPlan,
    ) -> Self {
        FleetController::new(config, router, faults, || Box::new(LazyPat::from_env()))
    }

    /// Serves `requests` (sorted by arrival, unique ids) under the fault
    /// plan and returns the full accounting.
    ///
    /// # Panics
    ///
    /// Panics if requests are unsorted or ids repeat, or if the router
    /// picks a non-routable replica.
    pub fn run(self, requests: &[Request]) -> ControlResult {
        let FleetController {
            config,
            router,
            faults,
            mut backend_factory,
        } = self;
        let mut replicas: Vec<Replica> = (0..config.initial_replicas)
            .map(|_| {
                let backend = backend_factory();
                Replica::fresh(new_replica(config.fidelity, &config.engine, backend))
            })
            .collect();
        if let Some(disagg) = config.transfer.as_ref().and_then(|t| t.disaggregation) {
            assert!(
                (1..config.initial_replicas).contains(&disagg.prefill_replicas),
                "disaggregation needs at least one prefill and one decode replica"
            );
            assert!(
                config.failover,
                "disaggregation requires a managed fleet (health checks + failover)"
            );
            for (i, r) in replicas.iter_mut().enumerate() {
                r.role = if i < disagg.prefill_replicas {
                    ReplicaRole::Prefill
                } else {
                    ReplicaRole::Decode
                };
            }
        }
        let mut sim = Sim::new(config, router, backend_factory, replicas, requests);
        sim.run(requests, &faults);
        sim.finish(requests)
    }
}

/// Runs `models` behind `router` as a fixed fleet — a static, fault-free
/// controller run — and reports it from the final replicas. Such a run
/// never builds a replica, so it needs no backend factory.
///
/// # Panics
///
/// As [`FleetController::run`].
pub(crate) fn run_fixed(
    engine: ServingConfig,
    models: Vec<Box<dyn ReplicaModel>>,
    router: Box<dyn Router>,
    requests: &[Request],
) -> ClusterResult {
    let config = ControllerConfig::static_fleet(models.len(), engine);
    let replicas = models.into_iter().map(Replica::fresh).collect();
    let no_backends: BackendFactory =
        Box::new(|| unreachable!("a static, fault-free fleet builds no replica"));
    let mut sim = Sim::new(config, router, no_backends, replicas, requests);
    sim.run(requests, &FaultPlan::none());
    sim.cluster_result()
}

/// Router views of `replicas`, each in its observed state — or shown as
/// [`ReplicaState::Dead`] when `eligible` rejects it (a replica of the
/// wrong role, say), so any router skips it without index remapping.
fn router_views(replicas: &[Replica], eligible: impl Fn(&Replica) -> bool) -> Vec<ReplicaView<'_>> {
    replicas
        .iter()
        .map(|r| {
            let state = if eligible(r) {
                r.observed
            } else {
                ReplicaState::Dead
            };
            ReplicaView::new(r.model.as_ref(), state)
        })
        .collect()
}

/// Live state of one controller run.
struct Sim {
    config: ControllerConfig,
    router: Box<dyn Router>,
    backend_factory: BackendFactory,
    replicas: Vec<Replica>,
    now: SimTime,
    /// The event queue driving the run: arrivals, faults, restarts, speed
    /// restorations, and (while the fleet has work) health ticks.
    queue: EventQueue<FleetEvent>,
    /// Original arrival of every offered request.
    origin: BTreeMap<u64, SimTime>,
    /// Latest engine-submission instant per request. Completion metrics
    /// are relative to this; the delta to `origin` converts them back to
    /// user-perceived latencies.
    submit: BTreeMap<u64, SimTime>,
    /// `(request id, replica)` of every fresh admission routed (failover
    /// re-routes excluded), in routing order.
    assignments: Vec<(u64, usize)>,
    /// Admission-control backpressure queue (FIFO).
    pending: VecDeque<Request>,
    /// Requests recovered from crashed replicas, awaiting re-routing.
    orphans: Vec<Request>,
    shed_ids: Vec<u64>,
    lost_ids: Vec<u64>,
    events: Vec<ControlEvent>,
    timeline: Vec<TimelineEvent>,
    /// Rolling corrected TTFTs (ms) of recent completions.
    ttft_window: VecDeque<f64>,
    failovers: usize,
    refilled_cold: u64,
    refilled_after_partial_migration: u64,
    migrated_prefix_tokens: u64,
    migrations: usize,
    prewarm_transfers: usize,
    disagg_handoffs: usize,
    /// KV movement plane (present when `config.transfer` is set).
    plane: Option<TransferPlane>,
    /// In-flight transfers by plane id, with what to do at completion.
    pending_transfers: BTreeMap<u64, PendingTransfer>,
    /// Disaggregated mode: original requests awaiting their shadow
    /// prefill's completion, by original id.
    disagg_waiting: BTreeMap<u64, Request>,
    crashes: usize,
    scale_ups: usize,
    scale_downs: usize,
    peak_replicas: usize,
    cooldown_until: SimTime,
    /// Mid-run fidelity switches performed by the fidelity policy.
    fidelity_switches: usize,
}

impl Sim {
    /// A run of `replicas` over `requests`, before its first event.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are unsorted by arrival, if two share an id, or
    /// if an id uses the reserved shadow bit.
    fn new(
        config: ControllerConfig,
        router: Box<dyn Router>,
        backend_factory: BackendFactory,
        replicas: Vec<Replica>,
        requests: &[Request],
    ) -> Self {
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival"
        );
        let origin: BTreeMap<u64, SimTime> = requests
            .iter()
            .map(|r| (r.id, SimTime::from_secs_f64(r.arrival_s)))
            .collect();
        assert_eq!(origin.len(), requests.len(), "request ids must be unique");
        assert!(
            requests.iter().all(|r| !is_shadow(r.id)),
            "request ids must not use the reserved shadow bit"
        );
        let plane = config
            .transfer
            .as_ref()
            .map(|t| TransferPlane::new(t.topology.clone()));
        Sim {
            peak_replicas: config.initial_replicas,
            config,
            router,
            backend_factory,
            replicas,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            origin,
            submit: BTreeMap::new(),
            assignments: Vec::with_capacity(requests.len()),
            pending: VecDeque::new(),
            orphans: Vec::new(),
            shed_ids: Vec::new(),
            lost_ids: Vec::new(),
            events: Vec::new(),
            timeline: Vec::new(),
            ttft_window: VecDeque::new(),
            failovers: 0,
            refilled_cold: 0,
            refilled_after_partial_migration: 0,
            migrated_prefix_tokens: 0,
            migrations: 0,
            prewarm_transfers: 0,
            disagg_handoffs: 0,
            plane,
            pending_transfers: BTreeMap::new(),
            disagg_waiting: BTreeMap::new(),
            crashes: 0,
            scale_ups: 0,
            scale_downs: 0,
            cooldown_until: SimTime::ZERO,
            fidelity_switches: 0,
        }
    }

    /// The event loop: serves `requests` under `faults`, quiesces every
    /// live replica, and records whatever could not be served as lost.
    /// A finisher then reads the outcome.
    fn run(&mut self, requests: &[Request], faults: &FaultPlan) {
        let tick = SimDuration::from_secs_f64(TICK_S);
        let mut next_tick = SimTime::ZERO + tick;
        // Time of the Tick wake-up currently sitting in the queue, if any.
        // Ticks are only armed while the fleet has work, so an idle fleet's
        // clock jumps straight to the next arrival or fault.
        let mut tick_armed: Option<SimTime> = None;
        let schedule = faults.events();
        let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
        let horizon = SimTime::from_secs_f64(last_arrival.max(faults.last_at_s()))
            + SimDuration::from_secs_f64(self.config.engine.drain_limit_s);

        for (idx, request) in requests.iter().enumerate() {
            self.queue.push(
                SimTime::from_secs_f64(request.arrival_s),
                FleetEvent::Arrival(idx),
            );
        }
        for (i, fault) in schedule.iter().enumerate() {
            self.queue
                .push(SimTime::from_secs_f64(fault.at_s), FleetEvent::Fault(i));
        }

        while let Some((t, first)) = self.queue.pop() {
            // Batch every event scheduled for this exact instant: they are
            // processed under one `now`, in kind-priority order.
            let mut batch = vec![first];
            while let Some(event) = self.queue.pop_at(t) {
                batch.push(event);
            }
            if t > horizon {
                if self.pending_transfers.is_empty() {
                    break;
                }
                // Past the horizon only transfer completions are serviced
                // (no new transfers start), so the in-flight set shrinks
                // monotonically and the loop terminates.
                self.advance_all(t);
                self.now = t;
                for event in &batch {
                    if let FleetEvent::TransferDone(id) = event {
                        self.finish_transfer(*id);
                    }
                }
                continue;
            }
            // A tick wake-up that finds the fleet idle is dropped without
            // touching the clock — the due-time stays in `next_tick` and
            // fires at the next real event instead, exactly as if the grid
            // had never been armed.
            if !self.has_work() && batch.iter().all(|e| matches!(e, FleetEvent::Tick)) {
                continue;
            }
            self.advance_all(t);
            self.now = t;
            for event in &batch {
                if let FleetEvent::Fault(i) = event {
                    self.apply_fault(&schedule[*i]);
                }
            }
            // Restart / restore-speed dues are authoritative on the
            // replica, checked at every processed instant; the queue
            // entries merely guarantee an instant exists at each due time.
            for i in 0..self.replicas.len() {
                if self.replicas[i].restart_at.is_some_and(|x| x <= t) {
                    self.revive(i);
                }
                if self.replicas[i].restore_speed_at.is_some_and(|x| x <= t) {
                    self.restore_speed(i);
                }
            }
            for event in &batch {
                if let FleetEvent::TransferDone(id) = event {
                    self.finish_transfer(*id);
                }
            }
            if next_tick <= t {
                self.tick();
                while next_tick <= t {
                    next_tick += tick;
                }
            }
            for event in &batch {
                if let FleetEvent::Arrival(idx) = event {
                    self.offer(requests[*idx].clone());
                }
            }
            if self.has_work() && tick_armed != Some(next_tick) {
                self.queue.push(next_tick, FleetEvent::Tick);
                tick_armed = Some(next_tick);
            }
        }

        // Quiesce every live replica — concurrently; no control-plane
        // events remain — and take one last look.
        par::for_each_mut(&mut self.replicas, |_, r| {
            if r.actual != ReplicaState::Dead {
                while r.model.step() == StepOutcome::Progress {}
            }
        });
        self.observe_completions();
        // Whatever never made it out of a dead replica's limbo, or could
        // not be replayed anywhere, is explicitly lost.
        let stranded: Vec<u64> = self
            .replicas
            .iter_mut()
            .flat_map(|r| r.limbo.drain(..).map(|q| q.id))
            .collect();
        for id in stranded {
            self.lose(id);
        }
        let orphans = std::mem::take(&mut self.orphans);
        for q in orphans {
            self.lose(q.id);
        }
    }

    /// The managed-fleet finisher: every request's outcome, with latencies
    /// corrected to original arrivals.
    fn finish(mut self, requests: &[Request]) -> ControlResult {
        let mut all: Vec<RequestMetrics> = Vec::new();
        let mut preemptions = 0u64;
        for r in self.replicas {
            all.extend(r.archived);
            preemptions += r.archived_preemptions;
            let res = r.model.into_result();
            preemptions += res.preemptions;
            all.extend(res.per_request);
        }
        // Shadow prefills are internal bookkeeping of disaggregated mode;
        // their originals are accounted via the handoff path.
        all.retain(|m| !is_shadow(m.request_id));
        for m in &mut all {
            let submit = self.submit[&m.request_id];
            let origin = self.origin[&m.request_id];
            let delta = (submit - origin).as_ns_f64();
            m.ttft_ns += delta;
            m.completion_ns += delta;
        }
        all.sort_by_key(|m| m.request_id);
        assert!(
            all.windows(2).all(|w| w[0].request_id < w[1].request_id),
            "a request completed on two replicas"
        );
        self.shed_ids.sort_unstable();
        self.lost_ids.sort_unstable();
        let offered = requests.len();
        let (completed, shed, lost) = (all.len(), self.shed_ids.len(), self.lost_ids.len());
        assert!(
            completed + shed + lost <= offered,
            "request accounting overflow: {completed} + {shed} + {lost} > {offered}"
        );
        let slo_ns = self.config.slo_ttft_ms * 1e6;
        let within_slo = all.iter().filter(|m| m.ttft_ns <= slo_ns).count();
        let transfer_stats = self.plane.as_ref().map(|p| *p.stats()).unwrap_or_default();
        ControlResult {
            fleet: AggregateMetrics::from_requests(&all),
            per_request: all,
            offered,
            completed,
            shed,
            lost,
            unfinished: offered - completed - shed - lost,
            goodput: if offered == 0 {
                0.0
            } else {
                within_slo as f64 / offered as f64
            },
            slo_ttft_ms: self.config.slo_ttft_ms,
            failovers: self.failovers,
            refilled_prefill_tokens: self.refilled_cold + self.refilled_after_partial_migration,
            refilled_cold: self.refilled_cold,
            refilled_after_partial_migration: self.refilled_after_partial_migration,
            migrated_prefix_tokens: self.migrated_prefix_tokens,
            migrations: self.migrations,
            prewarm_transfers: self.prewarm_transfers,
            disagg_handoffs: self.disagg_handoffs,
            kv_transfers: transfer_stats.transfers,
            kv_transfer_bytes: transfer_stats.bytes,
            kv_transfer_nic_wait_ns: transfer_stats.nic_wait_ns,
            crashes: self.crashes,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            fidelity_switches: self.fidelity_switches,
            peak_replicas: self.peak_replicas,
            preemptions,
            events: self.events,
            timeline: self.timeline,
            shed_ids: self.shed_ids,
            lost_ids: self.lost_ids,
        }
    }

    /// The fixed-fleet finisher: one summary per replica, and fleet metrics
    /// over them. A static, fault-free run keeps every replica's first
    /// incarnation, so the final replicas hold the whole run.
    fn cluster_result(self) -> ClusterResult {
        let mut routed = vec![0usize; self.replicas.len()];
        for &(_, replica) in &self.assignments {
            routed[replica] += 1;
        }
        let block_bytes = kv_block_bytes(&self.config.engine.model, self.block_size());
        let resident: Vec<Vec<u64>> = self
            .replicas
            .iter()
            .map(|r| r.model.resident_block_hashes())
            .collect();
        let duplicated_kv_blocks = duplicated_blocks(&resident);
        let (mut hit_tokens, mut total_tokens) = (0u64, 0u64);
        let per_replica: Vec<ReplicaSummary> = self
            .replicas
            .into_iter()
            .zip(&routed)
            .map(|(r, &routed)| {
                let (hit, miss) = r.model.cache_hit_miss_tokens();
                hit_tokens += hit;
                total_tokens += hit + miss;
                ReplicaSummary {
                    routed,
                    prefix_hit_rate: if hit + miss == 0 {
                        0.0
                    } else {
                        hit as f64 / (hit + miss) as f64
                    },
                    fidelity: r.model.fidelity(),
                    result: r.model.into_result(),
                }
            })
            .collect();
        let all: Vec<RequestMetrics> = per_replica
            .iter()
            .flat_map(|s| s.result.per_request.iter().copied())
            .collect();
        ClusterResult {
            fleet: AggregateMetrics::from_requests(&all),
            fleet_hit_rate: if total_tokens == 0 {
                0.0
            } else {
                hit_tokens as f64 / total_tokens as f64
            },
            load_imbalance: load_imbalance(&routed),
            duplicated_kv_blocks,
            duplicated_kv_bytes: duplicated_kv_blocks as u64 * block_bytes,
            assignments: self.assignments,
            unfinished: per_replica.iter().map(|s| s.result.unfinished).sum(),
            preemptions: per_replica.iter().map(|s| s.result.preemptions).sum(),
            dropped: per_replica.iter().map(|s| s.result.dropped).sum(),
            per_replica,
        }
    }

    // ------------------------------------------------------------- plumbing

    fn event(&mut self, what: String) {
        self.events.push(ControlEvent {
            t_s: self.now.as_secs_f64(),
            what,
        });
    }

    /// Records a structured timeline entry at the current instant.
    fn mark(&mut self, kind: &str, replica: Option<usize>) {
        self.mark_span(kind, replica, 0);
    }

    /// Records a timeline span starting now and lasting `dur_ns`
    /// (`0` = instant event).
    fn mark_span(&mut self, kind: &str, replica: Option<usize>, dur_ns: u64) {
        self.timeline.push(TimelineEvent {
            t_ns: self.now.as_ns(),
            kind: kind.to_string(),
            replica,
            dur_ns,
        });
    }

    /// Records a loss, translating a shadow prefill back to its original
    /// request (which dies with it — its KV never reached a decode replica).
    fn lose(&mut self, id: u64) {
        if is_shadow(id) {
            let orig = public_id(id);
            if self.disagg_waiting.remove(&orig).is_some() {
                self.lost_ids.push(orig);
            }
        } else {
            self.lost_ids.push(id);
        }
    }

    fn routable_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.observed.is_routable())
            .count()
    }

    /// Outstanding work the control plane can see: engine queues on
    /// routable replicas plus its own backlog.
    fn observed_load(&self) -> usize {
        let engine_load: usize = self
            .replicas
            .iter()
            .filter(|r| r.observed.is_routable())
            .map(|r| r.model.outstanding() + r.limbo.len())
            .sum();
        engine_load + self.pending.len() + self.orphans.len()
    }

    fn has_work(&self) -> bool {
        !self.pending.is_empty()
            || !self.orphans.is_empty()
            || !self.pending_transfers.is_empty()
            || !self.disagg_waiting.is_empty()
            || self.replicas.iter().any(|r| {
                !r.limbo.is_empty()
                    || r.actual == ReplicaState::Draining
                    || (r.actual != ReplicaState::Dead && r.model.outstanding() > 0)
            })
    }

    /// Advances every live, busy replica to `t`. Dead replicas hold their
    /// clocks; idle ones are skipped outright (stepping them is a no-op —
    /// their clocks jump forward on the next submission).
    ///
    /// Between control-plane events replicas share nothing, so they advance
    /// concurrently on the `sim_core::par` workers; each replica's step
    /// sequence depends only on its own state, so the fleet outcome is
    /// bit-identical at any `PAT_SIM_THREADS`.
    fn advance_all(&mut self, t: SimTime) {
        par::for_each_mut(&mut self.replicas, |_, r| {
            if r.actual == ReplicaState::Dead || r.model.outstanding() == 0 {
                return;
            }
            while r.model.clock() < t {
                if r.model.step() == StepOutcome::Idle {
                    break;
                }
            }
        });
    }

    fn note_peak(&mut self) {
        let live = self
            .replicas
            .iter()
            .filter(|r| r.actual != ReplicaState::Dead)
            .count();
        self.peak_replicas = self.peak_replicas.max(live);
    }

    // ------------------------------------------------------------- routing

    /// The role a request's next phase needs. Unified fleets place no
    /// constraint; disaggregated ones send shadow prefills to prefill
    /// replicas and everything else to decode replicas.
    fn wanted_role(&self, id: u64) -> ReplicaRole {
        match self.config.transfer.as_ref().and_then(|t| t.disaggregation) {
            Some(_) if is_shadow(id) => ReplicaRole::Prefill,
            Some(_) => ReplicaRole::Decode,
            None => ReplicaRole::Unified,
        }
    }

    /// Routes `req` among replicas the control plane believes routable for
    /// the request's role. If the chosen replica is actually down (an
    /// undetected crash), the request falls into its limbo instead of an
    /// engine queue. Returns the request when no replica of the right role
    /// is routable, so the caller can buffer or retry it.
    fn route_now(&mut self, req: Request, is_failover: bool) -> Option<Request> {
        let wanted = self.wanted_role(req.id);
        let target = {
            let views = router_views(&self.replicas, |r| r.role.serves(wanted));
            if !views.iter().any(|v| v.state().is_routable()) {
                return Some(req);
            }
            // The check above guarantees a routable view, and every router
            // returns `Some` whenever one exists.
            let Some(target) = self.router.route(&req, &views) else {
                panic!("router returned no replica despite a routable view");
            };
            assert!(
                views[target].state().is_routable(),
                "router picked non-routable replica {target}"
            );
            target
        };
        if !is_failover {
            self.assignments.push((req.id, target));
        }
        if !self.replicas[target].actual.is_routable() {
            self.replicas[target].limbo.push(req);
        } else if is_failover {
            self.failovers += 1;
            // One probe of the prompt serves the target's overlap check and
            // the whole donor scan.
            let tokens = req.prompt.to_tokens();
            let mut probe = PrefixProbe::new(&tokens, self.block_size());
            let overlap = self.replicas[target].model.prefix_overlap(&mut probe);
            if let Some(req) = self.try_migrate(target, overlap, &mut probe, req) {
                // No donor worth migrating from (or recompute wins):
                // the whole uncovered prompt refills cold.
                let recompute = req.prompt.total_tokens().saturating_sub(overlap);
                self.refilled_cold += recompute as u64;
                self.submit_to(target, req);
            }
        } else {
            self.submit_to(target, req);
        }
        None
    }

    /// Routes a fresh admission: directly in a unified fleet, or via a
    /// shadow prefill on a prefill replica in a disaggregated one (the
    /// original is held until the prefill's KV is handed off). Returns the
    /// request when nothing can take it right now.
    fn dispatch(&mut self, req: Request) -> Option<Request> {
        let disagg = self
            .config
            .transfer
            .as_ref()
            .is_some_and(|t| t.disaggregation.is_some());
        if !disagg {
            return self.route_now(req, false);
        }
        let shadow = Request {
            id: req.id | SHADOW_BIT,
            arrival_s: req.arrival_s,
            prompt: req.prompt.clone(),
            decode_tokens: 1,
        };
        let origin = self.origin[&req.id];
        self.origin.insert(shadow.id, origin);
        if let Some(shadow) = self.route_now(shadow, false) {
            // No prefill replica is routable; hand the original back.
            self.origin.remove(&shadow.id);
            return Some(req);
        }
        self.disagg_waiting.insert(req.id, req);
        None
    }

    // ---------------------------------------------------------- kv movement

    /// Block size of the per-replica KV caches (uniform across the fleet).
    fn block_size(&self) -> usize {
        self.replicas[0].model.block_size()
    }

    /// Failover hook: try to stream the best donor's warm prefix to the
    /// failover target instead of recomputing it. `probe` is a probe of
    /// `req`'s prompt. Returns the request when migration does not apply
    /// (caller recomputes cold); `None` means the request is held until its
    /// transfer completes.
    fn try_migrate(
        &mut self,
        target: usize,
        target_overlap: usize,
        probe: &mut PrefixProbe<'_>,
        req: Request,
    ) -> Option<Request> {
        if !self.config.transfer.as_ref().is_some_and(|t| t.migration) {
            return Some(req);
        }
        // Donor: the routable replica holding the longest resident prefix.
        let mut best: Option<(usize, usize)> = None;
        for (j, r) in self.replicas.iter().enumerate() {
            if j == target || !r.observed.is_routable() || !r.actual.is_routable() {
                continue;
            }
            let overlap = r.model.prefix_overlap(probe);
            if overlap > best.map_or(0, |(_, b)| b) {
                best = Some((j, overlap));
            }
        }
        let Some((donor, donor_overlap)) = best else {
            return Some(req);
        };
        let gain = donor_overlap.saturating_sub(target_overlap);
        if gain < MIN_MIGRATION_TOKENS {
            return Some(req);
        }
        let block_size = self.block_size();
        let bytes =
            (gain / block_size) as u64 * kv_block_bytes(&self.config.engine.model, block_size);
        let Some(plane) = self.plane.as_ref() else {
            return Some(req);
        };
        // Migrate only when transfer-then-suffix-prefill beats recomputing
        // the uncovered prompt right now on the target.
        let total = req.prompt.total_tokens();
        let finish = plane.estimate_finish(self.now, donor, target, bytes);
        let cost = self.replicas[target].model.cost_model();
        let migrate_done =
            finish.as_ns_f64() + cost.prefill_ns(total.saturating_sub(donor_overlap));
        let recompute_done =
            self.now.as_ns_f64() + cost.prefill_ns(total.saturating_sub(target_overlap));
        if migrate_done >= recompute_done {
            return Some(req);
        }
        let transfer = match self.plane.as_mut() {
            Some(plane) => plane.begin(
                self.now,
                donor,
                target,
                bytes,
                gain,
                TransferKind::PrefixMigration,
            ),
            None => return Some(req),
        };
        self.queue
            .push(transfer.finish, FleetEvent::TransferDone(transfer.id));
        let dur = transfer.finish.saturating_sub(self.now).as_ns();
        let req_id = req.id;
        self.pending_transfers.insert(
            transfer.id,
            PendingTransfer::Migration { req, donor_overlap },
        );
        self.mark_span("transfer", Some(target), dur);
        self.event(format!(
            "migrate {gain} warm prefix tokens r{donor} -> r{target} for request {req_id}"
        ));
        None
    }

    /// A shadow prefill finished on `src`: stream the prompt's KV to a
    /// decode replica and hold the original request until the bytes land.
    fn begin_handoff(&mut self, src: usize, shadow_id: u64) {
        let Some(req) = self.disagg_waiting.remove(&public_id(shadow_id)) else {
            return; // the original was already lost
        };
        let target = {
            let views = router_views(&self.replicas, |r| {
                r.role.serves(ReplicaRole::Decode) && r.actual.is_routable()
            });
            if !views.iter().any(|v| v.state().is_routable()) {
                // No decode replica up: the KV is stranded on the prefill
                // side; the original reroutes (and re-prefills) later.
                self.orphans.push(req);
                return;
            }
            match self.router.route(&req, &views) {
                Some(t) if views[t].state().is_routable() => t,
                _ => {
                    self.orphans.push(req);
                    return;
                }
            }
        };
        let block_size = self.block_size();
        let tokens = req.prompt.to_tokens();
        let aligned = tokens.len() / block_size * block_size;
        if aligned == 0 {
            // Nothing block-resident to move; the decode side re-prefills
            // the (sub-block) prompt itself.
            self.disagg_handoffs += 1;
            self.submit_to(target, req);
            return;
        }
        let bytes =
            (aligned / block_size) as u64 * kv_block_bytes(&self.config.engine.model, block_size);
        let transfer = match self.plane.as_mut() {
            Some(plane) => plane.begin(
                self.now,
                src,
                target,
                bytes,
                aligned,
                TransferKind::DisaggHandoff,
            ),
            None => {
                self.disagg_handoffs += 1;
                self.submit_to(target, req);
                return;
            }
        };
        self.queue
            .push(transfer.finish, FleetEvent::TransferDone(transfer.id));
        let dur = transfer.finish.saturating_sub(self.now).as_ns();
        let req_id = req.id;
        self.pending_transfers
            .insert(transfer.id, PendingTransfer::Handoff { req });
        self.mark_span("transfer", Some(target), dur);
        self.event(format!(
            "handoff {aligned} prefill tokens r{src} -> r{target} for request {req_id}"
        ));
    }

    /// A transfer's last byte arrived: ingest at the destination and release
    /// whatever was held on it.
    fn finish_transfer(&mut self, id: u64) {
        let done = match self.plane.as_mut() {
            Some(plane) => plane.complete(id),
            None => None,
        };
        let (Some(done), Some(pending)) = (done, self.pending_transfers.remove(&id)) else {
            return;
        };
        let dst = done.dst;
        let alive =
            self.replicas[dst].observed.is_routable() && self.replicas[dst].actual.is_routable();
        if !alive {
            // The destination died (or started draining) while bytes were
            // in flight; the payload is lost with it.
            self.mark("transfer-lost", Some(dst));
            match pending {
                PendingTransfer::Migration { req, .. } | PendingTransfer::Handoff { req } => {
                    self.event(format!(
                        "transfer to replica {dst} lost; request {} back to orphans",
                        req.id
                    ));
                    self.orphans.push(req);
                }
                PendingTransfer::Prewarm { .. } => {
                    self.event(format!("prewarm transfer to replica {dst} lost"));
                }
            }
            return;
        }
        match pending {
            PendingTransfer::Migration { req, donor_overlap } => {
                let tokens = req.prompt.to_tokens();
                let covered = donor_overlap.min(tokens.len());
                let report = self.replicas[dst].model.ingest_prefix(&tokens[..covered]);
                let total = req.prompt.total_tokens();
                let refill = total.saturating_sub(report.covered_tokens);
                // Conservation: a block is never both migrated and
                // recomputed — imported + refilled never exceeds the prompt.
                assert!(
                    report.imported_tokens + refill <= total,
                    "migrated and recomputed token counts overlap"
                );
                self.migrations += 1;
                self.migrated_prefix_tokens += report.imported_tokens as u64;
                self.refilled_after_partial_migration += refill as u64;
                self.mark("migrate-ingest", Some(dst));
                self.event(format!(
                    "replica {dst} ingested {} migrated tokens; request {} resumes ({refill} to refill)",
                    report.imported_tokens, req.id
                ));
                self.submit_to(dst, req);
            }
            PendingTransfer::Prewarm { tokens } => {
                let report = self.replicas[dst].model.ingest_prefix(&tokens);
                self.prewarm_transfers += 1;
                self.migrated_prefix_tokens += report.imported_tokens as u64;
                self.mark("prewarm-ingest", Some(dst));
                self.event(format!(
                    "replica {dst} prewarmed with {} tokens",
                    report.imported_tokens
                ));
            }
            PendingTransfer::Handoff { req } => {
                let tokens = req.prompt.to_tokens();
                let report = self.replicas[dst].model.ingest_prefix(&tokens);
                self.disagg_handoffs += 1;
                self.migrated_prefix_tokens += report.imported_tokens as u64;
                self.mark("handoff-ingest", Some(dst));
                self.event(format!(
                    "replica {dst} ingested {} handoff tokens; request {} enters decode",
                    report.imported_tokens, req.id
                ));
                self.submit_to(dst, req);
            }
        }
    }

    /// Revive/scale-up hook: push the backlog's hottest warm prefix to the
    /// cold replica before traffic lands on it.
    fn maybe_prewarm(&mut self, dst: usize) {
        if !self.config.transfer.as_ref().is_some_and(|t| t.migration) {
            return;
        }
        let block_size = self.block_size();
        let mut best: Option<(usize, usize, Vec<Token>)> = None;
        for req in self
            .pending
            .iter()
            .chain(self.orphans.iter())
            .take(PREWARM_CANDIDATES)
        {
            let tokens = req.prompt.to_tokens();
            let mut probe = PrefixProbe::new(&tokens, block_size);
            let floor = best.as_ref().map_or(0, |(_, b, _)| *b);
            let mut found: Option<(usize, usize)> = None;
            for (j, r) in self.replicas.iter().enumerate() {
                if j == dst || !r.observed.is_routable() || !r.actual.is_routable() {
                    continue;
                }
                let overlap = r.model.prefix_overlap(&mut probe);
                if overlap >= MIN_MIGRATION_TOKENS && overlap > found.map_or(floor, |(_, b)| b) {
                    found = Some((j, overlap));
                }
            }
            if let Some((j, overlap)) = found {
                best = Some((j, overlap, tokens));
            }
        }
        let Some((donor, overlap, mut tokens)) = best else {
            return;
        };
        let blocks = overlap / block_size;
        if blocks == 0 {
            return;
        }
        let bytes = blocks as u64 * kv_block_bytes(&self.config.engine.model, block_size);
        let transfer = match self.plane.as_mut() {
            Some(plane) => plane.begin(self.now, donor, dst, bytes, overlap, TransferKind::Prewarm),
            None => return,
        };
        self.queue
            .push(transfer.finish, FleetEvent::TransferDone(transfer.id));
        let dur = transfer.finish.saturating_sub(self.now).as_ns();
        tokens.truncate(overlap);
        self.pending_transfers
            .insert(transfer.id, PendingTransfer::Prewarm { tokens });
        self.mark_span("transfer", Some(dst), dur);
        self.event(format!("prewarm {overlap} tokens r{donor} -> r{dst}"));
    }

    fn submit_to(&mut self, i: usize, mut req: Request) {
        // `as_secs_f64` round-trips exactly through `from_secs_f64` at
        // simulation scale, so the engine admits the request at precisely
        // `self.now`.
        req.arrival_s = self.now.as_secs_f64();
        self.submit.insert(req.id, self.now);
        self.replicas[i].model.submit(req);
    }

    /// Handles one fresh arrival: admission control, then routing.
    fn offer(&mut self, req: Request) {
        let routable = self.routable_count();
        if routable == 0 {
            // Nowhere to send it; buffer (bounded if admission is on).
            self.buffer_or_shed(req);
            return;
        }
        if let Some(adm) = self.config.admission {
            let saturated = self.observed_load() >= adm.max_outstanding_per_replica * routable;
            if saturated || !self.pending.is_empty() {
                self.buffer_or_shed(req);
                return;
            }
        }
        if let Some(req) = self.dispatch(req) {
            self.buffer_or_shed(req);
        }
    }

    fn buffer_or_shed(&mut self, req: Request) {
        let cap = self
            .config
            .admission
            .map_or(usize::MAX, |adm| adm.max_queued);
        if self.pending.len() < cap {
            self.pending.push_back(req);
        } else {
            self.shed_ids.push(req.id);
        }
    }

    /// Admits queued work while the fleet has headroom.
    fn drain_pending(&mut self) {
        loop {
            let routable = self.routable_count();
            if routable == 0 {
                return;
            }
            if let Some(adm) = self.config.admission {
                if self.observed_load() - self.pending.len()
                    >= adm.max_outstanding_per_replica * routable
                {
                    return;
                }
            }
            let Some(req) = self.pending.pop_front() else {
                return;
            };
            if let Some(req) = self.dispatch(req) {
                // Routable replicas exist but none serves this request's
                // role right now; put it back and stop draining.
                self.pending.push_front(req);
                return;
            }
        }
    }

    // -------------------------------------------------------------- faults

    fn apply_fault(&mut self, fault: &FaultEvent) {
        match fault.kind {
            FaultKind::Crash {
                replica,
                restart_after_s,
            } => {
                if replica >= self.replicas.len()
                    || self.replicas[replica].actual == ReplicaState::Dead
                {
                    return;
                }
                self.crashes += 1;
                let failover = self.config.failover;
                let restart_at = restart_after_s.map(|d| self.now + SimDuration::from_secs_f64(d));
                // The replacement rejoins at the fidelity the dead replica
                // was running; a fidelity policy re-sorts it at the next
                // tick anyway.
                let fresh = new_replica(
                    self.replicas[replica].model.fidelity(),
                    &self.config.engine,
                    (self.backend_factory)(),
                );
                let r = &mut self.replicas[replica];
                // Tear out everything incomplete, then swap in a cold
                // model: the KV cache and all in-flight decode state die
                // with the process.
                let incomplete = r.model.take_incomplete();
                let dead = std::mem::replace(&mut r.model, fresh);
                let res = dead.into_result();
                r.archived.extend(res.per_request);
                r.archived_preemptions += res.preemptions;
                r.completed_seen = 0;
                r.actual = ReplicaState::Dead;
                r.restart_at = restart_at;
                r.restore_speed_at = None;
                let torn = incomplete.len();
                if failover {
                    // Held as limbo until the health checker notices the
                    // crash; then rerouted.
                    r.limbo.extend(incomplete);
                } else {
                    self.lost_ids.extend(incomplete.iter().map(|q| q.id));
                }
                if let Some(at) = restart_at {
                    self.queue.push(at, FleetEvent::Restart);
                }
                self.event(format!(
                    "crash replica {replica} ({torn} requests in flight)"
                ));
                self.mark("crash", Some(replica));
            }
            FaultKind::Slowdown {
                replica,
                factor,
                duration_s,
            } => {
                if replica >= self.replicas.len()
                    || self.replicas[replica].actual == ReplicaState::Dead
                {
                    return;
                }
                let restore_at = self.now + SimDuration::from_secs_f64(duration_s);
                let r = &mut self.replicas[replica];
                r.model.set_speed_factor(factor);
                if r.actual == ReplicaState::Healthy {
                    r.actual = ReplicaState::Degraded;
                }
                r.restore_speed_at = Some(restore_at);
                self.queue.push(restore_at, FleetEvent::RestoreSpeed);
                self.event(format!("slowdown replica {replica} to {factor}x"));
                self.mark("slowdown", Some(replica));
            }
        }
    }

    fn revive(&mut self, i: usize) {
        self.replicas[i].restart_at = None;
        self.replicas[i].actual = ReplicaState::Healthy;
        self.replicas[i].observed = ReplicaState::Healthy;
        self.event(format!("replica {i} up (cold cache)"));
        self.mark("revive", Some(i));
        let limbo = std::mem::take(&mut self.replicas[i].limbo);
        if self.config.failover {
            // Anything still in limbo reroutes at the next tick.
            self.orphans.extend(limbo);
        } else {
            // Static fleet: the backlog that piled up against the dead
            // address finally gets served, cold.
            for req in limbo {
                self.submit_to(i, req);
            }
        }
        self.note_peak();
        self.maybe_prewarm(i);
    }

    fn restore_speed(&mut self, i: usize) {
        let r = &mut self.replicas[i];
        r.restore_speed_at = None;
        r.model.set_speed_factor(1.0);
        if r.actual == ReplicaState::Degraded {
            r.actual = ReplicaState::Healthy;
        }
        self.event(format!("replica {i} speed restored"));
        self.mark("restore-speed", Some(i));
    }

    // ---------------------------------------------------------- the tick

    /// One control-loop iteration: observe completions, detect state
    /// changes, fail over orphans, admit queued work, autoscale, retire
    /// drained replicas.
    fn tick(&mut self) {
        self.mark("tick", None);
        self.observe_completions();
        if self.config.failover {
            self.detect();
            if !self.orphans.is_empty() && self.routable_count() > 0 {
                let orphans = std::mem::take(&mut self.orphans);
                for req in orphans {
                    if let Some(req) = self.route_now(req, true) {
                        // No routable replica of the right role yet; retry
                        // at a later tick.
                        self.orphans.push(req);
                    }
                }
            }
        }
        self.drain_pending();
        self.autoscale();
        self.retire_drained();
        self.adjust_fidelity();
    }

    // ------------------------------------------------------------- fidelity

    /// Applies the load-adaptive fidelity policy: healthy replicas at or
    /// above the outstanding threshold run `hot`, the rest `cold`. A switch
    /// is a cold handoff (see [`FidelityPolicy`]), so replicas that are
    /// crashed, draining, or holding limbo work are left alone.
    fn adjust_fidelity(&mut self) {
        let Some(policy) = self.config.fidelity_policy else {
            return;
        };
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            if r.actual != ReplicaState::Healthy
                || r.observed != ReplicaState::Healthy
                || !r.limbo.is_empty()
            {
                continue;
            }
            let want = if r.model.outstanding() >= policy.hot_outstanding {
                policy.hot
            } else {
                policy.cold
            };
            if want != r.model.fidelity() {
                self.switch_fidelity(i, want);
            }
        }
    }

    /// Swaps replica `i` to a fresh model at fidelity `to`, archiving the
    /// old model's accounting and resubmitting its incomplete requests. The
    /// handoff is cold: KV warmth does not survive the switch.
    fn switch_fidelity(&mut self, i: usize, to: Fidelity) {
        let fresh = new_replica(to, &self.config.engine, (self.backend_factory)());
        let r = &mut self.replicas[i];
        let speed = r.model.speed_factor();
        let incomplete = r.model.take_incomplete();
        let old = std::mem::replace(&mut r.model, fresh);
        let from = old.fidelity();
        let res = old.into_result();
        r.archived.extend(res.per_request);
        r.archived_preemptions += res.preemptions;
        r.completed_seen = 0;
        r.model.set_speed_factor(speed);
        self.fidelity_switches += 1;
        self.event(format!("replica {i} fidelity {from:?} -> {to:?}"));
        self.mark("fidelity-switch", Some(i));
        for req in incomplete {
            self.submit_to(i, req);
        }
    }

    fn observe_completions(&mut self) {
        let mut finished_shadows: Vec<(usize, u64)> = Vec::new();
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let completed = r.model.completed_requests();
            for m in &completed[r.completed_seen..] {
                if is_shadow(m.request_id) {
                    // Shadow prefills don't enter the TTFT window (their
                    // originals will); they trigger the KV handoff below.
                    finished_shadows.push((i, m.request_id));
                    continue;
                }
                let submit = self.submit[&m.request_id];
                let origin = self.origin[&m.request_id];
                let corrected_ms = (m.ttft_ns + (submit - origin).as_ns_f64()) / 1e6;
                self.ttft_window.push_back(corrected_ms);
            }
            r.completed_seen = completed.len();
        }
        while self.ttft_window.len() > TTFT_WINDOW {
            self.ttft_window.pop_front();
        }
        for (src, shadow_id) in finished_shadows {
            self.begin_handoff(src, shadow_id);
        }
    }

    /// Health check: fold each replica's actual state into the control
    /// plane's observed state. Detection latency is the tick period.
    fn detect(&mut self) {
        let mut detected: Vec<usize> = Vec::new();
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if r.observed == r.actual {
                continue;
            }
            if r.actual == ReplicaState::Dead {
                detected.push(i);
            }
            r.observed = r.actual;
        }
        for i in detected {
            let limbo = std::mem::take(&mut self.replicas[i].limbo);
            self.event(format!(
                "detected crash of replica {i} ({} stranded)",
                limbo.len()
            ));
            self.mark("detect", Some(i));
            self.orphans.extend(limbo);
        }
    }

    fn autoscale(&mut self) {
        let Some(a) = self.config.autoscaler.clone() else {
            return;
        };
        if self.now < self.cooldown_until {
            return;
        }
        let routable = self.routable_count();
        let provisioning = self
            .replicas
            .iter()
            .filter(|r| r.actual == ReplicaState::Dead && r.restart_at.is_some())
            .count();
        let load = self.observed_load() as f64;
        let mean_out = load / routable.max(1) as f64;
        let rolling_ttft_ms = if self.ttft_window.is_empty() {
            0.0
        } else {
            self.ttft_window.iter().sum::<f64>() / self.ttft_window.len() as f64
        };
        let want_up = mean_out > a.scale_up_outstanding
            || (!self.ttft_window.is_empty() && rolling_ttft_ms > self.config.slo_ttft_ms);
        if want_up && routable + provisioning < a.max_replicas {
            let ready = self.now + SimDuration::from_secs_f64(a.provision_delay_s);
            let backend = (self.backend_factory)();
            let model = new_replica(self.config.fidelity, &self.config.engine, backend);
            let mut grown = Replica::provisioning(model, ready);
            // Disaggregated fleets grow the decode tier: decode is the
            // capacity-bound phase.
            if self
                .config
                .transfer
                .as_ref()
                .is_some_and(|t| t.disaggregation.is_some())
            {
                grown.role = ReplicaRole::Decode;
            }
            self.replicas.push(grown);
            let new_index = self.replicas.len() - 1;
            self.queue.push(ready, FleetEvent::Restart);
            self.scale_ups += 1;
            self.cooldown_until = self.now + SimDuration::from_secs_f64(a.cooldown_s);
            self.event(format!(
                "scale-up: provisioning replica {new_index} (mean load {mean_out:.1}, rolling TTFT {rolling_ttft_ms:.0} ms)"
            ));
            self.mark("scale-up", Some(new_index));
            return;
        }
        let want_down = mean_out < a.scale_down_outstanding
            && self.pending.is_empty()
            && self.orphans.is_empty()
            && provisioning == 0;
        if want_down && routable > a.min_replicas {
            // `routable > min_replicas >= 1` means the filter below is
            // non-empty, but drain nothing rather than panic if not.
            let victim = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.observed.is_routable() && r.actual.is_routable())
                .min_by_key(|(i, r)| (r.model.outstanding(), *i))
                .map(|(i, _)| i);
            if let Some(victim) = victim {
                let r = &mut self.replicas[victim];
                r.model.begin_drain();
                r.actual = ReplicaState::Draining;
                r.observed = ReplicaState::Draining;
                self.scale_downs += 1;
                self.cooldown_until = self.now + SimDuration::from_secs_f64(a.cooldown_s);
                self.event(format!("scale-down: draining replica {victim}"));
                self.mark("scale-down", Some(victim));
            }
        }
    }

    /// Retires drained replicas whose queues have emptied.
    fn retire_drained(&mut self) {
        for i in 0..self.replicas.len() {
            let r = &mut self.replicas[i];
            if r.actual == ReplicaState::Draining && r.model.outstanding() == 0 {
                r.actual = ReplicaState::Dead;
                r.observed = ReplicaState::Dead;
                self.event(format!("retired replica {i}"));
                self.mark("retire", Some(i));
            }
        }
    }
}

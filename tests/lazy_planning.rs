//! Equivalence tests for the lazy-update scheduler (§5.1): a [`LazyPat`]
//! that reuses its frozen packing while the block-table structure is
//! unchanged, and plans cold otherwise, must produce plans and scheduling
//! costs identical to a from-scratch [`PatBackend`], for arbitrary decode
//! step sequences, on every GPU model, under every tile and packing policy.

use pat::prelude::*;
use pat_core::{PackingPolicy, PatConfig, PlanReuse};
use proptest::prelude::*;

const BLOCK_SIZE: usize = 16;

/// One scripted mutation of the running batch.
#[derive(Debug, Clone)]
enum StepOp {
    /// A request finishes and leaves the batch (index modulo live count).
    Complete(usize),
    /// Every surviving request decodes one token (the common decode step).
    GrowAll,
    /// One request decodes a token (ragged generation lengths).
    GrowOne(usize),
    /// A new request arrives sharing `shared` prefix blocks, with `tail`
    /// private tokens.
    Arrive { shared: usize, tail: usize },
}

fn op_strategy() -> impl Strategy<Value = StepOp> {
    // (The vendored proptest has no `prop_oneof`; pick the variant by index.)
    (0u8..4, 0usize..8, 1usize..40).prop_map(|(kind, i, tail)| match kind {
        0 => StepOp::Complete(i),
        1 => StepOp::GrowAll,
        2 => StepOp::GrowOne(i),
        _ => StepOp::Arrive {
            shared: 1 + i % SHARED_POOL,
            tail,
        },
    })
}

/// The mutable workload the ops act on: live `(block ids, tokens)` rows
/// plus a counter for fresh blocks. Blocks `0..SHARED_POOL` are the shared
/// pool.
struct Workload {
    rows: Vec<(Vec<BlockId>, usize)>,
    next_block: u32,
}

const SHARED_POOL: usize = 3;

impl Workload {
    fn seed() -> Self {
        let mut w = Workload {
            rows: Vec::new(),
            next_block: SHARED_POOL as u32,
        };
        // Two initial requests sharing the whole pool, distinct tails.
        w.arrive(SHARED_POOL, 5);
        w.arrive(SHARED_POOL, 21);
        w
    }

    fn arrive(&mut self, shared: usize, tail_tokens: usize) {
        let shared = shared.min(SHARED_POOL);
        let mut blocks: Vec<BlockId> = (0..shared as u32).map(BlockId).collect();
        let mut tokens = shared * BLOCK_SIZE;
        let tail_blocks = tail_tokens.div_ceil(BLOCK_SIZE);
        for _ in 0..tail_blocks {
            blocks.push(BlockId(self.next_block));
            self.next_block += 1;
        }
        tokens += tail_tokens;
        self.rows.push((blocks, tokens));
    }

    fn grow(&mut self, i: usize) {
        let (blocks, tokens) = &mut self.rows[i];
        if *tokens == blocks.len() * BLOCK_SIZE {
            blocks.push(BlockId(self.next_block));
            self.next_block += 1;
        }
        *tokens += 1;
    }

    fn apply(&mut self, op: &StepOp) {
        match *op {
            StepOp::Complete(i) => {
                // Keep at least one request so every step has a batch.
                if self.rows.len() > 1 {
                    let i = i % self.rows.len();
                    self.rows.remove(i);
                }
            }
            StepOp::GrowAll => {
                for i in 0..self.rows.len() {
                    self.grow(i);
                }
            }
            StepOp::GrowOne(i) => {
                let i = i % self.rows.len();
                self.grow(i);
            }
            StepOp::Arrive { shared, tail } => {
                if self.rows.len() < 8 {
                    self.arrive(shared, tail);
                }
            }
        }
    }

    fn batch(&self, head: HeadConfig) -> DecodeBatch {
        let tables = self
            .rows
            .iter()
            .map(|(blocks, tokens)| BlockTable::new(blocks.clone(), *tokens, BLOCK_SIZE))
            .collect();
        DecodeBatch::new(head, tables, 2)
    }
}

/// Runs `ops` through a [`LazyPat`] and a from-scratch [`PatBackend`] with
/// the same config, asserting plan and cost equality every step.
fn assert_lazy_matches_scratch(
    ops: &[StepOp],
    config: PatConfig,
    spec: &GpuSpec,
    head: HeadConfig,
) -> Result<(), TestCaseError> {
    let scratch = PatBackend::with_config(config);
    let mut lazy = LazyPat::with_backend(PatBackend::with_config(config));
    let mut workload = Workload::seed();
    for (step, op) in std::iter::once(None)
        .chain(ops.iter().map(Some))
        .enumerate()
    {
        if let Some(op) = op {
            workload.apply(op);
        }
        let batch = workload.batch(head);
        let lazy_plan = lazy.plan(&batch, spec);
        let from_scratch = scratch.plan(&batch, spec);
        prop_assert_eq!(
            &lazy_plan,
            &from_scratch,
            "plans diverged at step {} after {:?} (reuse={:?})",
            step,
            op,
            lazy.last_plan_reuse()
        );
        // The cost estimate recorded at planning time must match the
        // backend's from-scratch walk exactly.
        let cost = lazy.scheduling_cost_ns(&batch);
        prop_assert_eq!(cost.to_bits(), scratch.scheduling_cost_ns(&batch).to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary step sequences (completions, growth, arrivals) produce
    /// bit-identical plans whether planned lazily or from scratch, on every
    /// GPU model.
    #[test]
    fn lazy_plans_match_scratch_on_every_gpu(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        // head_dim 128 is feasible on every curated model (TPU-like included).
        let head = HeadConfig::new(32, 8, 128);
        for model in GpuModel::all() {
            assert_lazy_matches_scratch(&ops, PatConfig::default(), &model.spec(), head)?;
        }
    }

    /// Same equivalence under the autotuned tile policy and the non-default
    /// packing policies (the lazy path feeds `pack_from_forest`, which must
    /// dispatch identically to [`PatBackend::pack`] for every policy).
    #[test]
    fn lazy_plans_match_scratch_under_every_policy(
        ops in prop::collection::vec(op_strategy(), 1..8),
    ) {
        let spec = GpuSpec::a100_sxm4_80gb();
        for tile_policy in [TilePolicyKind::Heuristic, TilePolicyKind::Autotuned] {
            for packing in [
                PackingPolicy::MemoryProfit,
                PackingPolicy::ComputeCost,
                PackingPolicy::Naive,
            ] {
                let config = PatConfig { tile_policy, packing, ..PatConfig::default() };
                assert_lazy_matches_scratch(&ops, config, &spec, HeadConfig::new(8, 4, 32))?;
            }
        }
    }
}

/// A completion that crosses the §5.1 profit threshold: with five queries
/// under the shared node, `4 * s_i = 20 > l_u = 16` merges the group; after
/// one completes, `4 * 4 = 16 > 16` is false and the packer must split. The
/// completion changes the block-table structure, so the lazy scheduler must
/// not replay its frozen packing: it plans cold and flips the decision.
#[test]
fn profit_threshold_flip_is_replanned_cold() {
    let head = HeadConfig::new(8, 4, 32);
    let spec = GpuSpec::a100_sxm4_80gb();
    let scratch = PatBackend::new();
    let mut lazy = LazyPat::new();

    // Parent chain: block A (16 tokens). Five queries continue through B,
    // each with a private tail block; a sixth goes through C so the tree
    // keeps a fork above B and B stays an interior node.
    let a = BlockId(0);
    let b = BlockId(1);
    let c = BlockId(2);
    let tables = |n: usize| -> Vec<BlockTable> {
        let mut t: Vec<BlockTable> = (0..n)
            .map(|q| {
                BlockTable::new(
                    vec![a, b, BlockId(10 + q as u32)],
                    3 * BLOCK_SIZE,
                    BLOCK_SIZE,
                )
            })
            .collect();
        t.push(BlockTable::new(vec![a, c], 2 * BLOCK_SIZE, BLOCK_SIZE));
        t
    };

    let step1 = DecodeBatch::new(head, tables(5), 2);
    let plan1 = lazy.plan(&step1, &spec);
    assert_eq!(plan1, scratch.plan(&step1, &spec));
    assert_eq!(lazy.last_plan_reuse(), Some(PlanReuse::Cold));

    // Query 4 completes, flipping 4*s_i > l_u at B.
    let mut t2 = tables(5);
    t2.remove(4);
    let step2 = DecodeBatch::new(head, t2, 2);
    let plan2 = lazy.plan(&step2, &spec);
    assert_eq!(
        lazy.last_plan_reuse(),
        Some(PlanReuse::Cold),
        "a completion changes the structure: the frozen packing must not be replayed"
    );
    assert_eq!(plan2, scratch.plan(&step2, &spec));
    assert_ne!(
        plan1.ctas.len(),
        plan2.ctas.len(),
        "crossing the profit threshold must change the packing"
    );
}

//! Numeric plan executor: runs a [`KernelPlan`] through the exact attention
//! math and checks it against the naive reference.
//!
//! This is the correctness half of the reproduction: for *any* backend's plan
//! (PAT, baselines, ablations), executing pack → forward → merge numerically
//! must give the same output as unpacked attention.

use crate::{DecodeBatch, KernelPlan, KvStore, PlanError, QueryActivations};
use attn_math::{attend_segment, reference_attention, Matrix, PartialAttn};

/// Attention outputs: one `(num_heads × head_dim)` matrix per query.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnOutput {
    per_query: Vec<Matrix>,
}

impl AttnOutput {
    /// Output matrix of query `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn query(&self, q: usize) -> &Matrix {
        &self.per_query[q]
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.per_query.len()
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.per_query.is_empty()
    }

    /// Maximum absolute element difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &AttnOutput) -> f32 {
        assert_eq!(self.len(), other.len(), "query count mismatch");
        let mut worst = 0.0f32;
        for (a, b) in self.per_query.iter().zip(&other.per_query) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }
}

/// Executes `plan` numerically: each CTA attends its packed queries over its
/// KV slice (tiled by the CTA's `n`), partials are merged per (query, head)
/// — the §7 merge kernel — and normalized into final outputs.
///
/// # Errors
///
/// Returns [`PlanError`] if the plan does not cover the batch exactly.
///
/// # Panics
///
/// Panics if `store`/`acts` shapes disagree with the batch.
pub fn execute_numeric(
    batch: &DecodeBatch,
    acts: &QueryActivations,
    store: &KvStore,
    plan: &KernelPlan,
) -> Result<AttnOutput, PlanError> {
    plan.validate(batch)?;
    let head = batch.head();
    let (nh, d) = (head.num_heads(), head.head_dim());
    let bs = batch.block_size();
    let scale = head.scale();
    let mut partials: Vec<Vec<PartialAttn>> = (0..batch.num_queries())
        .map(|_| (0..nh).map(|_| PartialAttn::empty(d)).collect())
        .collect();

    for cta in &plan.ctas {
        if cta.kv.blocks.is_empty() {
            continue;
        }
        // Assemble the slice's K/V once per kv-head (the shared-memory load).
        for kvh in 0..head.num_kv_heads() {
            let mut keys = store.keys(cta.kv.blocks[0], kvh, cta.kv.tokens_in_block(0, bs));
            let mut values = store.values(cta.kv.blocks[0], kvh, cta.kv.tokens_in_block(0, bs));
            for (i, &b) in cta.kv.blocks.iter().enumerate().skip(1) {
                let t = cta.kv.tokens_in_block(i, bs);
                keys.append_rows(&store.keys(b, kvh, t));
                values.append_rows(&store.values(b, kvh, t));
            }
            for &q in &cta.queries {
                for h in head.q_heads_of(kvh) {
                    let part = attend_segment(acts.q(q, h), &keys, &values, scale, cta.tile.n);
                    partials[q][h].merge(&part);
                }
            }
        }
    }

    let per_query = finalize_partials(partials, nh, d)?;
    Ok(AttnOutput { per_query })
}

/// Finalizes the per-(query, head) accumulators into output rows. An empty
/// accumulator means the plan left a (query, head) unattended, which
/// `validate` should have rejected — surface it as a coverage error rather
/// than panicking.
fn finalize_partials(
    partials: Vec<Vec<PartialAttn>>,
    nh: usize,
    d: usize,
) -> Result<Vec<Matrix>, PlanError> {
    let mut per_query = Vec::with_capacity(partials.len());
    for (q, heads) in partials.into_iter().enumerate() {
        let mut out = Matrix::zeros(nh, d);
        for (h, p) in heads.iter().enumerate() {
            let row = p.finalize().map_err(|_| PlanError::CoverageMismatch {
                query: q,
                detail: format!("no CTA attended head {h}"),
            })?;
            out.row_mut(h).copy_from_slice(&row);
        }
        per_query.push(out);
    }
    Ok(per_query)
}

/// The unpacked reference: every query attends over its full KV sequence.
///
/// # Panics
///
/// Panics if `store`/`acts` shapes disagree with the batch.
pub fn reference_output(
    batch: &DecodeBatch,
    acts: &QueryActivations,
    store: &KvStore,
) -> AttnOutput {
    let head = batch.head();
    let (nh, d) = (head.num_heads(), head.head_dim());
    let scale = head.scale();
    let per_query = batch
        .tables()
        .iter()
        .enumerate()
        .map(|(q, table)| {
            let mut out = Matrix::zeros(nh, d);
            for kvh in 0..head.num_kv_heads() {
                let mut keys = store.keys(table.blocks()[0], kvh, table.tokens_in_block(0));
                let mut values = store.values(table.blocks()[0], kvh, table.tokens_in_block(0));
                for i in 1..table.blocks().len() {
                    let t = table.tokens_in_block(i);
                    keys.append_rows(&store.keys(table.blocks()[i], kvh, t));
                    values.append_rows(&store.values(table.blocks()[i], kvh, t));
                }
                for h in head.q_heads_of(kvh) {
                    let row = reference_attention(acts.q(q, h), &keys, &values, scale);
                    out.row_mut(h).copy_from_slice(&row);
                }
            }
            out
        })
        .collect();
    AttnOutput { per_query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtaPlan, KvSlice, TileConfig};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    fn setup() -> (DecodeBatch, QueryActivations, KvStore) {
        let head = HeadConfig::new(4, 2, 8);
        let tables = vec![
            BlockTable::new(vec![BlockId(0), BlockId(1), BlockId(2)], 40, 16),
            BlockTable::new(vec![BlockId(0), BlockId(1), BlockId(3)], 44, 16),
            BlockTable::new(vec![BlockId(0), BlockId(4)], 20, 16),
        ];
        let batch = DecodeBatch::new(head, tables, 2);
        let acts = QueryActivations::synthetic(head, 3, 11);
        let store = KvStore::synthetic_for(&batch, 17);
        (batch, acts, store)
    }

    fn slice(ids: &[u32], tokens: usize) -> KvSlice {
        KvSlice::new(ids.iter().map(|&i| BlockId(i)).collect(), tokens, 16)
    }

    fn cta(queries: &[usize], kv: KvSlice) -> CtaPlan {
        CtaPlan {
            queries: queries.to_vec(),
            kv,
            tile: TileConfig::new(16, 16),
            stream: 0,
            phase: 0,
        }
    }

    #[test]
    fn one_query_per_cta_matches_reference() {
        let (batch, acts, store) = setup();
        let plan = KernelPlan::new(vec![
            cta(&[0], slice(&[0, 1, 2], 40)),
            cta(&[1], slice(&[0, 1, 3], 44)),
            cta(&[2], slice(&[0, 4], 20)),
        ]);
        let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch, &acts, &store);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn prefix_packed_plan_matches_reference() {
        let (batch, acts, store) = setup();
        // Shared prefix [0] for all three; [1] shared by q0,q1; private tails.
        let plan = KernelPlan::new(vec![
            cta(&[0, 1, 2], slice(&[0], 16)),
            cta(&[0, 1], slice(&[1], 16)),
            cta(&[0], slice(&[2], 8)),
            cta(&[1], slice(&[3], 12)),
            cta(&[2], slice(&[4], 4)),
        ]);
        let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch, &acts, &store);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn kv_split_plan_matches_reference() {
        let (batch, acts, store) = setup();
        // Query 0's KV split across two CTAs at a block boundary.
        let plan = KernelPlan::new(vec![
            cta(&[0], slice(&[0, 1], 32)),
            cta(&[0], slice(&[2], 8)),
            cta(&[1], slice(&[0, 1, 3], 44)),
            cta(&[2], slice(&[0, 4], 20)),
        ]);
        let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch, &acts, &store);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let (batch, acts, store) = setup();
        let plan = KernelPlan::new(vec![cta(&[0], slice(&[0], 16))]);
        assert!(execute_numeric(&batch, &acts, &store, &plan).is_err());
    }

    #[test]
    fn tile_n_does_not_change_results() {
        let (batch, acts, store) = setup();
        let mk = |n: usize| {
            let mut plan = KernelPlan::new(vec![
                cta(&[0], slice(&[0, 1, 2], 40)),
                cta(&[1], slice(&[0, 1, 3], 44)),
                cta(&[2], slice(&[0, 4], 20)),
            ]);
            for c in &mut plan.ctas {
                c.tile = TileConfig::new(16, n);
            }
            execute_numeric(&batch, &acts, &store, &plan).unwrap()
        };
        assert!(mk(16).max_abs_diff(&mk(128)) < 1e-5);
    }
}

/// Parallel variant of [`execute_numeric`]: fans CTAs out across worker
/// threads with `std::thread` scoped threads, merging per-(query, head)
/// partials at the end. Bit-identical ordering is *not* guaranteed (merge
/// order differs), but online-softmax merging is order-insensitive up to
/// f32 rounding, which the tests bound.
///
/// # Errors
///
/// Returns [`PlanError`] if the plan does not cover the batch exactly.
///
/// # Panics
///
/// Panics if `store`/`acts` shapes disagree with the batch, or `threads`
/// is zero.
pub fn execute_numeric_parallel(
    batch: &DecodeBatch,
    acts: &QueryActivations,
    store: &KvStore,
    plan: &KernelPlan,
    threads: usize,
) -> Result<AttnOutput, PlanError> {
    assert!(threads > 0, "need at least one worker");
    plan.validate(batch)?;
    let head = batch.head();
    let (nh, d) = (head.num_heads(), head.head_dim());
    let bs = batch.block_size();
    let scale = head.scale();

    // Each worker owns a disjoint chunk of CTAs and produces its own partial
    // table; the main thread merges the tables.
    let chunk = plan.ctas.len().div_ceil(threads).max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "kernel-internal worker pool predating sim_core::par: CTA chunks are disjoint \
                  and partial tables merge in spawn order, so the result is thread-count invariant"
    )]
    let tables: Vec<Vec<Vec<PartialAttn>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .ctas
            .chunks(chunk)
            .map(|ctas| {
                scope.spawn(move || {
                    let mut partials: Vec<Vec<PartialAttn>> = (0..batch.num_queries())
                        .map(|_| (0..nh).map(|_| PartialAttn::empty(d)).collect())
                        .collect();
                    for cta in ctas {
                        if cta.kv.blocks.is_empty() {
                            continue;
                        }
                        for kvh in 0..head.num_kv_heads() {
                            let mut keys =
                                store.keys(cta.kv.blocks[0], kvh, cta.kv.tokens_in_block(0, bs));
                            let mut values =
                                store.values(cta.kv.blocks[0], kvh, cta.kv.tokens_in_block(0, bs));
                            for (i, &b) in cta.kv.blocks.iter().enumerate().skip(1) {
                                let t = cta.kv.tokens_in_block(i, bs);
                                keys.append_rows(&store.keys(b, kvh, t));
                                values.append_rows(&store.values(b, kvh, t));
                            }
                            for &q in &cta.queries {
                                for h in head.q_heads_of(kvh) {
                                    let part = attend_segment(
                                        acts.q(q, h),
                                        &keys,
                                        &values,
                                        scale,
                                        cta.tile.n,
                                    );
                                    partials[q][h].merge(&part);
                                }
                            }
                        }
                    }
                    partials
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker panic is re-raised on the caller's thread with its
            // original payload, not wrapped in a second panic message.
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut merged: Vec<Vec<PartialAttn>> = (0..batch.num_queries())
        .map(|_| (0..nh).map(|_| PartialAttn::empty(d)).collect())
        .collect();
    for table in &tables {
        for (q, heads) in table.iter().enumerate() {
            for (h, p) in heads.iter().enumerate() {
                merged[q][h].merge(p);
            }
        }
    }
    let per_query = finalize_partials(merged, nh, d)?;
    Ok(AttnOutput { per_query })
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::{CtaPlan, KvSlice, TileConfig};
    use attn_math::HeadConfig;
    use kv_cache::{BlockId, BlockTable};

    #[test]
    fn parallel_matches_sequential_and_reference() {
        let head = HeadConfig::new(8, 4, 16);
        let tables: Vec<BlockTable> = (0..12u32)
            .map(|q| {
                let mut ids: Vec<BlockId> = (0..6).map(BlockId).collect();
                ids.push(BlockId(100 + q));
                BlockTable::new(ids, 7 * 16 - 3, 16)
            })
            .collect();
        let batch = DecodeBatch::new(head, tables, 2);
        let acts = QueryActivations::synthetic(head, batch.num_queries(), 5);
        let store = KvStore::synthetic_for(&batch, 6);
        // Prefix-packed plan with a KV split for query 0.
        let mut ctas = vec![CtaPlan {
            queries: (0..12).collect(),
            kv: KvSlice::new((0..6).map(BlockId).collect(), 96, 16),
            tile: TileConfig::new(64, 16),
            stream: 0,
            phase: 0,
        }];
        for q in 0..12u32 {
            ctas.push(CtaPlan {
                queries: vec![q as usize],
                kv: KvSlice::new(vec![BlockId(100 + q)], 13, 16),
                tile: TileConfig::new(16, 16),
                stream: 1,
                phase: 0,
            });
        }
        let plan = KernelPlan::new(ctas);
        let sequential = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        for threads in [1, 2, 5, 16] {
            let parallel = execute_numeric_parallel(&batch, &acts, &store, &plan, threads).unwrap();
            assert!(
                parallel.max_abs_diff(&sequential) < 1e-5,
                "threads={threads}"
            );
        }
        let want = reference_output(&batch, &acts, &store);
        let got = execute_numeric_parallel(&batch, &acts, &store, &plan, 4).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn parallel_rejects_invalid_plans() {
        let head = HeadConfig::new(8, 4, 16);
        let batch = DecodeBatch::new(head, vec![BlockTable::new(vec![BlockId(0)], 16, 16)], 2);
        let acts = QueryActivations::synthetic(head, 1, 1);
        let store = KvStore::synthetic_for(&batch, 2);
        let empty = KernelPlan::new(vec![]);
        assert!(execute_numeric_parallel(&batch, &acts, &store, &empty, 4).is_err());
    }
}

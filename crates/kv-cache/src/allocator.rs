//! Reference-counted paged block allocator.
//!
//! Physical KV blocks are a fixed pool; prefix reuse (vLLM/SGLang style, §3.1)
//! maps the same physical block into many requests' block tables, tracked by
//! reference counts. Freeing decrements; blocks return to the free list at
//! zero.
//!
//! The pool hands out ids in the order a free list pre-filled with
//! `0..capacity` would: never-used ids in ascending order first, then
//! released ids in release order. It keeps only the never-used frontier (the
//! refcount table's length) and the released ids, so its memory tracks the
//! ids handed out, not the capacity.

use crate::BlockId;
use std::collections::VecDeque;
use std::fmt;

/// Errors from [`BlockAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The pool is exhausted.
    OutOfBlocks,
    /// The block is not currently allocated.
    NotAllocated(BlockId),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfBlocks => write!(f, "kv block pool exhausted"),
            AllocError::NotAllocated(b) => write!(f, "block {b} is not allocated"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A fixed pool of KV blocks with per-block reference counts.
///
/// # Examples
///
/// ```
/// use kv_cache::BlockAllocator;
///
/// let mut pool = BlockAllocator::new(4);
/// let b = pool.allocate()?;
/// pool.retain(b)?;            // share with a second request
/// pool.release(b)?;           // first request departs
/// assert_eq!(pool.free_blocks(), 3);
/// pool.release(b)?;           // last owner departs
/// assert_eq!(pool.free_blocks(), 4);
/// # Ok::<(), kv_cache::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    capacity: usize,
    /// Refcount of every id handed out so far; its length is the next
    /// never-used id.
    refcounts: Vec<u32>,
    /// Released ids, oldest release first.
    free: VecDeque<BlockId>,
}

impl BlockAllocator {
    /// Creates a pool of `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BlockAllocator {
            capacity,
            refcounts: Vec::new(),
            free: VecDeque::new(),
        }
    }

    /// Total pool capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.capacity - self.refcounts.len() + self.free.len()
    }

    /// Blocks currently allocated (refcount ≥ 1).
    pub fn used_blocks(&self) -> usize {
        self.capacity() - self.free_blocks()
    }

    /// Allocates a fresh block with refcount 1: the lowest never-used id
    /// while any remains, else the longest-released id.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfBlocks`] when the pool is exhausted.
    pub fn allocate(&mut self) -> Result<BlockId, AllocError> {
        if self.refcounts.len() < self.capacity {
            let block = BlockId(sim_core::cast::usize_to_u32(self.refcounts.len()));
            self.refcounts.push(1);
            return Ok(block);
        }
        let block = self.free.pop_front().ok_or(AllocError::OutOfBlocks)?;
        self.refcounts[block.0 as usize] = 1;
        Ok(block)
    }

    /// Increments the refcount of an allocated block (prefix sharing).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if the block is free.
    pub fn retain(&mut self, block: BlockId) -> Result<(), AllocError> {
        let rc = self
            .refcounts
            .get_mut(block.0 as usize)
            .ok_or(AllocError::NotAllocated(block))?;
        if *rc == 0 {
            return Err(AllocError::NotAllocated(block));
        }
        *rc += 1;
        Ok(())
    }

    /// Decrements the refcount; frees the block at zero.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if the block is already free.
    pub fn release(&mut self, block: BlockId) -> Result<(), AllocError> {
        let rc = self
            .refcounts
            .get_mut(block.0 as usize)
            .ok_or(AllocError::NotAllocated(block))?;
        if *rc == 0 {
            return Err(AllocError::NotAllocated(block));
        }
        *rc -= 1;
        if *rc == 0 {
            self.free.push_back(block);
        }
        Ok(())
    }

    /// Current refcount of `block` (0 if free or out of range).
    pub fn refcount(&self, block: BlockId) -> u32 {
        self.refcounts.get(block.0 as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_until_exhausted() {
        let mut pool = BlockAllocator::new(2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.allocate(), Err(AllocError::OutOfBlocks));
        pool.release(a).unwrap();
        assert!(pool.allocate().is_ok());
    }

    #[test]
    fn sharing_keeps_block_alive() {
        let mut pool = BlockAllocator::new(1);
        let b = pool.allocate().unwrap();
        pool.retain(b).unwrap();
        pool.retain(b).unwrap();
        assert_eq!(pool.refcount(b), 3);
        pool.release(b).unwrap();
        pool.release(b).unwrap();
        assert_eq!(pool.free_blocks(), 0);
        pool.release(b).unwrap();
        assert_eq!(pool.free_blocks(), 1);
    }

    #[test]
    fn double_release_is_an_error() {
        let mut pool = BlockAllocator::new(1);
        let b = pool.allocate().unwrap();
        pool.release(b).unwrap();
        assert_eq!(pool.release(b), Err(AllocError::NotAllocated(b)));
    }

    #[test]
    fn retain_of_free_block_is_an_error() {
        let mut pool = BlockAllocator::new(1);
        assert_eq!(
            pool.retain(BlockId(0)),
            Err(AllocError::NotAllocated(BlockId(0)))
        );
        assert_eq!(
            pool.retain(BlockId(9)),
            Err(AllocError::NotAllocated(BlockId(9)))
        );
    }

    /// The pre-filled free list the lazy pool replaces, as an oracle.
    struct PrefilledPool {
        refcounts: Vec<u32>,
        free: VecDeque<BlockId>,
    }

    impl PrefilledPool {
        fn new(capacity: u32) -> Self {
            PrefilledPool {
                refcounts: vec![0; capacity as usize],
                free: (0..capacity).map(BlockId).collect(),
            }
        }

        fn allocate(&mut self) -> Option<BlockId> {
            let block = self.free.pop_front()?;
            self.refcounts[block.0 as usize] = 1;
            Some(block)
        }

        fn release(&mut self, block: BlockId) {
            self.refcounts[block.0 as usize] -= 1;
            if self.refcounts[block.0 as usize] == 0 {
                self.free.push_back(block);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Allocation order, refcounts and errors match a free list
        /// pre-filled with `0..capacity`, under random churn.
        #[test]
        fn hands_out_ids_in_prefilled_order(
            capacity in 1u32..24,
            ops in prop::collection::vec((0u8..3, 0usize..64), 1..200),
        ) {
            let mut pool = BlockAllocator::new(capacity as usize);
            let mut model = PrefilledPool::new(capacity);
            let mut held: Vec<BlockId> = Vec::new();
            for (kind, pick) in ops {
                match kind {
                    0 => {
                        let got = pool.allocate().ok();
                        prop_assert_eq!(got, model.allocate());
                        held.extend(got);
                    }
                    1 if !held.is_empty() => {
                        let block = held[pick % held.len()];
                        pool.retain(block).unwrap();
                        model.refcounts[block.0 as usize] += 1;
                        held.push(block);
                    }
                    _ if !held.is_empty() => {
                        let block = held.swap_remove(pick % held.len());
                        pool.release(block).unwrap();
                        model.release(block);
                    }
                    _ => {}
                }
                prop_assert_eq!(pool.free_blocks(), model.free.len());
                for id in 0..capacity + 2 {
                    let block = BlockId(id);
                    let want = model.refcounts.get(id as usize).copied().unwrap_or(0);
                    prop_assert_eq!(pool.refcount(block), want);
                    if want == 0 {
                        prop_assert_eq!(
                            pool.retain(block),
                            Err(AllocError::NotAllocated(block))
                        );
                        prop_assert_eq!(
                            pool.release(block),
                            Err(AllocError::NotAllocated(block))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn used_plus_free_is_capacity() {
        let mut pool = BlockAllocator::new(8);
        let mut held = Vec::new();
        for _ in 0..5 {
            held.push(pool.allocate().unwrap());
        }
        assert_eq!(pool.used_blocks() + pool.free_blocks(), 8);
        assert_eq!(pool.used_blocks(), 5);
    }
}

//! # kv-cache — paged KV cache with prefix reuse
//!
//! The serving-system substrate of the PAT reproduction: vLLM-style paged KV
//! blocks ([`BlockAllocator`], [`BlockTable`]), content-hash prefix reuse
//! across requests ([`CacheManager`]), the block-chain hash every prefix
//! probe shares ([`PrefixProbe`]), the tree-structure block table of the
//! pack scheduler ([`PrefixForest`], Fig. 7b), and shared-prefix statistics
//! ([`stats`], Fig. 4).
//!
//! ## Example
//!
//! ```
//! use kv_cache::{CacheManager, PrefixForest};
//!
//! let mut cache = CacheManager::new(256, 16);
//! let system_prompt: Vec<u32> = (0..64).collect();
//! let mut tables = Vec::new();
//! for req in 0..4u32 {
//!     let mut tokens = system_prompt.clone();
//!     tokens.extend(1000 * req..1000 * req + 32);
//!     tables.push(cache.insert_sequence(&tokens)?);
//! }
//! let forest = PrefixForest::from_block_tables(&tables);
//! assert_eq!(forest.roots().len(), 1); // all four share the system prompt
//! # Ok::<(), kv_cache::AllocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod allocator;
mod block;
mod cache_manager;
mod prefix_tree;
mod probe;
pub mod stats;

pub use allocator::{AllocError, BlockAllocator};
pub use block::{BlockId, BlockTable, DEFAULT_BLOCK_SIZE};
pub use cache_manager::{CacheManager, CacheStats, IngestReport, Token};
pub use prefix_tree::{PrefixForest, PrefixNode};
pub use probe::PrefixProbe;
pub use stats::BatchPrefixStats;

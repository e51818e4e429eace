//! Regenerates the committed autotuned tile cache.
//!
//! ```text
//! cargo run --release -p pat-core --bin tune             # rewrite tile_cache.json
//! cargo run --release -p pat-core --bin tune -- --check  # fail if it would change
//! ```
//!
//! Tuning is deterministic (fixed hardware-model order, fixed candidate
//! grid, thread-count-invariant parallel map, no entropy), so `--check` is
//! a byte-level drift ratchet: it fails exactly when a kernel-simulator or
//! tile-solver change shifted a tuned choice, forcing the new cache
//! through review like any other baseline change.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use pat_core::{generate_tile_cache, COMMITTED_TILE_CACHE_JSON};
use std::path::Path;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let regenerated = generate_tile_cache().to_canonical_json();
    if check {
        if regenerated == COMMITTED_TILE_CACHE_JSON {
            println!(
                "tile_cache.json is up to date ({} bytes)",
                regenerated.len()
            );
            return;
        }
        eprintln!(
            "tile_cache.json drifted from regeneration.\n\
             If a kernel-simulator or tile-solver change is intentional, rerun\n\
             `cargo run --release -p pat-core --bin tune` and commit the diff."
        );
        std::process::exit(1);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tile_cache.json");
    match std::fs::write(&path, &regenerated) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), regenerated.len()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

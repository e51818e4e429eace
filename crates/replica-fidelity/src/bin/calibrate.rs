//! Regenerates the committed analytical calibration table.
//!
//! ```text
//! cargo run --release -p replica-fidelity --bin calibrate          # rewrite calibration.json
//! cargo run --release -p replica-fidelity --bin calibrate -- --check   # fail if it would change
//! ```
//!
//! Generation is deterministic (fixed grid, fixed fit order, no entropy),
//! so `--check` is a byte-level drift ratchet: it fails exactly when a
//! kernel-simulator or cost-model change shifted the fit, forcing the new
//! coefficients through review like any other baseline change.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use replica_fidelity::calibration::{generate_table, COMMITTED_JSON};
use std::path::Path;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let regenerated = generate_table().to_canonical_json();
    if check {
        if regenerated == COMMITTED_JSON {
            println!(
                "calibration.json is up to date ({} bytes)",
                regenerated.len()
            );
            return;
        }
        eprintln!(
            "calibration.json drifted from regeneration.\n\
             If a kernel-simulator or cost change is intentional, rerun\n\
             `cargo run --release -p replica-fidelity --bin calibrate` and commit the diff."
        );
        std::process::exit(1);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("calibration.json");
    match std::fs::write(&path, &regenerated) {
        Ok(()) => println!("wrote {} ({} bytes)", path.display(), regenerated.len()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

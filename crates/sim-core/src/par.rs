//! Blessed deterministic parallelism for the simulation stack.
//!
//! Replicas in the `controller` fleet loop are independent between fleet
//! event barriers, and bench scenario grids are embarrassingly parallel —
//! but raw `std::thread` use inside simulation crates is a determinism hazard
//! (rule R6, DESIGN.md §2b): ad-hoc threading invites order-dependent merges.
//! This module is the single sanctioned escape hatch. Its contract:
//!
//! * **Ordered merge.** [`ordered_map`] assigns contiguous input chunks to
//!   workers and concatenates the results in input order; [`for_each_mut`]
//!   mutates disjoint chunks in place. Output is *bit-identical* for any
//!   worker count, including the sequential fallback.
//! * **Worker count** comes from the `PAT_SIM_THREADS` environment variable
//!   (default: available parallelism, capped at 8). `PAT_SIM_THREADS=1`
//!   runs inline on the caller's thread with no spawns at all.
//! * **Panic transparency.** A worker panic is resumed on the caller via
//!   [`std::panic::resume_unwind`], exactly as if the closure had panicked
//!   inline.
//!
//! The implementation mirrors `attn_kernel::numeric`'s scoped-thread style:
//! `std::thread::scope`, contiguous chunking, join-in-spawn-order.
//!
//! ```
//! use sim_core::par;
//!
//! let items = vec![1u64, 2, 3, 4, 5];
//! let doubled = par::ordered_map(&items, |_i, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8, 10]); // same for any PAT_SIM_THREADS
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Test-only override of the worker count (0 = no override). Lets the
/// determinism proptests pin 1 vs N threads within one process without
/// mutating the environment (which is unsafe under a threaded test runner).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins the worker count for the current process, overriding
/// `PAT_SIM_THREADS`; `None` removes the override. Intended for tests that
/// compare runs at different thread counts — results are thread-count
/// invariant by construction, so a concurrently-running test observing the
/// override is unaffected.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count every `par` entry point uses: the test override if set,
/// else the `PAT_SIM_THREADS` knob if parseable and non-zero, else available
/// parallelism capped at 8 (fleet work units are coarse; more workers only
/// add spawn overhead). Always at least 1.
pub fn configured_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Some(n) = crate::knobs::usize_knob("PAT_SIM_THREADS") {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Maps `f` over `items`, returning results in input order. `f` receives
/// the item's index and a shared reference. With one worker (or one item)
/// this runs inline with no thread spawns; otherwise contiguous chunks run
/// on scoped threads and the per-chunk result vectors are concatenated in
/// chunk order, so the output is identical for every worker count.
pub fn ordered_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = configured_threads().min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    let mut out = Vec::with_capacity(items.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned ordered scoped-thread helper"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                let base = ci * chunk;
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(base + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Applies `f` to every item by mutable reference, in parallel over
/// contiguous disjoint chunks. `f` receives the item's index. Because each
/// worker owns a disjoint `&mut` chunk and `f` sees one item at a time,
/// the post-state is identical to the sequential loop for every worker
/// count — parallelism only reorders wall-clock execution of independent
/// items, never their individual outcomes.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = configured_threads().min(items.len()).max(1);
    if threads == 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads).max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned ordered scoped-thread helper"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                let base = ci * chunk;
                scope.spawn(move || {
                    for (j, t) in slice.iter_mut().enumerate() {
                        f(base + j, t);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            set_thread_override(Some(threads));
            assert_eq!(ordered_map(&items, |_, &x| x * 3 + 1), expect);
        }
        set_thread_override(None);
    }

    #[test]
    fn ordered_map_passes_true_indices() {
        set_thread_override(Some(4));
        let items = vec![(); 31];
        let idx = ordered_map(&items, |i, _| i);
        assert_eq!(idx, (0..31).collect::<Vec<_>>());
        set_thread_override(None);
    }

    #[test]
    fn for_each_mut_matches_sequential_loop() {
        let mut seq: Vec<u64> = (0..53).collect();
        for (i, v) in seq.iter_mut().enumerate() {
            *v = *v * 7 + i as u64;
        }
        for threads in [1, 2, 4, 53] {
            let mut par: Vec<u64> = (0..53).collect();
            set_thread_override(Some(threads));
            for_each_mut(&mut par, |i, v| *v = *v * 7 + i as u64);
            assert_eq!(par, seq);
        }
        set_thread_override(None);
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        set_thread_override(Some(4));
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(&empty, |_, &x| x).is_empty());
        assert_eq!(ordered_map(&[42u32], |_, &x| x + 1), vec![43]);
        let mut one = [7u32];
        for_each_mut(&mut one, |_, v| *v += 1);
        assert_eq!(one, [8]);
        set_thread_override(None);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        set_thread_override(Some(2));
        let caught = std::panic::catch_unwind(|| {
            ordered_map(&[1u32, 2, 3, 4], |_, &x| {
                assert!(x != 3, "boom");
                x
            })
        });
        set_thread_override(None);
        assert!(caught.is_err());
    }
}

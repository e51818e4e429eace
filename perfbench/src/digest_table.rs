//! Committed payload digests (`digests.txt`), one line per trace:
//! `<workload> <trace seed> <digest>`, covering the traces of run seeds
//! 0-15. Regenerate with `perfbench --record-digests 16` only when a change
//! is meant to alter simulated output; a run whose payload differs from its
//! committed digest reports `"correct": false`.

use crate::workload::Workload;

const TABLE: &str = include_str!("../digests.txt");

/// The committed digest of `workload`'s trace `seed`, if recorded.
pub fn lookup(workload: Workload, seed: u64) -> Option<u64> {
    TABLE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let name = fields.next()?;
        let s: u64 = fields.next()?.parse().ok()?;
        let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
        (name == workload.name() && s == seed).then_some(digest)
    })
}

//! The `PAT_*` knob registry: every environment knob declared exactly once.
//!
//! Reproducibility claims ("byte-identical fleet runs per seed") are only as
//! strong as the set of hidden inputs, and environment variables are the
//! easiest hidden input to lose track of. This module is the workspace's
//! single source of truth for configuration knobs:
//!
//! * every knob is **declared once** in [`KNOBS`] — name, type, default,
//!   parser (the [`KnobKind`] validation), scope, and a one-line doc;
//! * every knob is **read once**, through [`raw`] — the only sanctioned
//!   `std::env::var` call site in the workspace (rule **R7**, DESIGN.md
//!   §2b, bans raw reads everywhere else);
//! * every run can **record its configuration**: [`snapshot`] captures the
//!   effective value of every knob, and [`Snapshot::artifact_entries`]
//!   yields the output-affecting subset that bench JSON artifacts and
//!   Chrome traces embed, so an artifact proves which configuration
//!   produced it.
//!
//! ## Output-affecting vs performance-only knobs
//!
//! Each knob declares a [`KnobScope`]. `Output` knobs change *what* is
//! simulated (hardware model, tile policy, replica fidelity, smoke
//! scenarios) and are embedded in artifacts. `PerfOnly` knobs change only
//! *how fast* the host simulates — today only the worker count — and
//! are excluded from artifact snapshots *by contract*: CI regenerates the
//! smoke artifacts at `PAT_SIM_THREADS=1` and `4` and asserts byte
//! identity, which is exactly the proof that the exclusion is sound.
//!
//! ## Test overrides
//!
//! Mutating the process environment is unsafe under a threaded test runner,
//! so tests pin knob values with [`set_override`] instead; [`raw`] consults
//! the override map before the environment.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// How a knob's raw string value is validated and interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A non-negative integer (`usize`).
    Usize,
    /// A boolean flag: set-and-non-empty-and-not-`"0"` means on.
    Flag,
    /// One of a fixed set of case-insensitive names.
    Choice(&'static [&'static str]),
}

/// Whether a knob can change simulation *outputs* or only host performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobScope {
    /// Changes what is simulated; embedded in bench artifacts and traces.
    Output,
    /// Changes only host wall-clock (the worker count); excluded
    /// from artifact snapshots, with the exclusion verified by CI's
    /// cross-thread byte-identity checks.
    PerfOnly,
}

/// One declared environment knob.
#[derive(Debug, Clone, Copy)]
pub struct KnobDef {
    /// Environment variable name (`PAT_*`).
    pub name: &'static str,
    /// Value type and parser.
    pub kind: KnobKind,
    /// Effective value when unset (or unparseable), as a display string.
    pub default: &'static str,
    /// Output-affecting or performance-only.
    pub scope: KnobScope,
    /// One-line description for the generated README table.
    pub doc: &'static str,
}

/// Every `PAT_*` knob the workspace reads, in fixed report order.
pub const KNOBS: &[KnobDef] = &[
    KnobDef {
        name: "PAT_SIM_THREADS",
        kind: KnobKind::Usize,
        default: "auto",
        scope: KnobScope::PerfOnly,
        doc: "Worker count for `sim_core::par` (0/unset = `min(cores, 8)`; \
              outputs are bit-identical at any value)",
    },
    KnobDef {
        name: "PAT_BENCH_SMOKE",
        kind: KnobKind::Flag,
        default: "0",
        scope: KnobScope::Output,
        doc: "Run scaled-down bench scenarios (CI smoke mode); committed \
              artifacts are never overwritten in smoke mode",
    },
    KnobDef {
        name: "PAT_REPLICA_FIDELITY",
        kind: KnobKind::Choice(&["exact", "analytical"]),
        default: "exact",
        scope: KnobScope::Output,
        doc: "Default replica model for fleet simulations",
    },
    KnobDef {
        name: "PAT_GPU_MODEL",
        kind: KnobKind::Choice(&["v100", "a100", "h100", "b200", "tpu"]),
        default: "a100",
        scope: KnobScope::Output,
        doc: "Hardware model for env-constructed engines (`sim_gpu::GpuModel`)",
    },
    KnobDef {
        name: "PAT_TILE_POLICY",
        kind: KnobKind::Choice(&["heuristic", "autotuned"]),
        default: "heuristic",
        scope: KnobScope::Output,
        doc: "PAT's per-CTA tile choice: the \u{a7}5.2 decision tree or the \
              committed per-hardware autotuned cache",
    },
];

/// Looks up a knob's declaration. Panics on unregistered names — reading an
/// undeclared knob is a programming error the registry exists to prevent.
pub fn def(name: &str) -> &'static KnobDef {
    match KNOBS.iter().find(|k| k.name == name) {
        Some(d) => d,
        None => panic!("`{name}` is not a registered knob; declare it in sim_core::knobs::KNOBS"),
    }
}

fn overrides() -> &'static Mutex<BTreeMap<String, Option<String>>> {
    static OVERRIDES: OnceLock<Mutex<BTreeMap<String, Option<String>>>> = OnceLock::new();
    OVERRIDES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Pins a knob's value for the current process (test hook), overriding the
/// environment; `Some(None)`-style removal: pass `None` to clear the
/// override, `Some("")` to simulate an empty variable. Overrides exist
/// because `std::env::set_var` is unsafe under a threaded test runner.
pub fn set_override(name: &str, value: Option<&str>) {
    let _ = def(name); // unregistered names fail fast
    let mut map = match overrides().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    match value {
        Some(v) => map.insert(name.to_string(), Some(v.to_string())),
        None => map.remove(name),
    };
}

/// The raw string value of a registered knob: the test override if set,
/// else the process environment. `None` when unset. This is the only
/// sanctioned `std::env::var` call site in the workspace.
#[expect(
    clippy::disallowed_methods,
    reason = "the registry's one environment read"
)]
pub fn raw(name: &str) -> Option<String> {
    let _ = def(name);
    {
        let map = match overrides().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(v) = map.get(name) {
            return v.clone();
        }
    }
    std::env::var(name).ok()
}

/// A `Usize` knob's parsed value; `None` when unset or unparseable.
pub fn usize_knob(name: &str) -> Option<usize> {
    debug_assert_eq!(
        def(name).kind,
        KnobKind::Usize,
        "{name} is not a Usize knob"
    );
    raw(name).and_then(|v| v.trim().parse::<usize>().ok())
}

/// A `Flag` knob: true when set, non-empty, and not `"0"`.
pub fn flag(name: &str) -> bool {
    debug_assert_eq!(def(name).kind, KnobKind::Flag, "{name} is not a Flag knob");
    raw(name).is_some_and(|v| !v.is_empty() && v != "0")
}

/// A `Choice` knob's normalized (trimmed, lowercased) value when it names a
/// declared choice; `None` when unset or unrecognized, in which case the
/// caller falls back to its default.
pub fn choice(name: &str) -> Option<String> {
    let d = def(name);
    let KnobKind::Choice(allowed) = d.kind else {
        debug_assert!(false, "{name} is not a Choice knob");
        return None;
    };
    let v = raw(name)?.trim().to_ascii_lowercase();
    allowed.contains(&v.as_str()).then_some(v)
}

/// The effective value of one knob: the validated environment/override
/// value if present, else the declared default. `explicit` records whether
/// the environment actually supplied it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobValue {
    /// Knob name (`PAT_*`).
    pub name: &'static str,
    /// Effective (validated) value as a display string.
    pub value: String,
    /// True when the value came from the environment or an override.
    pub explicit: bool,
    /// The knob's declared scope.
    pub scope: KnobScope,
}

/// The effective configuration of every registered knob at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-knob effective values, in [`KNOBS`] order.
    pub values: Vec<KnobValue>,
}

impl Snapshot {
    /// `(name, effective value)` pairs for the output-affecting knobs — the
    /// subset bench artifacts and Chrome traces embed. Performance-only
    /// knobs are excluded by contract (see the module docs).
    pub fn artifact_entries(&self) -> Vec<(String, String)> {
        self.values
            .iter()
            .filter(|v| v.scope == KnobScope::Output)
            .map(|v| (v.name.to_string(), v.value.clone()))
            .collect()
    }

    /// The output-affecting subset as an ordered map, ready for JSON
    /// embedding (`"knobs": { ... }` in bench artifacts).
    pub fn artifact_map(&self) -> BTreeMap<String, String> {
        self.artifact_entries().into_iter().collect()
    }

    /// The output-affecting subset rendered as a compact JSON object, for
    /// exporters that hand-roll their JSON (Chrome traces).
    pub fn artifact_json(&self) -> String {
        let entries: Vec<String> = self
            .artifact_entries()
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        format!("{{{}}}", entries.join(","))
    }

    /// The effective value of one knob in this snapshot.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.value.as_str())
    }
}

/// Captures the effective value of every registered knob. Invalid
/// environment values (unparseable numbers, unrecognized choices) collapse
/// to the declared default with `explicit: false`, mirroring what every
/// reader's fallback actually does.
pub fn snapshot() -> Snapshot {
    let values = KNOBS
        .iter()
        .map(|d| {
            let (value, explicit) = match d.kind {
                KnobKind::Usize => match usize_knob(d.name) {
                    Some(v) => (v.to_string(), true),
                    None => (d.default.to_string(), false),
                },
                KnobKind::Flag => {
                    let set = raw(d.name).is_some();
                    let on = flag(d.name);
                    (if on { "1" } else { "0" }.to_string(), set)
                }
                KnobKind::Choice(_) => match choice(d.name) {
                    Some(v) => (v, true),
                    None => (d.default.to_string(), false),
                },
            };
            KnobValue {
                name: d.name,
                value,
                explicit,
                scope: d.scope,
            }
        })
        .collect();
    Snapshot { values }
}

/// Renders the registry as the markdown table behind the README
/// "Performance knobs" section (a unit test diffs it against the README,
/// so docs cannot drift from code).
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| Knob | Type | Default | Scope | Effect |\n\
         |------|------|---------|-------|--------|\n",
    );
    for d in KNOBS {
        let kind = match d.kind {
            KnobKind::Usize => "integer".to_string(),
            KnobKind::Flag => "flag".to_string(),
            KnobKind::Choice(allowed) => allowed.join(" \\| "),
        };
        let scope = match d.scope {
            KnobScope::Output => "output",
            KnobScope::PerfOnly => "perf-only",
        };
        let doc: String = d.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} | {} |\n",
            d.name, kind, d.default, scope, doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    #[test]
    fn every_knob_default_passes_its_own_parser() {
        for d in KNOBS {
            match d.kind {
                KnobKind::Usize => {
                    // "auto" is the one symbolic default (meaning: derived).
                    assert!(
                        d.default == "auto" || d.default.parse::<usize>().is_ok(),
                        "{}: default `{}` unparseable",
                        d.name,
                        d.default
                    );
                }
                KnobKind::Flag => assert!(matches!(d.default, "0" | "1"), "{}", d.name),
                KnobKind::Choice(allowed) => {
                    assert!(
                        allowed.contains(&d.default),
                        "{}: default not a choice",
                        d.name
                    )
                }
            }
            assert!(
                d.name.starts_with("PAT_"),
                "{}: knobs are PAT_-prefixed",
                d.name
            );
            assert!(!d.doc.is_empty(), "{}: doc required", d.name);
        }
    }

    #[test]
    fn knob_names_are_unique_and_ordered_stably() {
        let mut names: Vec<&str> = KNOBS.iter().map(|d| d.name).collect();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate knob declaration");
    }

    /// Serializes the tests that pin `PAT_SIM_THREADS`: overrides are
    /// process-global and the test runner is threaded.
    static SIM_THREADS_PIN: Mutex<()> = Mutex::new(());

    #[test]
    fn overrides_shadow_environment_and_clear() {
        let _pin = SIM_THREADS_PIN
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        set_override("PAT_SIM_THREADS", Some("3"));
        assert_eq!(usize_knob("PAT_SIM_THREADS"), Some(3));
        let snap = snapshot();
        assert_eq!(snap.get("PAT_SIM_THREADS"), Some("3"));
        set_override("PAT_SIM_THREADS", None);
    }

    #[test]
    fn invalid_values_collapse_to_defaults_in_snapshots() {
        let _pin = SIM_THREADS_PIN
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        set_override("PAT_GPU_MODEL", Some("mi300"));
        set_override("PAT_SIM_THREADS", Some("not-a-number"));
        let snap = snapshot();
        assert_eq!(snap.get("PAT_GPU_MODEL"), Some("a100"));
        assert_eq!(snap.get("PAT_SIM_THREADS"), Some("auto"));
        assert!(!snap
            .values
            .iter()
            .any(|v| v.name == "PAT_GPU_MODEL" && v.explicit));
        set_override("PAT_GPU_MODEL", None);
        set_override("PAT_SIM_THREADS", None);
    }

    #[test]
    fn artifact_snapshot_excludes_perf_only_knobs() {
        let snap = snapshot();
        let map = snap.artifact_map();
        assert!(!map.contains_key("PAT_SIM_THREADS"));
        for name in [
            "PAT_BENCH_SMOKE",
            "PAT_REPLICA_FIDELITY",
            "PAT_GPU_MODEL",
            "PAT_TILE_POLICY",
        ] {
            assert!(
                map.contains_key(name),
                "{name} missing from artifact snapshot"
            );
        }
        let json = snap.artifact_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"PAT_GPU_MODEL\""));
    }

    #[test]
    fn markdown_table_covers_every_knob() {
        let table = markdown_table();
        for d in KNOBS {
            assert!(table.contains(d.name), "{} missing from table", d.name);
        }
        assert_eq!(
            table.lines().count(),
            KNOBS.len() + 2,
            "header + one row per knob"
        );
        let readme = include_str!("../../../README.md");
        let (_, rest) = readme
            .split_once("<!-- knobs:begin -->")
            .expect("README has the knobs:begin marker");
        let (embedded, _) = rest
            .split_once("<!-- knobs:end -->")
            .expect("README has the knobs:end marker");
        assert!(
            embedded.trim() == table.trim(),
            "the README knob table is out of date; paste this between its knob markers:\n{table}"
        );
    }

    #[test]
    fn unregistered_knob_names_fail_fast() {
        assert!(std::panic::catch_unwind(|| raw("PAT_NOT_A_KNOB")).is_err());
    }
}

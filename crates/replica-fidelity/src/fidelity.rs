//! Fidelity selection: which replica model a fleet slot runs.

use serde::Serialize;
use std::fmt;

/// Environment variable selecting the default replica fidelity
/// (`exact` or `analytical`; unset means `exact`).
pub const FIDELITY_ENV: &str = "PAT_REPLICA_FIDELITY";

/// Simulation fidelity of one replica slot.
///
/// Ordered from most to least expensive; see the crate docs for what each
/// level models and when it is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub enum Fidelity {
    /// Full serving engine over the kernel simulator (the reference).
    #[default]
    Exact,
    /// Closed-form calibrated cost model; no kernel simulation at all.
    Analytical,
}

impl Fidelity {
    /// Parses a fidelity name (`"exact"`, `"analytical"`,
    /// case-insensitive). Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<Fidelity> {
        match name.trim().to_ascii_lowercase().as_str() {
            "exact" => Some(Fidelity::Exact),
            "analytical" => Some(Fidelity::Analytical),
            _ => None,
        }
    }

    /// Canonical lowercase name (`"exact"`, `"analytical"`).
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Analytical => "analytical",
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The fidelity selected by [`FIDELITY_ENV`], defaulting to
/// [`Fidelity::Exact`] when unset or unrecognized.
pub fn fidelity_from_env() -> Fidelity {
    sim_core::knobs::raw(FIDELITY_ENV)
        .and_then(|v| Fidelity::parse(&v))
        .unwrap_or(Fidelity::Exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_canonical_names() {
        for f in [Fidelity::Exact, Fidelity::Analytical] {
            assert_eq!(Fidelity::parse(f.name()), Some(f));
            assert_eq!(Fidelity::parse(&f.name().to_uppercase()), Some(f));
        }
        assert_eq!(Fidelity::parse("kernel"), None);
        // The removed Replay fidelity's name falls back like any other.
        assert_eq!(Fidelity::parse("replay"), None);
        assert_eq!(Fidelity::parse(""), None);
    }

    #[test]
    fn ordering_is_most_to_least_expensive() {
        assert!(Fidelity::Exact < Fidelity::Analytical);
    }
}

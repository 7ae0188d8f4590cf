//! The stream-name registry: the single source of truth for every named
//! RNG stream a `SimContext` may hand out.
//!
//! PR 1's determinism contract says a stream's draw sequence is a pure
//! function of `(root seed, stream name)`. That contract is only
//! auditable if the set of names is *closed*: a typo'd
//! `ctx.stream("moton")` silently mints a fresh, unreviewed stream whose
//! draws decorrelate from every golden hash downstream. This registry
//! closes the set. `hlisa-lint`'s `stream-name-registry` rule rejects any
//! `stream("...")` call site whose name is not listed here, and the
//! determinism ledger (`LINT_LEDGER.json`) groups every call site by
//! these names — so adding a stream is an explicit, reviewed diff in
//! exactly one place.

/// One registered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// The name passed to [`crate::SimContext::stream`].
    pub name: &'static str,
    /// The crate that owns the stream's draw discipline.
    pub owner: &'static str,
    /// What the stream decides.
    pub purpose: &'static str,
}

/// Every stream name a `SimContext` may be asked for, sorted by name.
///
/// Keep this sorted: [`is_registered`] binary-searches it, and the lint
/// ledger renders it in this order.
pub const STREAM_REGISTRY: &[StreamInfo] = &[
    StreamInfo {
        name: "agent",
        owner: "hlisa-human",
        purpose: "HumanAgent task-level decisions (reading pauses, idle gestures)",
    },
    StreamInfo {
        name: "behavior",
        owner: "hlisa",
        purpose: "behavioural extras (overshoot, hesitation, micro-pauses)",
    },
    StreamInfo {
        name: "chain",
        owner: "hlisa",
        purpose: "action-chain composition (inter-action gaps, orderings)",
    },
    StreamInfo {
        name: "click",
        owner: "hlisa-human",
        purpose: "click dwell times and in-element offset sampling",
    },
    StreamInfo {
        name: "cursor",
        owner: "hlisa-human",
        purpose: "cursor trajectory synthesis (jerk profiles, waypoint jitter)",
    },
    StreamInfo {
        name: "detector",
        owner: "hlisa-detect",
        purpose: "reserved: generative detector-zoo parameterisation (ROADMAP)",
    },
    StreamInfo {
        name: "fault",
        owner: "hlisa-sim",
        purpose:
            "deterministic fault plane (injection, backoff jitter, measurement-loss schedules)",
    },
    StreamInfo {
        name: "graph",
        owner: "hlisa-web",
        purpose: "site link-graph generation (fanout, link targets)",
    },
    StreamInfo {
        name: "motion",
        owner: "hlisa",
        purpose: "pointer motion planning (curves, velocity profiles)",
    },
    StreamInfo {
        name: "naive",
        owner: "hlisa",
        purpose: "the naive simulator rung's fixed-delay jitter",
    },
    StreamInfo {
        name: "population",
        owner: "hlisa-web",
        purpose: "site population sampling (roles, scenario deals)",
    },
    StreamInfo {
        name: "scroll",
        owner: "hlisa-human",
        purpose: "scroll burst lengths, tick spacing, finger breaks",
    },
    StreamInfo {
        name: "site",
        owner: "hlisa-web",
        purpose: "per-site page synthesis (element mix, honey placement)",
    },
    StreamInfo {
        name: "traverse",
        owner: "hlisa-web",
        purpose: "traversal walks (interest-driven page choice, dwell draws)",
    },
    StreamInfo {
        name: "typing",
        owner: "hlisa-human",
        purpose: "typing cadence (inter-key intervals, dwell, typo model)",
    },
    StreamInfo {
        name: "visit",
        owner: "hlisa-web",
        purpose: "per-visit draws (timeline jitter, outcome sampling)",
    },
];

/// True when `name` is a registered stream name.
pub fn is_registered(name: &str) -> bool {
    STREAM_REGISTRY
        .binary_search_by(|s| s.name.cmp(name))
        .is_ok()
}

/// Looks up a registry entry by name.
#[cfg(test)]
pub fn stream_info(name: &str) -> Option<&'static StreamInfo> {
    STREAM_REGISTRY
        .binary_search_by(|s| s.name.cmp(name))
        .ok()
        .map(|i| &STREAM_REGISTRY[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_is_sorted_and_unique() {
        for w in STREAM_REGISTRY.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn lookups_hit_and_miss() {
        assert!(is_registered("motion"));
        assert!(is_registered("fault"));
        assert!(!is_registered("moton"));
        assert!(!is_registered(""));
        assert_eq!(stream_info("graph").map(|s| s.owner), Some("hlisa-web"));
        assert!(stream_info("nope").is_none());
    }

    #[test]
    fn every_entry_is_documented() {
        for s in STREAM_REGISTRY {
            assert!(!s.owner.is_empty(), "{} lacks an owner", s.name);
            assert!(!s.purpose.is_empty(), "{} lacks a purpose", s.name);
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-' || c == '_'),
                "{} is not a lowercase identifier",
                s.name
            );
        }
    }
}

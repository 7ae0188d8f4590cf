//! The rule catalog: every rule either analyzer can fire, with its
//! rationale and the paper passage it descends from. Ids are stable —
//! they appear in `// lint: allow(<id>)` comments, JSON output, and
//! [`hlisa_webdriver::AuditFinding`]s.

/// Which analyzer owns a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzerKind {
    /// The determinism source rules of the workspace analyzer
    /// ([`crate::provenance`]).
    Source,
    /// The action-chain detectability linter ([`crate::chain`]).
    Chain,
    /// The AST-level stream-provenance analysis ([`crate::provenance`]).
    Provenance,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable id.
    pub id: &'static str,
    /// Owning analyzer.
    pub kind: AnalyzerKind,
    /// One-line rationale.
    pub summary: &'static str,
    /// Paper (or related-work) anchor.
    pub paper_ref: &'static str,
}

/// Every shipped rule.
pub const CATALOG: &[RuleInfo] = &[
    // --- Source invariants (determinism hazards) ----------------------
    RuleInfo {
        id: "no-wall-clock",
        kind: AnalyzerKind::Source,
        summary: "Instant::now()/SystemTime outside hlisa-sim: time must be \
                  simulated (a context's or a browser's now_ms) or runs are \
                  irreproducible",
        paper_ref: "OpenWPM-reliability (PAPERS.md): nondeterministic timing \
                    corrupts measurement comparisons",
    },
    RuleInfo {
        id: "no-thread-rng",
        kind: AnalyzerKind::Source,
        summary: "argless thread_rng() outside hlisa-sim: OS-seeded RNG makes \
                  every run unrepeatable",
        paper_ref: "§5 reliability discussion; SimContext named streams (PR 1)",
    },
    RuleInfo {
        id: "no-unordered-containers",
        kind: AnalyzerKind::Source,
        summary: "std HashMap/HashSet in non-test code: iteration order is \
                  randomised per process and leaks into results",
        paper_ref: "OpenWPM-reliability (PAPERS.md): hidden iteration-order \
                    dependence is a reproducibility hazard",
    },
    RuleInfo {
        id: "no-rng-from-seed",
        kind: AnalyzerKind::Source,
        summary: "resurrected rng_from_seed outside hlisa-sim: ad-hoc seeding \
                  bypasses the SimContext stream-derivation tree",
        paper_ref: "PR 1 (SimContext layer); §5 reliability discussion",
    },
    RuleInfo {
        id: "no-hardcoded-min-move",
        kind: AnalyzerKind::Source,
        summary: "numeric pointer-move duration floor bypassing \
                  HLISA_MIN_MOVE_MS: the 50 ms override has one definition site",
        paper_ref: "§4.1: \"we change this duration to 50 msec\"",
    },
    RuleInfo {
        id: "no-panic",
        kind: AnalyzerKind::Source,
        summary: "unwrap()/expect()/panic! in non-test code: a panicking crawl \
                  worker silently drops its sites from the measurement; fail \
                  through the typed VisitError/recovery path instead",
        paper_ref: "OpenWPM-reliability (PAPERS.md): unhandled harness crashes \
                    bias crawl results; ISSUE 4 fault plane",
    },
    // --- Stream provenance (AST pass) ----------------------------------
    RuleInfo {
        id: "stream-name-registry",
        kind: AnalyzerKind::Provenance,
        summary: "ctx.stream(\"...\") with a name missing from \
                  hlisa_sim::STREAM_REGISTRY, or computed at runtime: every \
                  stream name is part of the reproducibility contract and has \
                  exactly one registered spelling",
        paper_ref: "PR 1 (SimContext named streams); §5 reliability \
                    discussion: replayable randomness needs stable labels",
    },
    RuleInfo {
        id: "metric-name-registry",
        kind: AnalyzerKind::Provenance,
        summary: "a counter name literal missing from hlisa_sim::METRIC_REGISTRY: \
                  passed to CounterSet::add outside tests, or to CounterSet::get \
                  anywhere under a registered family — a misspelled get returns \
                  None, so an assertion expecting None checks nothing",
        paper_ref: "OpenWPM-reliability (PAPERS.md): crawl data goes wrong \
                    silently; a tool must report on itself under stable names",
    },
    RuleInfo {
        id: "conditional-draw",
        kind: AnalyzerKind::Provenance,
        summary: "a draw from one stream sits under a branch decided by a \
                  different stream: the dependent stream's consumption rate \
                  now varies with the governing stream's values, so editing \
                  one behaviour silently reshuffles another's draws",
        paper_ref: "§5 reliability discussion: cross-stream coupling defeats \
                    per-stream replay; OpenWPM-reliability (PAPERS.md)",
    },
    RuleInfo {
        id: "loop-variant-fork",
        kind: AnalyzerKind::Provenance,
        summary: "ctx.fork()/fork_visit() inside a loop with all-literal \
                  arguments: every iteration derives the same child seed, so \
                  the iterations replay each other instead of being \
                  independent",
        paper_ref: "PR 1 (SimContext derivation tree): child seeds must \
                    incorporate loop-variant salt",
    },
    RuleInfo {
        id: "stale-allow",
        kind: AnalyzerKind::Provenance,
        summary: "a `// lint: allow(...)` directive that names an unknown \
                  rule or no longer suppresses any finding: dead allows \
                  license future regressions on their line",
        paper_ref: "ISSUE 7 suppression audit; OpenWPM-reliability \
                    (PAPERS.md): unaudited exemptions rot",
    },
    // --- Chain detectability (Table 1 tells) --------------------------
    RuleInfo {
        id: "sub-min-move",
        kind: AnalyzerKind::Chain,
        summary: "pointer move requested below HLISA_MIN_MOVE_MS (Selenium's \
                  zero-duration teleport request)",
        paper_ref: "§4.1: Selenium's minimum move duration \"is too high for \
                    simulating human interaction\"",
    },
    RuleInfo {
        id: "straight-line-gesture",
        kind: AnalyzerKind::Chain,
        summary: "gesture waypoints perfectly collinear: no human moves on a \
                  chord",
        paper_ref: "Table 1 / Fig. 1 A: movement \"in a straight line\"",
    },
    RuleInfo {
        id: "uniform-speed-gesture",
        kind: AnalyzerKind::Chain,
        summary: "per-waypoint speeds constant: no acceleration or deceleration \
                  profile",
        paper_ref: "Table 1 / Fig. 1 C: \"with uniform speed\"; §4.1 naive \
                    solution critique",
    },
    RuleInfo {
        id: "superhuman-move-speed",
        kind: AnalyzerKind::Chain,
        summary: "a single move faster than human motor limits (zero-duration \
                  moves are infinitely fast)",
        paper_ref: "Fig. 3 level 1: \"detect artificial behaviour\"",
    },
    RuleInfo {
        id: "click-without-approach",
        kind: AnalyzerKind::Chain,
        summary: "pointer press with no preceding cursor movement (outside the \
                  double-click re-press window)",
        paper_ref: "Table 1: clicks appear \"out of nowhere\"",
    },
    RuleInfo {
        id: "zero-dwell-click",
        kind: AnalyzerKind::Chain,
        summary: "button press and release in (nearly) the same instant",
        paper_ref: "Table 1: press and release \"in the same millisecond\"",
    },
    RuleInfo {
        id: "zero-dwell-key",
        kind: AnalyzerKind::Chain,
        summary: "key press and release in (nearly) the same instant",
        paper_ref: "§4.1: Selenium typing has no dwell at all",
    },
    RuleInfo {
        id: "superhuman-typing-cadence",
        kind: AnalyzerKind::Chain,
        summary: "burst typing speed beyond human limits (Selenium: 13,333 cpm)",
        paper_ref: "§4.1: \"Selenium types with a speed of 13,333 characters \
                    per minute\"",
    },
    RuleInfo {
        id: "metronomic-typing",
        kind: AnalyzerKind::Chain,
        summary: "inter-keystroke intervals too regular: fixed-delay loops with \
                  narrow jitter, not a human rhythm",
        paper_ref: "§4.1 naive solution critique; Appendix F typing model",
    },
    RuleInfo {
        id: "capitals-without-shift",
        kind: AnalyzerKind::Chain,
        summary: "uppercase keydown with no Shift held",
        paper_ref: "Table 1: capitals typed \"without pressing the Shift key\"",
    },
    RuleInfo {
        id: "no-finger-breaks",
        kind: AnalyzerKind::Chain,
        summary: "unbroken wheel-tick run far beyond a human flick: scrolling \
                  needs finger-repositioning breaks",
        paper_ref: "§4.1: HLISA scrolls \"in small bursts, with short pauses\"",
    },
    RuleInfo {
        id: "scroll-teleport",
        kind: AnalyzerKind::Chain,
        summary: "script-origin scroll jump with no wheel activity",
        paper_ref: "Table 1: scrolling \"of an arbitrary amount at once, \
                    without the corresponding wheel events\"",
    },
    RuleInfo {
        id: "script-click",
        kind: AnalyzerKind::Chain,
        summary: "synthetic element.click() dispatch: a click event with no \
                  pointer activity",
        paper_ref: "§4.2 honey elements; Table 1 click side effects",
    },
];

/// Looks up a catalog entry by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_kebab_case() {
        for (i, r) in CATALOG.iter().enumerate() {
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} not kebab-case",
                r.id
            );
            assert!(
                !CATALOG[..i].iter().any(|p| p.id == r.id),
                "duplicate id {}",
                r.id
            );
        }
    }

    #[test]
    fn lookup_finds_both_kinds() {
        assert_eq!(
            rule_info("no-wall-clock").unwrap().kind,
            AnalyzerKind::Source
        );
        assert_eq!(rule_info("sub-min-move").unwrap().kind, AnalyzerKind::Chain);
        assert!(rule_info("nope").is_none());
    }

    #[test]
    fn every_rule_cites_the_paper() {
        for r in CATALOG {
            assert!(!r.summary.is_empty());
            assert!(!r.paper_ref.is_empty(), "{} lacks a reference", r.id);
        }
    }
}

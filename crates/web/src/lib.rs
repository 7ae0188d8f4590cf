//! Synthetic web population for the §3.2 field evaluation.
//!
//! The paper crawls a random 1,000-site sample of the Tranco top-10K with
//! and without the spoofing extension and compares outcomes (Table 2,
//! Figure 4 / Appendix B). The live web is not available offline, so this
//! crate synthesises a site population whose *detector prevalence* matches
//! what the paper (and Jonker et al.) measured: bot detection with visible
//! reactions is rare (≈1.7 % of reached sites), mostly keyed on
//! `navigator.webdriver`, with occasional CAPTCHAs, hidden ad slots,
//! 403/503 responses, and the odd site that breaks under JS-level spoofing.
//!
//! Crucially, a visit does not *roll dice* to decide whether the client is
//! detected: it builds the client's real [`hlisa_jsom`] page world
//! (optionally injecting the real [`hlisa_spoof::SpoofingExtension`]) and
//! runs the site's actual detector ([`hlisa_detect::scan_fingerprint`] or
//! the template attack) against it. The crawl experiment therefore
//! exercises the same spoofing/detection code paths as §3.1.

pub mod capture;
pub mod codes;
pub mod dynamics;
pub mod outcome;
pub mod page;
pub mod population;
pub mod shards;
pub mod site;
pub mod snapshot;
pub mod traversal;
pub mod visit;

pub use capture::{emit_capture_events, emit_capture_events_into, CaptureEvent, CaptureRecorder};
pub use codes::{StatusCodes, FIRST_PARTY_INLINE, THIRD_PARTY_INLINE};
pub use dynamics::{apply_scenario, ScenarioKind, ScenarioMix};
pub use outcome::{VisitError, VisitPhase, VisitProgress};
pub use page::{generate_page, GeneratedPage, PageStructure};
pub use population::{generate_population, PopulationConfig};
pub use shards::{sites_bytes, PopulationShards, DEFAULT_SHARD_SIZE};
pub use site::{DetectionMethod, Reaction, Site, SiteDetector};
pub use snapshot::{WorldSnapshot, WorldSnapshotCache};
pub use traversal::{judge_traversal, traverse, PageGraph, TraversalStrategy};
pub use visit::{
    plan_visit, simulate_visit, simulate_visit_attempt, ClientKind, SiteProfile, VisitOutcome,
    VisitTimeline, VisualOutcome, DEFAULT_VISIT_DEADLINE_MS,
};

//! Bot detectors — the adversary side of both halves of the paper.
//!
//! * Fingerprint side (§3): [`fingerprint`] implements the
//!   `navigator.webdriver` check that "plays a crucial role in the
//!   identification of WebDriver-controlled user agents" (Vastel et al.),
//!   [`template_attack`] implements the Schwarz et al. template diff, and
//!   [`side_effects`] implements the five probes of Table 1 that expose
//!   *spoofing attempts*.
//! * Interaction side (§4): [`interaction`] implements the detector ladder
//!   of Fig. 3 — level 1 detects behaviour outside human limits, level 2
//!   detects statistical deviation from human distributions, level 3 tracks
//!   behavioural consistency, and level 4 compares against an enrolled
//!   per-user profile. [`mod@reference`] generates the human reference corpus
//!   the upper levels need.

pub mod fingerprint;
pub mod interaction;
pub mod live;
pub mod reference;
pub mod replay;
pub mod side_effects;
pub mod template_attack;
pub mod thresholds;

pub use fingerprint::{scan_fingerprint, FingerprintVerdict};
pub use interaction::{DetectorLevel, InteractionDetector, InteractionVerdict, Signal};
pub use live::{LiveInteractionMonitor, LiveMonitorHandle};
pub use reference::HumanReference;
pub use replay::{fingerprint_trace, ReplayDetector};
pub use side_effects::{probe_side_effects, SideEffect};
pub use template_attack::TemplateAttackDetector;

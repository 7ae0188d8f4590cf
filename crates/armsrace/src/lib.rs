//! The simulation/detection arms race of §4.2 (Fig. 3), made executable.
//!
//! The paper models detectors and simulators as rungs of two ladders and
//! argues about which rung beats which. This crate runs the actual
//! tournament: every simulator rung plays standardised interaction sessions
//! (the three Appendix E tasks) against every detector rung, producing the
//! detection-rate matrix that Fig. 3's narrative predicts:
//!
//! * Selenium ("no limits on behaviour") is caught from level 1 up;
//! * the naive improver ("limit behaviour to humanly possible") evades
//!   level 1 but falls to the level-2 distribution tests;
//! * HLISA ("use distribution of human behaviour") evades level 2 and is
//!   first caught by level-3 consistency tracking — "to detect HLISA, an
//!   interaction-based detector needs to compare the observed interaction
//!   to a model of human behaviour" (§5);
//! * a consistency-enabled HLISA evades level 3 and only falls to an
//!   enrolled per-user profile;
//! * a profile-fitted simulator ("use specific user profile") evades even
//!   that — and, as the paper notes, such profiling detectors may already
//!   conflict with the GDPR.
//!
//! The ladder is judged twice, from one code path: [`simulators`] holds
//! the rungs and the one driver that runs a rung's three tasks, handing
//! each finished session to the trace features ([`Simulator::run_session`],
//! scored by the [`tournament`] and the [`escalation`]) or to the chain
//! linter ([`lint_simulator`]). The tournament and the escalation share
//! one ladder setup (reference corpus, enrolled profile, detectors).

pub mod escalation;
pub mod lintgate;
pub mod simulators;
pub mod tournament;

pub use escalation::{run_escalation, Round};
pub use lintgate::lint_simulator;
pub use simulators::Simulator;
pub use tournament::{run_tournament, MatrixCell, TournamentConfig, TournamentResult};

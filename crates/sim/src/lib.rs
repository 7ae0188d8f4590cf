//! Simulation context for the whole interaction stack.
//!
//! Reproducibility is the paper's raison d'être — a measurement tool whose
//! runs cannot be replayed cannot be audited (cf. Krumnow et al. on
//! OpenWPM's reliability). Historically each crate in this workspace
//! improvised its own randomness (`rng_from_seed` call sites scattered
//! through `core`, `human`, `web`, `crawler`) and its own observation (a
//! hardwired recorder). This crate unifies both concerns behind one
//! handle that the rest of the stack threads explicitly:
//!
//! * [`SimContext`] — named, hierarchically derived RNG streams
//!   (`ctx.stream("motion")`) plus fork points for parallel work
//!   (`ctx.fork_visit(domain, visit)`, or `ctx.visit_forks(domain,
//!   visits)` for all of a site's visits at once), built on
//!   `hlisa_stats::rngutil::derive_seed` so every stream is a pure
//!   function of `(root seed, path of labels)` and never of scheduling.
//! * Simulated time is a plain `f64` of milliseconds kept by its only
//!   owners: a `SimContext` keeps its visit's time
//!   ([`SimContext::now_ms`], written only by the visit core) and a
//!   browser keeps its page's. Nothing shares or rebinds time, so a
//!   browser's event timestamps depend only on its own input.
//! * [`Observer`] — a pluggable sink for simulation events with counter
//!   metrics, replacing hardwired recording so detectors and recorders
//!   subscribe to the same dispatch fan-out.
//! * [`FaultPlan`] — the deterministic fault plane for chaos-mode crawls:
//!   typed fault injection drawn from a dedicated `"fault"` stream, so
//!   fault schedules are seeded and bit-reproducible while the
//!   interaction streams stay unperturbed under retry.
//!
//! * [`streams::STREAM_REGISTRY`] — the closed set of stream names a
//!   `SimContext` may be asked for. `hlisa-lint`'s `stream-name-registry`
//!   rule rejects call sites naming anything else, so a typo'd stream
//!   name is a build failure, not a silently minted fresh stream.
//! * [`metrics::METRIC_REGISTRY`] — the same closed set for counter
//!   names, checked by the `metric-name-registry` rule. Its first
//!   entries are the slots of [`Tally`], the one fixed-slot tally every
//!   stage and observer of the engine counts into (an observer holds
//!   only its family's slots) and renders from.
//!
//! The seed-derivation tree is documented in `DESIGN.md`; the contract
//! that matters is: **two `SimContext`s built from the same seed produce
//! identical draw sequences per stream, regardless of which other streams
//! were used in between.**

pub mod context;
pub mod fault;
pub mod metrics;
pub mod observer;
pub mod streams;

pub use context::{SimContext, VisitForks};
pub use fault::{
    FaultEvent, FaultKind, FaultMonitor, FaultPlan, InjectedFault, LossKind, LossPlan,
    LossSchedule, LossyObserver, WriteAheadObserver,
};
pub use metrics::{metric_info, MetricInfo, Tally, METRIC_REGISTRY};
pub use observer::{CounterSet, Observer};
pub use streams::{is_registered, StreamInfo, STREAM_REGISTRY};

// Re-exported so downstream crates can bound helpers on `impl Rng`
// without depending on `rand` directly.
pub use rand::rngs::SmallRng;
pub use rand::Rng;

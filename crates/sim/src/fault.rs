//! The deterministic fault plane: typed fault injection for chaos-mode
//! crawls.
//!
//! The paper's field study (§3, Table 2) runs against the live web, where
//! visits fail, stall, and time out; Krumnow et al. (PAPERS.md) show that
//! exactly these failure modes silently bias measurement results when the
//! harness does not account for them. This module gives the workspace a
//! *fault plane*: a [`FaultPlan`] holding per-visit injection rates for a
//! typed fault taxonomy ([`FaultKind`]), drawn from a dedicated named RNG
//! stream (conventionally `ctx.stream("fault")`) so that fault schedules
//! are seeded, forkable per worker, and bit-reproducible — and, crucially,
//! so that injections and retries never perturb the interaction streams
//! (`"visit"`, `"motion"`, `"typing"`, ...) that drive HLISA chains.
//!
//! The plan deliberately knows nothing about sites or visits; it draws
//! generic [`InjectedFault`]s that `hlisa-web` maps onto its visit-error
//! taxonomy and `hlisa-crawler`'s recovery engine reacts to. Recovery
//! telemetry flows through the [`Observer`] protocol as [`FaultEvent`]s,
//! aggregated by a [`FaultMonitor`] into the `fault.*` / `retry.*` /
//! `breaker.*` counter family.
//!
//! The second half of this module is the **measurement-loss plane**:
//! where [`FaultPlan`] breaks *visits*, [`LossPlan`] breaks the
//! *instrument* watching them. Krumnow et al. show that late-attaching
//! instrumentation, dropped events, and partial captures silently corrupt
//! crawl data while looking like clean results. A [`LossSchedule`] drawn
//! per visit from the same `"fault"` stream family describes exactly
//! which emitted events the observer channel loses; the [`LossyObserver`]
//! decorator applies it to *any* [`Observer`] without touching the
//! observer's code, and [`WriteAheadObserver`] is the strengthened
//! capture mode — events buffered at emission and replayed on attach, so
//! a late or lossy channel recovers the full stream. As with the fault
//! plan, a no-op loss plan consumes **zero** RNG draws.

use crate::metrics::{self, CaptureSlots, FaultSlots, LossSlots};
use crate::observer::{CounterSet, Observer};
use hlisa_stats::rngutil::{derive_seed, derive_seed_lanes};
use rand::Rng;

/// The typed fault taxonomy the plane can inject into a visit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The page never finishes loading inside the visit deadline.
    PageLoadTimeout,
    /// The visit freezes partway through the interaction chain and sits
    /// there until the deadline fires.
    MidVisitStall,
    /// The page's JS realm dies mid-visit (renderer / browser crash).
    RealmCrash,
    /// A transient network error: connection reset before any HTTP
    /// response arrives.
    TransientNetwork,
    /// The host refuses connections for this attempt (DNS failure,
    /// connect refusal) — retrying within the campaign is pointless.
    PermanentUnreachable,
}

impl FaultKind {
    /// Every kind, in a fixed order (rate partitioning and counter
    /// rendering both rely on this order being stable).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::PageLoadTimeout,
        FaultKind::MidVisitStall,
        FaultKind::RealmCrash,
        FaultKind::TransientNetwork,
        FaultKind::PermanentUnreachable,
    ];

    /// Position in [`FaultKind::ALL`]: the kind's tally slot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether retrying the visit can possibly help. Permanent faults
    /// feed the crawler's circuit breaker instead of its retry loop.
    pub fn is_permanent(self) -> bool {
        matches!(self, FaultKind::PermanentUnreachable)
    }
}

/// One concrete fault scheduled for one visit attempt.
///
/// Stall/crash faults carry the chain position they hit at, drawn from
/// the fault stream at schedule time so the visit's own streams stay
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// See [`FaultKind::PageLoadTimeout`].
    PageLoadTimeout,
    /// Stall at `at_fraction` ∈ [0, 1) of the planned interaction chain.
    MidVisitStall {
        /// Fraction of the interaction chain completed before the freeze.
        at_fraction: f64,
    },
    /// Crash at `at_fraction` ∈ [0, 1) of the planned interaction chain.
    RealmCrash {
        /// Fraction of the interaction chain completed before the crash.
        at_fraction: f64,
    },
    /// See [`FaultKind::TransientNetwork`].
    TransientNetwork,
    /// See [`FaultKind::PermanentUnreachable`].
    PermanentUnreachable,
}

impl InjectedFault {
    /// The taxonomy bucket this fault belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            InjectedFault::PageLoadTimeout => FaultKind::PageLoadTimeout,
            InjectedFault::MidVisitStall { .. } => FaultKind::MidVisitStall,
            InjectedFault::RealmCrash { .. } => FaultKind::RealmCrash,
            InjectedFault::TransientNetwork => FaultKind::TransientNetwork,
            InjectedFault::PermanentUnreachable => FaultKind::PermanentUnreachable,
        }
    }
}

/// Label for the per-site outage derivation (see [`FaultPlan::site_is_down`]),
/// kept distinct from every stream name used elsewhere in the seed tree.
const SITE_OUTAGE_LABEL: &str = "fault-site-outage";

/// Per-visit and per-site fault injection rates.
///
/// A plan is pure configuration: every draw comes from an RNG stream the
/// caller passes in, so the same plan is shared by all workers of a
/// campaign while each worker's schedule derives from its own fork of the
/// seed tree. With every rate at zero the plan is a guaranteed no-op —
/// [`FaultPlan::draw`] returns without consuming a single draw, which is
/// what makes a rate-0 chaos run bit-identical to a faultless one.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-visit probability of a page-load timeout.
    pub page_load_timeout: f64,
    /// Per-visit probability of a mid-visit stall.
    pub mid_visit_stall: f64,
    /// Per-visit probability of a realm crash.
    pub realm_crash: f64,
    /// Per-visit probability of a transient network error.
    pub transient_network: f64,
    /// Per-visit probability of a permanent connect failure.
    pub permanent_unreachable: f64,
    /// Fraction of sites that are down for the *whole* campaign — decided
    /// per domain (not per visit), identically on every machine/worker.
    pub site_outage: f64,
}

impl FaultPlan {
    /// The no-fault plan: draws nothing, injects nothing.
    pub fn none() -> Self {
        Self {
            page_load_timeout: 0.0,
            mid_visit_stall: 0.0,
            realm_crash: 0.0,
            transient_network: 0.0,
            permanent_unreachable: 0.0,
            site_outage: 0.0,
        }
    }

    /// A uniform chaos plan: `total_rate` per-visit fault probability,
    /// split evenly across the five kinds; no whole-campaign outages.
    pub fn uniform(total_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&total_rate),
            "fault rate must be a probability, got {total_rate}"
        );
        let each = total_rate / FaultKind::ALL.len() as f64;
        Self {
            page_load_timeout: each,
            mid_visit_stall: each,
            realm_crash: each,
            transient_network: each,
            permanent_unreachable: each,
            site_outage: 0.0,
        }
    }

    /// The per-visit rate of one kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::PageLoadTimeout => self.page_load_timeout,
            FaultKind::MidVisitStall => self.mid_visit_stall,
            FaultKind::RealmCrash => self.realm_crash,
            FaultKind::TransientNetwork => self.transient_network,
            FaultKind::PermanentUnreachable => self.permanent_unreachable,
        }
    }

    /// Total per-visit injection probability (sum over kinds, capped at 1).
    pub fn total_visit_rate(&self) -> f64 {
        FaultKind::ALL
            .iter()
            .map(|k| self.rate(*k))
            .sum::<f64>()
            .min(1.0)
    }

    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.total_visit_rate() <= 0.0 && self.site_outage <= 0.0
    }

    /// Schedules at most one fault for one visit attempt, drawing from
    /// `rng` — by convention a context's `"fault"` stream, never the
    /// `"visit"` stream. A no-op plan consumes **zero** draws.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<InjectedFault> {
        if self.total_visit_rate() <= 0.0 {
            return None;
        }
        // One uniform draw partitions [0, 1) among the kinds, in
        // `FaultKind::ALL` order; the tail is the no-fault region.
        let u = rng.gen::<f64>();
        let mut edge = 0.0;
        for kind in FaultKind::ALL {
            edge += self.rate(kind);
            if u < edge {
                return Some(match kind {
                    FaultKind::PageLoadTimeout => InjectedFault::PageLoadTimeout,
                    FaultKind::MidVisitStall => InjectedFault::MidVisitStall {
                        at_fraction: rng.gen::<f64>(),
                    },
                    FaultKind::RealmCrash => InjectedFault::RealmCrash {
                        at_fraction: rng.gen::<f64>(),
                    },
                    FaultKind::TransientNetwork => InjectedFault::TransientNetwork,
                    FaultKind::PermanentUnreachable => InjectedFault::PermanentUnreachable,
                });
            }
        }
        None
    }

    /// Whether `domain` is down for the whole campaign under this plan.
    ///
    /// A pure function of `(campaign seed, domain, rate)` — independent of
    /// visit order, worker assignment, and machine — so both crawl
    /// machines observe the same outage set, feeding Table 2's
    /// unreachable-site row the way a real dead host would.
    pub fn site_is_down(&self, campaign_seed: u64, domain: &str) -> bool {
        if self.site_outage <= 0.0 {
            return false;
        }
        let h = derive_seed(campaign_seed, domain, 0) ^ derive_seed(0, SITE_OUTAGE_LABEL, 1);
        unit_interval(h) < self.site_outage
    }
}

/// A hash as a uniform in [0, 1): 53 mantissa bits, no rounding bias.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Label for the per-event partial-capture derivation (see
/// [`LossSchedule::delivers`]), distinct from every stream name and from
/// [`SITE_OUTAGE_LABEL`].
const PARTIAL_CAPTURE_LABEL: &str = "loss-partial-capture";

/// The measurement-loss taxonomy: the ways an observer channel can lose
/// events that the visit really emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LossKind {
    /// Instrumentation attached late: a window at visit start where no
    /// observer is wired, so early events vanish.
    LateAttach,
    /// The observer dropped out for a contiguous window mid-visit.
    DropoutWindow,
    /// Individual events are lost independently at some per-event rate.
    PartialCapture,
}

impl LossKind {
    /// Every kind, in the fixed order the plan draws them in.
    pub const ALL: [LossKind; 3] = [
        LossKind::LateAttach,
        LossKind::DropoutWindow,
        LossKind::PartialCapture,
    ];

    /// Stable snake_case name, used in counter names and reports.
    pub fn name(self) -> &'static str {
        match self {
            LossKind::LateAttach => "late_attach",
            LossKind::DropoutWindow => "dropout_window",
            LossKind::PartialCapture => "partial_capture",
        }
    }

    /// Position in [`LossKind::ALL`]: the kind's tally slot.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-visit measurement-loss rates.
///
/// Like [`FaultPlan`], a loss plan is pure configuration: every draw
/// comes from the caller's `"fault"` stream, and a no-op plan consumes
/// zero draws, so rate-0 captured campaigns are bit-identical to runs
/// that never heard of measurement loss.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPlan {
    /// Per-visit probability that instrumentation attaches late.
    pub late_attach: f64,
    /// Longest late-attach window, as a fraction of the visit span; the
    /// actual window is drawn uniformly in `(0, span]`.
    pub late_attach_span: f64,
    /// Per-visit probability of an observer dropout window.
    pub dropout: f64,
    /// Longest dropout window, as a fraction of the visit span.
    pub dropout_span: f64,
    /// Per-event probability that a delivered event is silently lost.
    pub partial_capture: f64,
}

impl LossPlan {
    /// The no-loss plan: draws nothing, loses nothing.
    pub fn none() -> Self {
        Self {
            late_attach: 0.0,
            late_attach_span: 0.0,
            dropout: 0.0,
            dropout_span: 0.0,
            partial_capture: 0.0,
        }
    }

    /// A uniform loss plan: `rate` for all three kinds, with windows up
    /// to 30% of the visit span — the shape of the Krumnow study's
    /// degraded configurations.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "loss rate must be a probability, got {rate}"
        );
        Self {
            late_attach: rate,
            late_attach_span: 0.3,
            dropout: rate,
            dropout_span: 0.3,
            partial_capture: rate,
        }
    }

    /// True when the plan can never lose anything.
    pub fn is_noop(&self) -> bool {
        self.late_attach <= 0.0 && self.dropout <= 0.0 && self.partial_capture <= 0.0
    }

    /// Draws one visit's loss schedule from `rng` — by convention the
    /// visit context's `"fault"` stream, so loss never perturbs the
    /// interaction streams. A no-op plan (and each inactive kind)
    /// consumes **zero** draws.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> LossSchedule {
        let mut schedule = LossSchedule::pristine();
        if self.late_attach > 0.0 && rng.gen::<f64>() < self.late_attach {
            let span = self.late_attach_span.clamp(0.0, 1.0);
            schedule.attach_at = rng.gen::<f64>() * span;
        }
        if self.dropout > 0.0 && rng.gen::<f64>() < self.dropout {
            let start = rng.gen::<f64>();
            let len = rng.gen::<f64>() * self.dropout_span.clamp(0.0, 1.0);
            schedule.dropout = Some((start, (start + len).min(1.0)));
        }
        if self.partial_capture > 0.0 {
            schedule.partial = Some((self.partial_capture.min(1.0), rng.gen::<u64>()));
        }
        schedule
    }
}

/// One visit's concrete loss schedule: which emitted events the observer
/// channel actually receives.
///
/// Positions are fractions of the visit span (`t / deadline`), so the
/// schedule is independent of any particular site's timeline. Per-event
/// partial-capture decisions are a pure hash of the drawn salt and the
/// event index — the draw count per visit stays fixed however many
/// events the visit emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSchedule {
    /// Fraction of the visit span before which no observer is wired.
    pub attach_at: f64,
    /// Observer dropout window as `[start, end)` fractions, if any.
    pub dropout: Option<(f64, f64)>,
    /// Per-event loss as `(rate, salt)`, if any.
    pub partial: Option<(f64, u64)>,
}

impl LossSchedule {
    /// The lossless schedule: attached from t = 0, no dropout, no
    /// partial capture. What a no-op [`LossPlan`] always produces.
    pub fn pristine() -> Self {
        Self {
            attach_at: 0.0,
            dropout: None,
            partial: None,
        }
    }

    /// True when the schedule delivers every event.
    pub fn is_pristine(&self) -> bool {
        self.attach_at <= 0.0 && self.dropout.is_none() && self.partial.is_none()
    }

    /// Which loss kind (if any) swallows the event at `at_fraction` of
    /// the visit span with emission index `event_index`. Checked in
    /// [`LossKind::ALL`] order, so an event inside both a late-attach
    /// window and a dropout window is blamed on the late attach.
    pub fn blame(&self, at_fraction: f64, event_index: u64) -> Option<LossKind> {
        self.window_blame(at_fraction).or_else(|| {
            let (rate, salt) = self.partial?;
            let h = derive_seed(salt, PARTIAL_CAPTURE_LABEL, event_index);
            (unit_interval(h) < rate).then_some(LossKind::PartialCapture)
        })
    }

    /// The time-window half of [`blame`](Self::blame): late attach, then
    /// dropout. Partial capture is the only kind that depends on the
    /// event index.
    fn window_blame(&self, at_fraction: f64) -> Option<LossKind> {
        if at_fraction < self.attach_at {
            return Some(LossKind::LateAttach);
        }
        let (start, end) = self.dropout?;
        (at_fraction >= start && at_fraction < end).then_some(LossKind::DropoutWindow)
    }

    /// Whether the observer channel delivers this event.
    pub fn delivers(&self, at_fraction: f64, event_index: u64) -> bool {
        self.blame(at_fraction, event_index).is_none()
    }
}

/// Event indices per partial-capture lane refill.
const PARTIAL_LANES: usize = 8;

/// Decorator that applies a [`LossSchedule`] to any [`Observer`] — the
/// *naive* capture pipeline of the reliability study. The inner observer
/// sees only the events the schedule delivers; what it misses, it misses
/// silently, exactly like a real instrument that attached late or
/// dropped events.
///
/// The decorator accounts for the channel in its own `loss.*` counters
/// (offered, delivered, and dropped per [`LossKind`]) so a study can
/// report *how much* was lost even though the degraded observer cannot.
///
/// Its verdicts are exactly [`LossSchedule::blame`]'s. The
/// partial-capture hash is computed `PARTIAL_LANES` (8) event indices at a
/// time ([`derive_seed_lanes`]) and kept as a bit mask until an event
/// index falls outside it; the mask is a cache of the schedule, so it
/// takes no part in equality or `Debug` output.
#[derive(Clone)]
pub struct LossyObserver<O> {
    inner: O,
    schedule: LossSchedule,
    span_ms: f64,
    tally: LossSlots,
    // `(first index, mask)`: bit `j` set when index `first + j` is lost
    // to partial capture.
    lanes: Option<(u64, u8)>,
}

impl<O> LossyObserver<O> {
    /// Wraps `inner` behind `schedule`, normalising event times by
    /// `span_ms` (the visit deadline) to match the schedule's fractional
    /// positions.
    pub fn new(inner: O, schedule: LossSchedule, span_ms: f64) -> Self {
        Self {
            inner,
            schedule,
            span_ms,
            tally: LossSlots::default(),
            lanes: None,
        }
    }

    /// The degraded observer behind the channel.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the degraded observer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The channel's `loss.*` counts so far.
    pub fn tally(&self) -> &LossSlots {
        &self.tally
    }

    /// [`LossSchedule::blame`] for the event at `at_fraction` with
    /// emission index `index`, served from the lane mask.
    fn blame(&mut self, at_fraction: f64, index: u64) -> Option<LossKind> {
        if let Some(kind) = self.schedule.window_blame(at_fraction) {
            return Some(kind);
        }
        let (rate, salt) = self.schedule.partial?;
        let (first, mask) = match self.lanes {
            Some((first, mask)) if index.wrapping_sub(first) < PARTIAL_LANES as u64 => {
                (first, mask)
            }
            _ => {
                let hashes = derive_seed_lanes::<PARTIAL_LANES>(salt, PARTIAL_CAPTURE_LABEL, index);
                let mask = hashes
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| unit_interval(**h) < rate)
                    .fold(0u8, |mask, (lane, _)| mask | 1 << lane);
                self.lanes = Some((index, mask));
                (index, mask)
            }
        };
        ((mask >> (index - first)) & 1 == 1).then_some(LossKind::PartialCapture)
    }
}

impl<O: PartialEq> PartialEq for LossyObserver<O> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
            && self.schedule == other.schedule
            && self.span_ms == other.span_ms
            && self.tally == other.tally
    }
}

impl<O: std::fmt::Debug> std::fmt::Debug for LossyObserver<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LossyObserver")
            .field("inner", &self.inner)
            .field("schedule", &self.schedule)
            .field("span_ms", &self.span_ms)
            .field("tally", &self.tally)
            .finish()
    }
}

impl<E, O: Observer<E>> Observer<E> for LossyObserver<O> {
    fn on_event(&mut self, t_ms: f64, event: &E) {
        let index = self.tally.value(metrics::LOSS_OFFERED);
        self.tally.add(metrics::LOSS_OFFERED, 1);
        let at_fraction = if self.span_ms > 0.0 {
            (t_ms / self.span_ms).clamp(0.0, 1.0)
        } else {
            0.0
        };
        match self.blame(at_fraction, index) {
            None => {
                self.tally.add(metrics::LOSS_DELIVERED, 1);
                self.inner.on_event(t_ms, event);
            }
            Some(kind) => self.tally.add(metrics::LOSS_DROPPED_KIND + kind.index(), 1),
        }
    }

    fn counters(&self) -> CounterSet {
        let mut c = self.inner.counters();
        self.tally.render_into(LossSlots::SLOTS, &mut c);
        c
    }
}

/// The strengthened capture mode: write-ahead event capture.
///
/// Every event is buffered at the emission site — *upstream* of any
/// lossy observer channel — and replayed into the inner observer, in
/// order, when the instrumentation attaches ([`WriteAheadObserver::attach`]).
/// After attach, events flow straight through. Paired with an attach
/// barrier (the visit does not proceed past instrumentation setup until
/// the attach acks), the inner observer provably receives the exact
/// event stream a pristine channel would have delivered, whatever the
/// [`LossSchedule`] says.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteAheadObserver<E, O> {
    inner: O,
    buffer: Vec<(f64, E)>,
    attached: bool,
    // Slot counts, named only on `counters()`: a name-keyed add per
    // event of every strengthened visit costs double-digit percent.
    tally: CaptureSlots,
}

impl<E: Clone + Send, O: Observer<E>> WriteAheadObserver<E, O> {
    /// A write-ahead channel whose instrumentation has not attached yet;
    /// events buffer until [`attach`](Self::attach).
    pub fn detached(inner: O) -> Self {
        Self::detached_with(inner, Vec::new())
    }

    /// [`detached`](Self::detached), buffering into a lent `buffer`
    /// (cleared first) so a caller that captures visit after visit
    /// reuses its capacity; [`into_parts`](Self::into_parts) hands it
    /// back.
    pub fn detached_with(inner: O, mut buffer: Vec<(f64, E)>) -> Self {
        buffer.clear();
        Self {
            inner,
            buffer,
            attached: false,
            tally: CaptureSlots::default(),
        }
    }

    /// The channel's `capture.*` counts so far.
    pub fn tally(&self) -> &CaptureSlots {
        &self.tally
    }

    /// Whether the inner observer is attached and receiving directly.
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    /// Pre-sizes the write-ahead buffer for a caller that knows how many
    /// events will arrive before the attach barrier acks.
    pub fn reserve(&mut self, additional: usize) {
        self.buffer.reserve(additional);
    }

    /// Acks the attach barrier: replays every buffered event into the
    /// inner observer, in emission order, then switches to pass-through.
    pub fn attach(&mut self) {
        if self.attached {
            return;
        }
        self.attached = true;
        self.tally
            .add(metrics::CAPTURE_REPLAYED, self.buffer.len() as u64);
        for (t_ms, event) in &self.buffer {
            self.inner.on_event(*t_ms, event);
        }
        self.buffer.clear();
    }

    /// The observer behind the write-ahead buffer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the inner observer, attaching first so no buffered event
    /// is ever lost.
    pub fn into_inner(self) -> O {
        self.into_parts().0
    }

    /// [`into_inner`](Self::into_inner), also returning the write-ahead
    /// buffer, empty, with the capacity it reached.
    pub fn into_parts(mut self) -> (O, Vec<(f64, E)>) {
        self.attach();
        (self.inner, self.buffer)
    }
}

impl<E: Clone + Send, O: Observer<E>> Observer<E> for WriteAheadObserver<E, O> {
    fn on_event(&mut self, t_ms: f64, event: &E) {
        if self.attached {
            self.tally.add(metrics::CAPTURE_DIRECT, 1);
            self.inner.on_event(t_ms, event);
        } else {
            self.tally.add(metrics::CAPTURE_BUFFERED, 1);
            self.buffer.push((t_ms, event.clone()));
        }
    }

    fn counters(&self) -> CounterSet {
        let mut c = self.inner.counters();
        self.tally.render_into(CaptureSlots::SLOTS, &mut c);
        c
    }
}

/// One fault-plane event, published to [`Observer`] sinks by the
/// recovery engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A scheduled fault fired during an attempt.
    Injected {
        /// Taxonomy bucket of the fired fault.
        kind: FaultKind,
    },
    /// A failed attempt will be retried after a backoff.
    RetryScheduled {
        /// 0-based index of the attempt that just failed.
        attempt: u32,
        /// Jittered backoff delay before the next attempt.
        backoff_ms: f64,
    },
    /// A visit eventually succeeded after at least one retry.
    RecoveredAfterRetry {
        /// Total attempts the visit took (≥ 2).
        attempts: u32,
    },
    /// A visit exhausted its retry budget and recorded a failure.
    GaveUp {
        /// Total attempts made.
        attempts: u32,
    },
    /// A site's circuit breaker opened after consecutive permanent faults.
    BreakerTripped,
    /// A visit was skipped outright because the breaker was open.
    BreakerSkippedVisit,
}

/// Streaming [`Observer`] that folds [`FaultEvent`]s into the
/// `fault.*` / `retry.*` / `breaker.*` counter family, as slot counts
/// rendered into counters only on [`Observer::counters`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultMonitor {
    tally: FaultSlots,
}

impl FaultMonitor {
    /// A monitor with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience for callers without an event-dispatch loop: observe
    /// one event at an unspecified time.
    pub fn record(&mut self, event: &FaultEvent) {
        self.on_event(0.0, event);
    }

    /// The monitor's counts so far.
    pub fn tally(&self) -> &FaultSlots {
        &self.tally
    }
}

impl Observer<FaultEvent> for FaultMonitor {
    fn on_event(&mut self, _t_ms: f64, event: &FaultEvent) {
        let tally = &mut self.tally;
        match event {
            FaultEvent::Injected { kind } => {
                tally.add(metrics::FAULT_INJECTED_KIND + kind.index(), 1)
            }
            FaultEvent::RetryScheduled { backoff_ms, .. } => {
                tally.add(metrics::RETRY_SCHEDULED, 1);
                tally.add(metrics::RETRY_BACKOFF_MS_TOTAL, backoff_ms.round() as u64);
            }
            FaultEvent::RecoveredAfterRetry { .. } => tally.add(metrics::RETRY_RECOVERED, 1),
            FaultEvent::GaveUp { .. } => tally.add(metrics::RETRY_GAVE_UP, 1),
            FaultEvent::BreakerTripped => tally.add(metrics::BREAKER_TRIPPED, 1),
            FaultEvent::BreakerSkippedVisit => tally.add(metrics::BREAKER_SKIPPED_VISITS, 1),
        }
    }

    fn counters(&self) -> CounterSet {
        let mut c = CounterSet::new();
        self.tally.render_into(FaultSlots::SLOTS, &mut c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimContext;
    use crate::metrics::Tally;

    #[test]
    fn noop_plan_consumes_no_draws() {
        let plan = FaultPlan::none();
        let mut a = SimContext::new(1);
        let mut b = SimContext::new(1);
        for _ in 0..16 {
            assert_eq!(plan.draw(a.stream("fault")), None);
        }
        // The fault stream of `a` is untouched: its next raw draw matches
        // a sibling context that never saw the plan.
        assert_eq!(
            a.stream("fault").gen::<u64>(),
            b.stream("fault").gen::<u64>()
        );
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let plan = FaultPlan::uniform(0.6);
        let mut a = SimContext::new(7);
        let mut b = SimContext::new(7);
        for _ in 0..64 {
            assert_eq!(plan.draw(a.stream("fault")), plan.draw(b.stream("fault")));
        }
    }

    #[test]
    fn uniform_plan_hits_every_kind() {
        let plan = FaultPlan::uniform(0.9);
        let mut ctx = SimContext::new(3);
        let mut seen: Vec<FaultKind> = Vec::new();
        for _ in 0..400 {
            if let Some(f) = plan.draw(ctx.stream("fault")) {
                if !seen.contains(&f.kind()) {
                    seen.push(f.kind());
                }
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "missing kinds: {seen:?}");
    }

    #[test]
    fn injection_rate_tracks_the_plan() {
        let plan = FaultPlan::uniform(0.25);
        let mut ctx = SimContext::new(11);
        let n = 4_000;
        let hits = (0..n)
            .filter(|_| plan.draw(ctx.stream("fault")).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn stall_fractions_are_in_range() {
        let plan = FaultPlan {
            mid_visit_stall: 1.0,
            ..FaultPlan::none()
        };
        let mut ctx = SimContext::new(5);
        for _ in 0..32 {
            match plan.draw(ctx.stream("fault")) {
                Some(InjectedFault::MidVisitStall { at_fraction }) => {
                    assert!((0.0..1.0).contains(&at_fraction));
                }
                other => unreachable!("expected a stall, got {other:?}"),
            }
        }
    }

    #[test]
    fn site_outage_is_deterministic_and_rate_sensitive() {
        let plan = FaultPlan {
            site_outage: 0.3,
            ..FaultPlan::none()
        };
        let domains: Vec<String> = (0..500).map(|i| format!("site{i:04}.example")).collect();
        let down: Vec<bool> = domains.iter().map(|d| plan.site_is_down(9, d)).collect();
        // Identical on a second evaluation (any machine, any worker).
        let again: Vec<bool> = domains.iter().map(|d| plan.site_is_down(9, d)).collect();
        assert_eq!(down, again);
        let frac = down.iter().filter(|d| **d).count() as f64 / down.len() as f64;
        assert!((frac - 0.3).abs() < 0.08, "outage fraction {frac}");
        // Rate 0 downs nothing; a different seed downs a different set.
        assert!(domains
            .iter()
            .all(|d| !FaultPlan::none().site_is_down(9, d)));
        let other: Vec<bool> = domains.iter().map(|d| plan.site_is_down(10, d)).collect();
        assert_ne!(down, other);
    }

    #[test]
    fn monitor_aggregates_the_counter_family() {
        let mut m = FaultMonitor::new();
        m.record(&FaultEvent::Injected {
            kind: FaultKind::RealmCrash,
        });
        m.record(&FaultEvent::Injected {
            kind: FaultKind::RealmCrash,
        });
        m.record(&FaultEvent::RetryScheduled {
            attempt: 0,
            backoff_ms: 800.0,
        });
        m.record(&FaultEvent::RecoveredAfterRetry { attempts: 2 });
        m.record(&FaultEvent::GaveUp { attempts: 3 });
        m.record(&FaultEvent::BreakerTripped);
        m.record(&FaultEvent::BreakerSkippedVisit);
        let c = m.counters();
        assert_eq!(c.get("fault.injected"), Some(2));
        assert_eq!(c.get("fault.injected.realm_crash"), Some(2));
        assert_eq!(c.get("retry.scheduled"), Some(1));
        assert_eq!(c.get("retry.backoff_ms_total"), Some(800));
        assert_eq!(c.get("retry.recovered"), Some(1));
        assert_eq!(c.get("retry.gave_up"), Some(1));
        assert_eq!(c.get("breaker.tripped"), Some(1));
        assert_eq!(c.get("breaker.skipped_visits"), Some(1));
    }

    /// Tallies absorb like one tally over any split of the events, in
    /// every family this crate's observers count: split monitors sum to
    /// the whole monitor, an absorbed tally renders exactly the merge of
    /// its parts' counters, and every name rendered is registered.
    #[test]
    fn absorbed_monitors_count_like_one_monitor() {
        let events = [
            FaultEvent::Injected {
                kind: FaultKind::MidVisitStall,
            },
            // A backoff that rounds to 0 ms still creates the total.
            FaultEvent::RetryScheduled {
                attempt: 0,
                backoff_ms: 0.4,
            },
            FaultEvent::GaveUp { attempts: 2 },
            FaultEvent::Injected {
                kind: FaultKind::PermanentUnreachable,
            },
            FaultEvent::BreakerTripped,
            FaultEvent::RecoveredAfterRetry { attempts: 3 },
            FaultEvent::BreakerSkippedVisit,
        ];
        let schedule = LossSchedule {
            attach_at: 0.2,
            dropout: Some((0.5, 0.7)),
            partial: Some((0.3, 0xfeed)),
        };
        for mask in 0u32..1 << events.len() {
            let in_a = |i: usize| mask >> i & 1 == 1;
            let mut whole = FaultMonitor::new();
            let mut monitors = [FaultMonitor::new(), FaultMonitor::new()];
            // Each part is one visit's capture stack over its events.
            let stack = || {
                LossyObserver::new(
                    WriteAheadObserver::detached(FaultMonitor::new()),
                    schedule,
                    events.len() as f64,
                )
            };
            let mut stacks = [stack(), stack()];
            for (i, e) in events.iter().enumerate() {
                let part = usize::from(!in_a(i));
                whole.record(e);
                monitors[part].record(e);
                if i == events.len() / 2 {
                    stacks[part].inner.attach();
                }
                stacks[part].on_event(i as f64, e);
            }
            let mut absorbed = *monitors[0].tally();
            absorbed.absorb(monitors[1].tally());
            assert_eq!(&absorbed, whole.tally(), "mask {mask:#b}");

            let mut total: Tally = Tally::default();
            let mut merged = CounterSet::new();
            for s in &stacks {
                total.absorb(s.tally());
                total.absorb(s.inner().tally());
                total.absorb(s.inner().inner().tally());
                merged.merge(&s.counters());
            }
            let mut rendered = CounterSet::new();
            for family in [FaultSlots::SLOTS, LossSlots::SLOTS, CaptureSlots::SLOTS] {
                total.render_into(family, &mut rendered);
            }
            assert_eq!(rendered.sorted(), merged.sorted(), "mask {mask:#b}");
            for (name, _) in rendered.entries() {
                assert!(metrics::metric_info(name).is_some(), "{name}");
            }
        }
        let c = {
            let mut whole = FaultMonitor::new();
            for e in &events[..5] {
                whole.record(e);
            }
            whole.counters()
        };
        assert_eq!(c.get("retry.backoff_ms_total"), Some(0));
        assert_eq!(c.get("fault.injected"), Some(2));
        assert_eq!(c.get("fault.injected.mid_visit_stall"), Some(1));
        assert_eq!(c.get("breaker.skipped_visits"), None);
        assert_eq!(c.entries().len(), 7);
    }

    #[test]
    fn noop_loss_plan_consumes_no_draws() {
        let plan = LossPlan::none();
        let mut a = SimContext::new(1);
        let mut b = SimContext::new(1);
        for _ in 0..16 {
            let schedule = plan.draw(a.stream("fault"));
            assert!(schedule.is_pristine());
        }
        // The fault stream of `a` is untouched: its next raw draw matches
        // a sibling context that never saw the plan.
        assert_eq!(
            a.stream("fault").gen::<u64>(),
            b.stream("fault").gen::<u64>()
        );
    }

    #[test]
    fn loss_draws_are_deterministic_per_seed() {
        let plan = LossPlan::uniform(0.5);
        let mut a = SimContext::new(7);
        let mut b = SimContext::new(7);
        for _ in 0..64 {
            assert_eq!(plan.draw(a.stream("fault")), plan.draw(b.stream("fault")));
        }
    }

    #[test]
    fn pristine_schedule_delivers_everything() {
        let s = LossSchedule::pristine();
        for i in 0..64 {
            assert!(s.delivers(i as f64 / 64.0, i));
        }
    }

    #[test]
    fn late_attach_swallows_the_visit_prefix() {
        let s = LossSchedule {
            attach_at: 0.25,
            ..LossSchedule::pristine()
        };
        assert_eq!(s.blame(0.0, 0), Some(LossKind::LateAttach));
        assert_eq!(s.blame(0.24, 1), Some(LossKind::LateAttach));
        assert_eq!(s.blame(0.25, 2), None);
        assert_eq!(s.blame(0.9, 3), None);
    }

    #[test]
    fn dropout_window_swallows_its_interval() {
        let s = LossSchedule {
            dropout: Some((0.4, 0.6)),
            ..LossSchedule::pristine()
        };
        assert_eq!(s.blame(0.39, 0), None);
        assert_eq!(s.blame(0.4, 1), Some(LossKind::DropoutWindow));
        assert_eq!(s.blame(0.59, 2), Some(LossKind::DropoutWindow));
        assert_eq!(s.blame(0.6, 3), None);
    }

    #[test]
    fn partial_capture_is_deterministic_and_tracks_rate() {
        let s = LossSchedule {
            partial: Some((0.3, 0xfeed)),
            ..LossSchedule::pristine()
        };
        let n = 4_000;
        let dropped = (0..n).filter(|i| !s.delivers(0.5, *i)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
        // Pure in (salt, index): a second evaluation agrees event-wise.
        for i in 0..256 {
            assert_eq!(s.delivers(0.5, i), s.delivers(0.9, i));
        }
    }

    #[test]
    fn drawn_schedules_stay_in_range() {
        let plan = LossPlan::uniform(1.0);
        let mut ctx = SimContext::new(13);
        for _ in 0..64 {
            let s = plan.draw(ctx.stream("fault"));
            assert!((0.0..=0.3).contains(&s.attach_at));
            let (start, end) = s.dropout.unwrap_or((0.0, 0.0));
            assert!((0.0..1.0).contains(&start) && end <= 1.0 && start <= end);
            let (rate, _) = s.partial.unwrap_or((0.0, 0));
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn lossy_observer_degrades_a_monitor_without_touching_it() {
        let schedule = LossSchedule {
            attach_at: 0.5,
            ..LossSchedule::pristine()
        };
        let mut lossy = LossyObserver::new(FaultMonitor::new(), schedule, 100.0);
        let event = FaultEvent::Injected {
            kind: FaultKind::RealmCrash,
        };
        lossy.on_event(10.0, &event); // inside the late-attach window
        lossy.on_event(90.0, &event); // delivered
        let c = lossy.counters();
        assert_eq!(c.get("loss.offered"), Some(2));
        assert_eq!(c.get("loss.delivered"), Some(1));
        assert_eq!(c.get("loss.dropped"), Some(1));
        assert_eq!(c.get("loss.dropped.late_attach"), Some(1));
        // The degraded monitor saw exactly one injection.
        assert_eq!(lossy.inner().counters().get("fault.injected"), Some(1));
    }

    #[test]
    fn pristine_lossy_observer_is_transparent() {
        let mut lossy = LossyObserver::new(FaultMonitor::new(), LossSchedule::pristine(), 100.0);
        let mut direct = FaultMonitor::new();
        for t in 0..8 {
            let event = FaultEvent::BreakerSkippedVisit;
            lossy.on_event(t as f64, &event);
            direct.on_event(t as f64, &event);
        }
        assert_eq!(lossy.inner().counters(), direct.counters());
        assert_eq!(lossy.counters().get("loss.dropped"), None);
    }

    #[test]
    fn write_ahead_replays_the_full_stream_on_attach() {
        let mut wal = WriteAheadObserver::detached(FaultMonitor::new());
        let mut direct = FaultMonitor::new();
        let event = FaultEvent::Injected {
            kind: FaultKind::TransientNetwork,
        };
        for t in 0..5 {
            wal.on_event(t as f64, &event);
            direct.on_event(t as f64, &event);
        }
        // Nothing reached the inner observer yet...
        assert_eq!(wal.inner().counters().get("fault.injected"), None);
        wal.attach();
        // ...but the attach barrier recovers the whole prefix, and later
        // events flow straight through.
        wal.on_event(5.0, &event);
        direct.on_event(5.0, &event);
        assert_eq!(wal.inner().counters(), direct.counters());
        let c = wal.counters();
        assert_eq!(c.get("capture.buffered"), Some(5));
        assert_eq!(c.get("capture.replayed"), Some(5));
        assert_eq!(c.get("capture.direct"), Some(1));
    }

    #[test]
    fn write_ahead_into_inner_never_loses_buffered_events() {
        let mut wal = WriteAheadObserver::detached(FaultMonitor::new());
        wal.on_event(0.0, &FaultEvent::BreakerTripped);
        let inner = wal.into_inner();
        assert_eq!(inner.counters().get("breaker.tripped"), Some(1));
    }

    #[test]
    fn rates_round_trip_through_accessors() {
        let plan = FaultPlan::uniform(0.5);
        for kind in FaultKind::ALL {
            assert!((plan.rate(kind) - 0.1).abs() < 1e-12);
        }
        assert!((plan.total_visit_rate() - 0.5).abs() < 1e-12);
        assert!(!plan.is_noop());
        assert!(FaultPlan::none().is_noop());
    }
}

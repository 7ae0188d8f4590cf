//! Visit simulation: one browser instance loading one site once.
//!
//! Detection is *computed*, not sampled: the client's JS world is built
//! with [`hlisa_jsom`], the spoofing extension is (optionally) injected
//! with [`hlisa_spoof`], and the site's detector runs the real
//! [`hlisa_detect`] checks against that world.

use crate::codes::{StatusCodes, FIRST_PARTY_INLINE, THIRD_PARTY_INLINE};
use crate::outcome::{VisitError, VisitPhase, VisitProgress};
use crate::site::{DetectionMethod, Reaction, Site};
use crate::snapshot::WorldSnapshotCache;
use hlisa_detect::{scan_fingerprint, TemplateAttackDetector};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_jsom::{build_firefox_world, BrowserFlavor, World};
use hlisa_sim::metrics::{self, Tally};
use hlisa_sim::{InjectedFault, SimContext};
use hlisa_spoof::SpoofingExtension;
use hlisa_stats::rngutil::derive_seed_lanes;
use rand::Rng;
use std::sync::OnceLock;

/// Default visit deadline (virtual ms) — mirrors OpenWPM's page-load
/// timeout budget. A stalled or never-loading visit is cut here.
pub const DEFAULT_VISIT_DEADLINE_MS: f64 = 30_000.0;

/// The crawling client flavour (the paper's two machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// Stock OpenWPM: Selenium-automated Firefox, headful.
    OpenWpm,
    /// OpenWPM with the Proxy-based spoofing extension.
    OpenWpmSpoofed,
}

/// What the screenshot review of one visit would show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisualOutcome {
    /// Page rendered as for a regular visitor.
    Normal,
    /// A block page.
    BlockPage,
    /// A CAPTCHA interstitial.
    Captcha,
    /// All ad slots empty.
    NoAds,
    /// Some ad slots empty.
    FewerAds,
    /// Video player never starts.
    FrozenVideo,
    /// Page layout deformed (spoofing side-effect breakage).
    DeformedLayout,
    /// Site did not answer at all.
    Unreachable,
    /// Transient failure (timeout / flaky 5xx) — visit not counted as
    /// successful.
    TransientError,
    /// Page never finished loading inside the visit deadline.
    Timeout,
    /// Page froze mid-interaction until the deadline fired.
    Stalled,
    /// The browser's JS realm crashed mid-visit.
    Crashed,
    /// A consent overlay was never dismissed; the measured content
    /// behind the wall was never reached (cookie-banner scenario).
    StuckOnOverlay,
    /// Scroll-gated content never lay out, so the screenshot misses it
    /// (lazy-content scenario).
    MissingLazyContent,
    /// A mid-visit re-render invalidated cached element geometry and the
    /// follow-up interaction missed (SPA-mutation scenario).
    StaleElement,
}

/// Outcome of one visit. Its status codes are held inline
/// ([`StatusCodes`]), so a record of a generated site owns no heap block.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitOutcome {
    /// Whether the site answered.
    pub reached: bool,
    /// Whether the visit completed (reached and not transient-failed).
    pub successful: bool,
    /// Screenshot-level outcome.
    pub visual: VisualOutcome,
    /// First-party response status codes.
    pub first_party: StatusCodes<FIRST_PARTY_INLINE>,
    /// Third-party response status codes.
    pub third_party: StatusCodes<THIRD_PARTY_INLINE>,
    /// Ground truth: did the site's detector fire? (Not observable by the
    /// crawler; used for validation.)
    pub detected: bool,
}

/// Shared per-campaign detector state.
///
/// A site detector's verdict is a pure function of the client's pristine
/// world: the fingerprint scan reads it, and the template attack diffs it
/// against an immutable regular-Firefox reference. No RNG or time feeds
/// either check. The cached runtime therefore runs each check at most
/// once per client, on a real snapshot stamp, and memoises the bit; the
/// uncached runtime rebuilds the world and reruns the checks on every
/// visit, and is the reference model the cached one is tested against.
#[derive(Debug, Clone)]
pub struct DetectorRuntime {
    /// The template-attack reference, captured on the first deep check
    /// (like a deployed detector shipping a baseline). Campaigns that
    /// never run one never pay for it.
    template: OnceLock<TemplateAttackDetector>,
    /// `Some` = memoised verdicts (the fast path); `None` = rebuild the
    /// world and rescan it on every visit (the reference model and the
    /// benchmark baseline).
    verdicts: Option<VerdictCache>,
    #[cfg_attr(not(test), allow(dead_code))]
    fills: FillCount,
}

/// The cached runtime's pristine worlds and per-client verdict cells.
#[derive(Debug, Clone, Default)]
struct VerdictCache {
    worlds: WorldSnapshotCache,
    openwpm: ClientVerdicts,
    spoofed: ClientVerdicts,
}

/// One client's verdicts, each filled the first time a visit needs it.
#[derive(Debug, Clone, Default)]
struct ClientVerdicts {
    fingerprint_bot: OnceLock<bool>,
    tampered: OnceLock<bool>,
}

/// The two checks a site detector can run against the client's world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// [`scan_fingerprint`] classifies the visitor as a bot.
    FingerprintBot,
    /// The template attack sees structural tampering.
    Tampered,
}

impl VerdictCache {
    fn cell(&self, client: ClientKind, check: Check) -> &OnceLock<bool> {
        let cells = match client {
            ClientKind::OpenWpm => &self.openwpm,
            ClientKind::OpenWpmSpoofed => &self.spoofed,
        };
        match check {
            Check::FingerprintBot => &cells.fingerprint_bot,
            Check::Tampered => &cells.tampered,
        }
    }

    fn stamp(&self, client: ClientKind) -> World {
        match client {
            ClientKind::OpenWpm => self.worlds.stamp(BrowserFlavor::WebDriverFirefox),
            ClientKind::OpenWpmSpoofed => self.worlds.stamp_spoofed_webdriver(),
        }
    }
}

impl DetectorRuntime {
    /// Builds the shared runtime with memoised verdicts. Nothing is built
    /// until a visit needs it.
    pub fn new() -> Self {
        Self::with_verdicts(Some(VerdictCache::default()))
    }

    /// Builds a runtime that rebuilds the client's world and reruns every
    /// check on every visit — the original per-visit cost model. Campaign
    /// output is bit-identical either way (no check consumes RNG); only
    /// throughput differs.
    pub fn without_world_cache() -> Self {
        Self::with_verdicts(None)
    }

    fn with_verdicts(verdicts: Option<VerdictCache>) -> Self {
        Self {
            template: OnceLock::new(),
            verdicts,
            fills: FillCount::default(),
        }
    }

    fn template(&self) -> &TemplateAttackDetector {
        self.template.get_or_init(|| {
            self.count_fill();
            TemplateAttackDetector::new()
        })
    }

    /// Runs one check of the real detectors on `world`.
    fn run_check(&self, check: Check, world: &mut World) -> bool {
        match check {
            Check::FingerprintBot => scan_fingerprint(world).is_bot,
            Check::Tampered => self.template().is_tampered(world),
        }
    }

    /// The memoised verdict of `check` for `client`, computed on a fresh
    /// stamp the first time it is asked for.
    fn memoised(&self, cache: &VerdictCache, client: ClientKind, check: Check) -> bool {
        *cache.cell(client, check).get_or_init(|| {
            self.count_fill();
            let mut world = cache.stamp(client);
            if check == Check::Tampered {
                // A per-visit deep check scans the world before diffing
                // it; the memo replays that sequence on its stamp.
                self.run_check(Check::FingerprintBot, &mut world);
            }
            self.run_check(check, &mut world)
        })
    }

    #[cfg(test)]
    fn count_fill(&self) {
        self.fills
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    #[cfg(not(test))]
    fn count_fill(&self) {}
}

#[cfg(test)]
impl DetectorRuntime {
    /// The filled lazy cells by name, in a fixed order, with each
    /// verdict's value (the template reads `true` once captured).
    fn filled_cells(&self) -> Vec<(&'static str, bool)> {
        let mut filled: Vec<_> = self
            .template
            .get()
            .map(|_| ("template", true))
            .into_iter()
            .collect();
        if let Some(cache) = &self.verdicts {
            let cells = [
                (
                    "openwpm.fingerprint_bot",
                    ClientKind::OpenWpm,
                    Check::FingerprintBot,
                ),
                ("openwpm.tampered", ClientKind::OpenWpm, Check::Tampered),
                (
                    "spoofed.fingerprint_bot",
                    ClientKind::OpenWpmSpoofed,
                    Check::FingerprintBot,
                ),
                (
                    "spoofed.tampered",
                    ClientKind::OpenWpmSpoofed,
                    Check::Tampered,
                ),
            ];
            for (name, client, check) in cells {
                if let Some(&value) = cache.cell(client, check).get() {
                    filled.push((name, value));
                }
            }
        }
        filled
    }

    /// How many times any lazy cell ran its fill.
    fn fills(&self) -> usize {
        self.fills.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// How many times a runtime's lazy cells (template and verdicts) ran
/// their fill: a test probe, zero-sized outside tests.
#[cfg(test)]
type FillCount = std::sync::Arc<std::sync::atomic::AtomicUsize>;
#[cfg(not(test))]
type FillCount = ();

/// A site detector's verdict, asking `check` for each check it runs. The
/// rate-limit draw of a template attack's deep check comes first, on
/// every visit of either runtime, so memoising a check moves no draw.
fn detector_verdict<R: Rng + ?Sized>(
    method: DetectionMethod,
    rng: &mut R,
    mut check: impl FnMut(Check) -> bool,
) -> bool {
    match method {
        DetectionMethod::WebdriverFlag => check(Check::FingerprintBot),
        DetectionMethod::TemplateAttack => {
            // Deep checks are rate-limited: the paper saw its surviving
            // blocker fire "for a smaller subset of visits".
            let runs_deep_check = rng.gen_bool(0.45);
            check(Check::FingerprintBot) || (runs_deep_check && check(Check::Tampered))
        }
    }
}

/// Builds a client world from scratch (the uncached path). A failed
/// extension injection surfaces as a typed world-build crash instead of
/// panicking the worker thread.
fn fresh_client_world(client: ClientKind) -> Result<World, VisitError> {
    let mut world = build_firefox_world(BrowserFlavor::WebDriverFirefox);
    if client == ClientKind::OpenWpmSpoofed
        && SpoofingExtension::paper_default()
            .inject(&mut world)
            .is_err()
    {
        return Err(VisitError::RealmCrashed {
            progress: VisitProgress::at_phase(VisitPhase::WorldBuild, 0.0),
        });
    }
    Ok(world)
}

impl Default for DetectorRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// Simulates one visit of `client` to `site`, drawing from the context's
/// `"visit"` stream. Failures degrade into recordable outcomes
/// ([`VisitError::to_outcome`]); callers that need the typed error — the
/// crawler's recovery engine — use [`simulate_visit_attempt`] instead.
/// A caller visiting one site repeatedly builds its [`SiteProfile`] once
/// and calls [`SiteProfile::visit`].
pub fn simulate_visit(
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    ctx: &mut SimContext,
) -> VisitOutcome {
    SiteProfile::new(site).visit(client, runtime, ctx)
}

/// Like [`simulate_visit`], drawing from an explicit RNG stream. The
/// visit runs the same timed core from t = 0 and drops the time it
/// reached: outcomes never depend on time.
// lint: allow(unread-pub-item) test reference: visit_golden.rs and site_profile.rs check SiteProfile visits against it
pub fn simulate_visit_with<R: Rng + ?Sized>(
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    rng: &mut R,
) -> VisitOutcome {
    let mut now_ms = 0.0;
    attempt_core(
        &SiteProfile::new(site),
        client,
        runtime,
        rng,
        &mut now_ms,
        None,
        DEFAULT_VISIT_DEADLINE_MS,
    )
    .unwrap_or_else(|e| e.to_outcome())
}

/// One fault-aware visit attempt: the chaos-mode entry point, building a
/// profile for this one call (see [`SiteProfile::attempt`]).
pub fn simulate_visit_attempt(
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    ctx: &mut SimContext,
    injected: Option<InjectedFault>,
    deadline_ms: f64,
) -> Result<VisitOutcome, VisitError> {
    SiteProfile::new(site).attempt(client, runtime, ctx, injected, deadline_ms)
}

/// Everything about a visit that is a pure function of its site: the
/// content hash, the phase timeline, and the background status code of
/// every request slot. A crawler builds one per site and machine and
/// reuses it for every visit and retry of that site; each visit then
/// draws only what is live — detection, transient 5xx, ad suppression —
/// in exactly the order a fresh profile would, so reuse moves no draw.
#[derive(Debug, Clone)]
pub struct SiteProfile<'a> {
    site: &'a Site,
    content_hash: u64,
    timeline: VisitTimeline,
    /// The first-party slots' background codes, then the third-party
    /// slots'.
    background: Box<[u16]>,
}

impl<'a> SiteProfile<'a> {
    /// Hashes the site once and derives its timeline and every slot's
    /// background code into one exactly sized buffer (one allocation).
    pub fn new(site: &'a Site) -> Self {
        let content_hash = site_content_hash(site);
        let (first, third) = (site.first_party_requests, site.third_party_requests);
        let mut background = Vec::with_capacity(usize::from(first) + usize::from(third));
        push_background_codes(content_hash, "fp", first, &mut background);
        push_background_codes(content_hash, "tp", third, &mut background);
        Self {
            site,
            content_hash,
            timeline: VisitTimeline::from_hash(content_hash),
            background: background.into_boxed_slice(),
        }
    }

    /// The profiled site.
    pub fn site(&self) -> &'a Site {
        self.site
    }

    /// The site's phase timeline ([`VisitTimeline::for_site`]).
    pub fn timeline(&self) -> &VisitTimeline {
        &self.timeline
    }

    /// One visit of `client`, drawing from the context's `"visit"`
    /// stream, with failures degraded into recordable outcomes.
    pub fn visit(
        &self,
        client: ClientKind,
        runtime: &DetectorRuntime,
        ctx: &mut SimContext,
    ) -> VisitOutcome {
        self.attempt(client, runtime, ctx, None, DEFAULT_VISIT_DEADLINE_MS)
            .unwrap_or_else(|e| e.to_outcome())
    }

    /// One fault-aware visit attempt.
    ///
    /// Interaction draws come from the context's `"visit"` stream exactly
    /// as in [`SiteProfile::visit`] — with `injected: None` the draw
    /// sequence (and therefore the outcome) is the same. The scheduled
    /// fault, if any, is decided *by the caller* from the dedicated fault
    /// stream (see `hlisa_sim::FaultPlan`), so injection and retry never
    /// perturb the interaction streams. The visit's phases run on the
    /// context's time ([`SimContext::now_ms`]), which drives the visit
    /// deadline and the elapsed-time fields of any partial-progress
    /// capture; the attempt stores the instant it reached back into the
    /// context, exactly, whether it succeeds or fails.
    pub fn attempt(
        &self,
        client: ClientKind,
        runtime: &DetectorRuntime,
        ctx: &mut SimContext,
        injected: Option<InjectedFault>,
        deadline_ms: f64,
    ) -> Result<VisitOutcome, VisitError> {
        let mut now_ms = ctx.now_ms();
        let result = attempt_core(
            self,
            client,
            runtime,
            ctx.stream("visit"),
            &mut now_ms,
            injected,
            deadline_ms,
        );
        ctx.set_now_ms(now_ms);
        result
    }
}

/// Synthesises a visited site's full interaction chain through a reusable
/// batch [`VisitPlanner`] — the planner stage of the campaign pipeline.
///
/// The plan draws only from a `"plan"` fork of the visit context, so the
/// `"visit"` stream — and therefore every outcome — is bit-identical with
/// or without planning. Successful visits plan the same number of
/// interaction steps the visit timeline executes
/// ([`VisitTimeline::steps_planned`]), scripted from the site's content
/// hash (both read from its `profile`); failed visits plan nothing.
///
/// The plan's sizes are added to `tally`'s `plan.*` slots: sums over the
/// plan's arenas, so two planners that plan the same visit — fresh or
/// reused, on any thread — count the same.
pub fn plan_visit(
    profile: &SiteProfile<'_>,
    outcome: &VisitOutcome,
    ctx: &SimContext,
    params: &HumanParams,
    planner: &mut VisitPlanner,
    tally: &mut Tally,
) {
    if !outcome.successful {
        return;
    }
    let steps = profile.timeline.steps_planned as usize;
    let mut plan_ctx = ctx.fork("plan", 0);
    let plan = planner.plan_site_visit(params, &mut plan_ctx, profile.content_hash, steps);
    tally.add(metrics::PLAN_ACTIONS, plan.actions().len() as u64);
    tally.add(metrics::PLAN_SAMPLES, plan.samples().len() as u64);
    tally.add(metrics::PLAN_KEYS, plan.keys().len() as u64);
    tally.add(metrics::PLAN_TICKS, plan.ticks().len() as u64);
}

/// Deterministic phase timeline for one visit, derived from the site's
/// content hash — **never** from an RNG stream, so adding time accounting
/// cannot perturb any draw sequence.
///
/// Public because the capture layer (`crate::capture`) anchors its
/// emitted event timestamps to the same timeline the visit core advances
/// its time by: the instrument observes the visit at the moments things
/// actually happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitTimeline {
    /// DNS / TCP / TLS establishment time (virtual ms).
    pub connect_ms: f64,
    /// Main-document load time after connect (virtual ms).
    pub load_ms: f64,
    /// Interaction-chain steps the visit plans.
    pub steps_planned: u32,
    /// Virtual ms per interaction step.
    pub step_ms: f64,
}

impl VisitTimeline {
    /// The timeline for one site — a pure function of its content hash.
    pub fn for_site(site: &Site) -> Self {
        Self::from_hash(site_content_hash(site))
    }

    fn from_hash(h: u64) -> Self {
        Self {
            connect_ms: 40.0 + (h % 160) as f64,
            load_ms: 250.0 + ((h >> 8) % 2_000) as f64,
            steps_planned: 3 + ((h >> 16) % 6) as u32,
            step_ms: 350.0 + ((h >> 24) % 900) as f64,
        }
    }
}

/// The visit core. `now_ms` is the visit's time: the core advances it
/// through the visit's phases and reads it for deadlines and progress
/// capture, each phase adding its own duration in order.
fn attempt_core<R: Rng + ?Sized>(
    profile: &SiteProfile<'_>,
    client: ClientKind,
    runtime: &DetectorRuntime,
    rng: &mut R,
    now_ms: &mut f64,
    injected: Option<InjectedFault>,
    deadline_ms: f64,
) -> Result<VisitOutcome, VisitError> {
    let (site, timeline) = (profile.site, profile.timeline);
    let start_ms = *now_ms;

    // Connect phase.
    *now_ms += timeline.connect_ms.min(deadline_ms);
    if site.unreachable {
        return Err(VisitError::Unreachable { site_down: true });
    }
    match injected {
        Some(InjectedFault::PermanentUnreachable) => {
            return Err(VisitError::Unreachable { site_down: false });
        }
        Some(InjectedFault::TransientNetwork) => {
            return Err(VisitError::TransientNetwork { status: None });
        }
        _ => {}
    }

    // Page load. The flaky draw replicates the legacy model's "web
    // dynamics" — a site-intrinsic transient the paper averages out over
    // 8 instances (and that the recovery engine deliberately does not
    // retry; only *injected* faults are).
    if rng.gen_bool(site.flaky_visit_prob) {
        return Err(VisitError::TransientNetwork {
            status: Some(if rng.gen_bool(0.5) { 500 } else { 504 }),
        });
    }
    if matches!(injected, Some(InjectedFault::PageLoadTimeout)) {
        *now_ms += (deadline_ms - (*now_ms - start_ms)).max(0.0);
        return Err(VisitError::PageLoadTimeout { deadline_ms });
    }
    *now_ms += timeline.load_ms;

    // Detector checks. The uncached runtime rebuilds the world for every
    // visit, detector or not, and rescans it (the original cost model);
    // the cached runtime answers from its memoised verdicts. Both agree,
    // because no check consumes RNG.
    let method = site.detector.map(|d| d.method);
    let detected = match &runtime.verdicts {
        Some(cache) => method.is_some_and(|method| {
            detector_verdict(method, rng, |check| runtime.memoised(cache, client, check))
        }),
        None => {
            let mut world = fresh_client_world(client)?;
            method.is_some_and(|method| {
                detector_verdict(method, rng, |check| runtime.run_check(check, &mut world))
            })
        }
    };

    // Interaction chain, with mid-chain stall/crash injection. Progress
    // capture records how far the chain got before the fault.
    let chain_fault = match injected {
        Some(InjectedFault::MidVisitStall { at_fraction }) => Some((at_fraction, true)),
        Some(InjectedFault::RealmCrash { at_fraction }) => Some((at_fraction, false)),
        _ => None,
    };
    if let Some((at_fraction, is_stall)) = chain_fault {
        let steps_done =
            ((at_fraction * f64::from(timeline.steps_planned)) as u32).min(timeline.steps_planned);
        *now_ms += f64::from(steps_done) * timeline.step_ms;
        let elapsed_ms = *now_ms - start_ms;
        let progress = VisitProgress {
            phase: VisitPhase::Interaction,
            steps_done,
            steps_planned: timeline.steps_planned,
            elapsed_ms,
        };
        if is_stall {
            // The stall holds the visit until the deadline fires.
            *now_ms += (deadline_ms - elapsed_ms).max(0.0);
            return Err(VisitError::Stalled {
                progress,
                deadline_ms,
            });
        }
        return Err(VisitError::RealmCrashed { progress });
    }
    *now_ms += f64::from(timeline.steps_planned) * timeline.step_ms;

    // Visual outcome (capture phase).
    let mut visual = VisualOutcome::Normal;
    if detected {
        // `detected` implies a deployed detector; a missing one simply
        // renders normally instead of panicking the worker.
        if let Some(detector) = site.detector {
            visual = match detector.reaction {
                Reaction::BlockPage => VisualOutcome::BlockPage,
                Reaction::Captcha => VisualOutcome::Captcha,
                Reaction::HideAllAds => VisualOutcome::NoAds,
                Reaction::ReduceAds => VisualOutcome::FewerAds,
                Reaction::FreezeVideo => VisualOutcome::FrozenVideo,
                Reaction::Http403 | Reaction::Http503 => VisualOutcome::Normal,
            };
        }
    }
    // Spoofing-compatibility breakage is independent of detection.
    if client == ClientKind::OpenWpmSpoofed && site.breaks_under_spoofing {
        visual = if site.has_video {
            VisualOutcome::FrozenVideo
        } else {
            VisualOutcome::DeformedLayout
        };
    }

    // HTTP responses.
    let (first_party, third_party) = synthesize_http(profile, detected, visual, rng);

    Ok(VisitOutcome {
        reached: true,
        successful: true,
        visual,
        first_party,
        third_party,
        detected,
    })
}

fn synthesize_http<R: Rng + ?Sized>(
    profile: &SiteProfile<'_>,
    detected: bool,
    visual: VisualOutcome,
    rng: &mut R,
) -> (
    StatusCodes<FIRST_PARTY_INLINE>,
    StatusCodes<THIRD_PARTY_INLINE>,
) {
    let site = profile.site;
    let (first_background, third_background) = profile
        .background
        .split_at(usize::from(site.first_party_requests));
    let blockish = matches!(visual, VisualOutcome::BlockPage | VisualOutcome::Captcha);
    let reaction = site.detector.map(|d| d.reaction);

    let mut first = StatusCodes::new();
    for (i, &background) in first_background.iter().enumerate() {
        let code = if detected && blockish {
            // The main document always answers 403; of the subresources
            // the block page still references, most never load.
            if i == 0 || rng.gen_bool(0.6) {
                403
            } else {
                200
            }
        } else if detected && reaction == Some(Reaction::Http403) && rng.gen_bool(0.55) {
            403
        } else if detected && reaction == Some(Reaction::Http503) && rng.gen_bool(0.55) {
            503
        } else {
            live_code(background, rng)
        };
        first.push(code);
    }

    // Under full suppression ad/tracker requests simply never happen.
    let ad_suppression = matches!(visual, VisualOutcome::NoAds) || blockish;
    if ad_suppression {
        return (first, StatusCodes::new());
    }
    let partial_suppression = matches!(visual, VisualOutcome::FewerAds);
    let mut third = StatusCodes::new();
    for &background in third_background {
        if partial_suppression && rng.gen_bool(0.5) {
            continue;
        }
        third.push(live_code(background, rng));
    }
    (first, third)
}

/// Hash of the site's fixed content, shared by every request slot.
///
/// The bulk of a site's response mix is a property of its *content* (a
/// missing image 404s for every visitor alike), so the per-slot code is
/// deterministic in (site, slot); both crawl machines therefore observe
/// nearly identical background errors — exactly why the paper's paired
/// Wilcoxon test isolates the detection-induced differences. A small
/// per-visit chance of a transient 5xx models live-web dynamics (Fig. 4
/// only charts codes with more than 100 occurrences campaign-wide).
pub fn site_content_hash(site: &Site) -> u64 {
    let mut h = hlisa_stats::rngutil::splitmix64(u64::from(site.rank) ^ 0xace1);
    for b in site.domain.as_bytes() {
        h = hlisa_stats::rngutil::splitmix64(h ^ u64::from(*b));
    }
    h
}

/// One visit's status code for a slot whose background code is
/// `background`: a small per-visit chance of a transient 5xx.
fn live_code<R: Rng + ?Sized>(background: u16, rng: &mut R) -> u16 {
    if rng.gen_bool(0.001) {
        return if rng.gen_bool(0.6) { 500 } else { 502 };
    }
    background
}

/// Appends the background codes of slots `0..slots` under `label`, slot
/// `i`'s being `background_code(derive_seed(content_hash, label, i))`,
/// deriving [`BACKGROUND_LANES`] slots' seeds at a time. `codes` must
/// have room for them: filling a reserved buffer, rather than zeroing one
/// (a `calloc`, which bypasses the allocator's thread cache) or
/// collecting an iterator (which reallocates as it grows), keeps the
/// profile at one plain allocation.
fn push_background_codes(content_hash: u64, label: &str, slots: u8, codes: &mut Vec<u16>) {
    for first in (0..slots).step_by(BACKGROUND_LANES) {
        let seeds: [u64; BACKGROUND_LANES] =
            derive_seed_lanes(content_hash, label, u64::from(first));
        let batch = usize::from(slots - first).min(BACKGROUND_LANES);
        codes.extend(seeds[..batch].iter().map(|&h| background_code(h)));
    }
}

/// Slots whose background seeds one `derive_seed_lanes` batch derives.
const BACKGROUND_LANES: usize = 8;

/// A slot's background status code from its derived seed `h`.
fn background_code(h: u64) -> u16 {
    let x = (h % 1_000_000) as f64 / 1_000_000.0;
    match x {
        x if x < 0.915 => 200,
        x if x < 0.945 => 302,
        x if x < 0.950 => 204,
        x if x < 0.976 => 404,
        x if x < 0.984 => 400,
        x if x < 0.990 => 410,
        x if x < 0.996 => 500,
        _ => 502,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{generate_population, PopulationConfig};
    use crate::site::SiteDetector;

    fn plain_site() -> Site {
        Site {
            rank: 1,
            domain: "plain.test".into(),
            detector: None,
            ad_slots: 3,
            has_video: false,
            breaks_under_spoofing: false,
            unreachable: false,
            flaky_visit_prob: 0.0,
            first_party_requests: 10,
            third_party_requests: 20,
            scenario: None,
        }
    }

    #[test]
    fn plain_site_renders_normally_for_both_clients() {
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(1);
        for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
            let v = simulate_visit(&plain_site(), client, &rt, &mut ctx);
            assert!(v.successful);
            assert_eq!(v.visual, VisualOutcome::Normal);
            assert!(!v.detected);
            assert_eq!(v.first_party.len(), 10);
        }
    }

    #[test]
    fn attempt_without_fault_matches_simulate_visit() {
        let rt = DetectorRuntime::new();
        let sites = generate_population(&PopulationConfig {
            n_sites: 30,
            ..PopulationConfig::default()
        });
        for (i, site) in sites.iter().enumerate() {
            for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
                let mut a = SimContext::new(40 + i as u64);
                let mut b = SimContext::new(40 + i as u64);
                let legacy = simulate_visit(site, client, &rt, &mut a);
                let attempt = simulate_visit_attempt(
                    site,
                    client,
                    &rt,
                    &mut b,
                    None,
                    DEFAULT_VISIT_DEADLINE_MS,
                )
                .unwrap_or_else(|e| e.to_outcome());
                assert_eq!(
                    legacy, attempt,
                    "{}: fault-free attempt diverged",
                    site.domain
                );
            }
        }
    }

    /// A fault and the predicate its visit error must satisfy.
    type FaultCase = (InjectedFault, fn(&VisitError) -> bool);

    #[test]
    fn injected_faults_map_to_their_visit_errors() {
        let rt = DetectorRuntime::new();
        let site = plain_site();
        let cases: [FaultCase; 5] = [
            (InjectedFault::PageLoadTimeout, |e| {
                matches!(e, VisitError::PageLoadTimeout { .. })
            }),
            (InjectedFault::MidVisitStall { at_fraction: 0.5 }, |e| {
                matches!(e, VisitError::Stalled { .. })
            }),
            (InjectedFault::RealmCrash { at_fraction: 0.5 }, |e| {
                matches!(e, VisitError::RealmCrashed { .. })
            }),
            (InjectedFault::TransientNetwork, |e| {
                matches!(e, VisitError::TransientNetwork { status: None })
            }),
            (InjectedFault::PermanentUnreachable, |e| {
                matches!(e, VisitError::Unreachable { site_down: false })
            }),
        ];
        for (fault, matches_err) in cases {
            let mut ctx = SimContext::new(9);
            let err = simulate_visit_attempt(
                &site,
                ClientKind::OpenWpm,
                &rt,
                &mut ctx,
                Some(fault),
                DEFAULT_VISIT_DEADLINE_MS,
            )
            .expect_err("fault must fail the attempt");
            assert!(matches_err(&err), "{fault:?} produced {err:?}");
        }
    }

    #[test]
    fn mid_chain_faults_capture_partial_progress() {
        let rt = DetectorRuntime::new();
        let site = plain_site();
        let mut ctx = SimContext::new(11);
        let err = simulate_visit_attempt(
            &site,
            ClientKind::OpenWpm,
            &rt,
            &mut ctx,
            Some(InjectedFault::RealmCrash { at_fraction: 0.6 }),
            DEFAULT_VISIT_DEADLINE_MS,
        )
        .expect_err("crash must fail the attempt");
        let progress = err.progress().expect("mid-chain faults carry progress");
        assert_eq!(progress.phase, VisitPhase::Interaction);
        assert!(progress.steps_planned >= 3);
        assert!(progress.steps_done < progress.steps_planned);
        assert!((progress.chain_fraction() - 0.6).abs() < 0.4);
        assert!(progress.elapsed_ms > 0.0);
    }

    #[test]
    fn stall_and_timeout_run_the_clock_to_the_deadline() {
        let rt = DetectorRuntime::new();
        let site = plain_site();
        for fault in [
            InjectedFault::PageLoadTimeout,
            InjectedFault::MidVisitStall { at_fraction: 0.2 },
        ] {
            let mut ctx = SimContext::new(13);
            let before = ctx.now_ms();
            simulate_visit_attempt(
                &site,
                ClientKind::OpenWpm,
                &rt,
                &mut ctx,
                Some(fault),
                5_000.0,
            )
            .expect_err("fault must fail the attempt");
            assert!(
                ctx.now_ms() - before >= 5_000.0,
                "{fault:?} should hold the visit until its deadline"
            );
        }
    }

    #[test]
    fn webdriver_blocker_blocks_openwpm_not_spoofed() {
        let mut site = plain_site();
        site.detector = Some(SiteDetector {
            method: DetectionMethod::WebdriverFlag,
            reaction: Reaction::BlockPage,
        });
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(2);
        let v1 = simulate_visit(&site, ClientKind::OpenWpm, &rt, &mut ctx);
        assert_eq!(v1.visual, VisualOutcome::BlockPage);
        assert!(v1.first_party.contains(&403));
        let v2 = simulate_visit(&site, ClientKind::OpenWpmSpoofed, &rt, &mut ctx);
        assert_eq!(v2.visual, VisualOutcome::Normal);
        assert!(!v2.detected);
    }

    #[test]
    fn template_blocker_sometimes_catches_spoofed_client() {
        let mut site = plain_site();
        site.detector = Some(SiteDetector {
            method: DetectionMethod::TemplateAttack,
            reaction: Reaction::BlockPage,
        });
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(3);
        let mut caught = 0;
        for _ in 0..40 {
            let v = simulate_visit(&site, ClientKind::OpenWpmSpoofed, &rt, &mut ctx);
            if v.detected {
                caught += 1;
            }
        }
        assert!(caught > 5 && caught < 35, "caught {caught}/40");
        // And it always catches the unspoofed client (webdriver flag).
        let v = simulate_visit(&site, ClientKind::OpenWpm, &rt, &mut ctx);
        assert!(v.detected);
    }

    #[test]
    fn breakage_only_affects_spoofed_client() {
        let mut site = plain_site();
        site.breaks_under_spoofing = true;
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(4);
        let v1 = simulate_visit(&site, ClientKind::OpenWpm, &rt, &mut ctx);
        assert_eq!(v1.visual, VisualOutcome::Normal);
        let v2 = simulate_visit(&site, ClientKind::OpenWpmSpoofed, &rt, &mut ctx);
        assert_eq!(v2.visual, VisualOutcome::DeformedLayout);
    }

    #[test]
    fn ad_hiding_removes_third_party_traffic() {
        let mut site = plain_site();
        site.detector = Some(SiteDetector {
            method: DetectionMethod::WebdriverFlag,
            reaction: Reaction::HideAllAds,
        });
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(5);
        let bot = simulate_visit(&site, ClientKind::OpenWpm, &rt, &mut ctx);
        assert_eq!(bot.visual, VisualOutcome::NoAds);
        assert!(bot.third_party.is_empty());
        let ok = simulate_visit(&site, ClientKind::OpenWpmSpoofed, &rt, &mut ctx);
        assert!(!ok.third_party.is_empty());
    }

    #[test]
    fn unreachable_and_flaky_sites() {
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(6);
        let mut down = plain_site();
        down.unreachable = true;
        let v = simulate_visit(&down, ClientKind::OpenWpm, &rt, &mut ctx);
        assert!(!v.reached && !v.successful);

        let mut flaky = plain_site();
        flaky.flaky_visit_prob = 1.0;
        let v = simulate_visit(&flaky, ClientKind::OpenWpm, &rt, &mut ctx);
        assert!(v.reached && !v.successful);
        assert_eq!(v.visual, VisualOutcome::TransientError);
    }

    /// Every detector role (webdriver, template and silent-HTTP) several
    /// times over, plus unreachable and spoofing-breakage sites.
    fn detector_dense_population(seed: u64) -> Vec<Site> {
        generate_population(&PopulationConfig {
            seed,
            n_sites: 40,
            unreachable_sites: 2,
            webdriver_visible: (2, 2, 2, 2),
            template_visible: (4, 4, 4),
            silent_http: (3, 3),
            breakage_sites: 2,
            ..PopulationConfig::default()
        })
    }

    const VISITS_PER_SITE: u64 = 8;

    /// The memoised verdicts equal the rebuild-and-rescan reference on a
    /// detector-dense population, visit by visit, with both clients
    /// sharing one cached runtime. The coverage asserts keep the test
    /// from passing vacuously: both deep-check branches and both values
    /// of each verdict occur.
    #[test]
    fn cached_and_uncached_runtimes_agree_visit_by_visit() {
        let mut deep_check_ran = [false; 2];
        for seed in [1, 2, 3] {
            let sites = detector_dense_population(seed);
            let cached = DetectorRuntime::new();
            let fresh = DetectorRuntime::without_world_cache();
            let ctx = SimContext::new(seed);
            for site in &sites {
                for v in 0..VISITS_PER_SITE {
                    // Alternate which client asks first, so neither fills
                    // every cell.
                    let mut clients = [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed];
                    if v % 2 == 1 {
                        clients.reverse();
                    }
                    for client in clients {
                        let a = simulate_visit(
                            site,
                            client,
                            &cached,
                            &mut ctx.fork_visit(&site.domain, v),
                        );
                        let b = simulate_visit(
                            site,
                            client,
                            &fresh,
                            &mut ctx.fork_visit(&site.domain, v),
                        );
                        assert_eq!(
                            a, b,
                            "seed {seed}: {client:?} diverged on {} visit {v}",
                            site.domain
                        );
                        // The spoofed client passes the shallow check and
                        // is always tampered, so a template site detects
                        // it exactly when the deep check runs.
                        let template_site = site.detector.map(|d| d.method)
                            == Some(DetectionMethod::TemplateAttack);
                        if client == ClientKind::OpenWpmSpoofed && template_site && a.successful {
                            deep_check_ran[usize::from(a.detected)] = true;
                        }
                    }
                }
            }
            assert_eq!(
                cached.filled_cells(),
                [
                    ("template", true),
                    ("openwpm.fingerprint_bot", true),
                    ("spoofed.fingerprint_bot", false),
                    ("spoofed.tampered", true),
                ],
                "seed {seed}"
            );
        }
        assert_eq!(deep_check_ran, [true, true], "both deep-check branches");
        // Campaigns never need OpenWpm's tampered verdict (its shallow
        // check always fires); asked directly, the memo gives the
        // reference's `false`.
        let cached = DetectorRuntime::new();
        let cache = cached.verdicts.as_ref().expect("cached runtime");
        let mut world = fresh_client_world(ClientKind::OpenWpm).expect("world builds");
        let reference = cached.run_check(Check::Tampered, &mut world);
        assert!(!reference);
        assert_eq!(
            cached.memoised(cache, ClientKind::OpenWpm, Check::Tampered),
            reference
        );
    }

    #[test]
    fn verdicts_and_template_fill_lazily_and_at_most_once() {
        let sites = detector_dense_population(1);
        let crawl = |rt: &DetectorRuntime, clients: &[ClientKind], sites: &[&Site]| {
            let ctx = SimContext::new(1);
            for site in sites {
                for v in 0..VISITS_PER_SITE {
                    for &client in clients {
                        simulate_visit(site, client, rt, &mut ctx.fork_visit(&site.domain, v));
                    }
                }
            }
        };
        let all: Vec<&Site> = sites.iter().collect();
        let non_template: Vec<&Site> = sites
            .iter()
            .filter(|s| s.detector.map(|d| d.method) != Some(DetectionMethod::TemplateAttack))
            .collect();
        assert!(non_template.len() < all.len());

        let rt = DetectorRuntime::new();
        assert_eq!(rt.filled_cells(), []);
        // OpenWpm's shallow check always fires: no deep check, no template.
        crawl(&rt, &[ClientKind::OpenWpm], &all);
        assert_eq!(rt.filled_cells(), [("openwpm.fingerprint_bot", true)]);
        // Neither client needs the template away from template sites.
        let rt = DetectorRuntime::new();
        crawl(
            &rt,
            &[ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed],
            &non_template,
        );
        assert_eq!(
            rt.filled_cells(),
            [
                ("openwpm.fingerprint_bot", true),
                ("spoofed.fingerprint_bot", false)
            ]
        );
        assert_eq!(rt.fills(), 2);

        // Three workers sharing one runtime fill each cell at most once.
        let rt = DetectorRuntime::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    crawl(
                        &rt,
                        &[ClientKind::OpenWpmSpoofed, ClientKind::OpenWpm],
                        &all,
                    )
                });
            }
        });
        assert_eq!(rt.filled_cells().len(), 4);
        assert_eq!(rt.fills(), 4);
    }

    /// Planning leaves every outcome and the `"visit"` stream untouched
    /// (the plan draws only from the `"plan"` fork) and reports
    /// non-trivial stats for successful visits, with one planner serving
    /// a whole population.
    #[test]
    fn planned_visits_match_unplanned_outcomes_bit_for_bit() {
        let cfg = PopulationConfig {
            n_sites: 40,
            unreachable_sites: 3,
            ..PopulationConfig::default()
        };
        let sites = generate_population(&cfg);
        let rt = DetectorRuntime::new();
        let params = hlisa_human::HumanParams::paper_baseline();
        let mut planner = hlisa_human::VisitPlanner::new();
        let mut planned_any = false;
        for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
            for (i, site) in sites.iter().enumerate() {
                let mut ctx_a = SimContext::new(70 + i as u64);
                let mut ctx_b = SimContext::new(70 + i as u64);
                let legacy = simulate_visit(site, client, &rt, &mut ctx_a);
                let planned = simulate_visit(site, client, &rt, &mut ctx_b);
                let profile = SiteProfile::new(site);
                let mut stats = Tally::default();
                plan_visit(
                    &profile,
                    &planned,
                    &ctx_b,
                    &params,
                    &mut planner,
                    &mut stats,
                );
                assert_eq!(legacy, planned, "{}: planned outcome diverged", site.domain);
                // The "visit" stream is untouched by planning.
                assert_eq!(
                    ctx_a.stream("visit").gen::<u64>(),
                    ctx_b.stream("visit").gen::<u64>(),
                    "{}: visit stream perturbed by planning",
                    site.domain
                );
                if planned.successful {
                    let timeline = VisitTimeline::for_site(site);
                    let actions = stats.value(metrics::PLAN_ACTIONS);
                    assert_eq!(actions, u64::from(timeline.steps_planned));
                    let samples = stats.value(metrics::PLAN_SAMPLES);
                    assert!(samples > 0, "{}: no samples planned", site.domain);
                    planned_any = true;
                } else {
                    assert_eq!(stats, Tally::default());
                }
            }
        }
        assert!(planned_any);
    }

    #[test]
    fn population_visit_smoke() {
        let cfg = PopulationConfig {
            n_sites: 50,
            unreachable_sites: 4,
            ..PopulationConfig::default()
        };
        let sites = generate_population(&cfg);
        let rt = DetectorRuntime::new();
        let mut ctx = SimContext::new(7);
        let mut ok = 0;
        for site in &sites {
            let v = simulate_visit(site, ClientKind::OpenWpm, &rt, &mut ctx);
            if v.successful {
                ok += 1;
            }
        }
        assert!(ok >= 40, "{ok}/50 successful");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The lane-batched background codes are the scalar derivation's,
        /// slot by slot, for party sizes on and off the batch width.
        #[test]
        fn batched_background_codes_match_scalar_derivations(
            rank in 1u32..100_000,
            name in 0u32..1_000_000,
            first in 0u8..=255,
            third in 0u8..=255,
        ) {
            let site = Site {
                rank,
                domain: format!("site{name}.test"),
                first_party_requests: first,
                third_party_requests: third,
                ..plain_site()
            };
            let profile = SiteProfile::new(&site);
            let hash = site_content_hash(&site);
            let scalar = |label, n: u8| {
                (0..u64::from(n)).map(move |i| {
                    background_code(hlisa_stats::rngutil::derive_seed(hash, label, i))
                })
            };
            let want: Vec<u16> = scalar("fp", first).chain(scalar("tp", third)).collect();
            proptest::prop_assert_eq!(&profile.background[..], &want[..]);
        }
    }
}

//! Crawl campaign execution: one engine entry, [`run`], and one visit
//! pipeline behind every runner.
//!
//! # The engine
//!
//! A crawl is distributed at *shard* granularity: workers claim
//! consecutive shard indices off one atomic cursor instead of being
//! statically striped over sites (`i % instances == w`). One claim runs
//! every listed machine: the worker materialises shard *k* once, runs
//! the machines in turn over each stretch of it up to a scenario site,
//! and folds their crawls of it ([`MachineShard`]s) with the caller's
//! fold. Every runner is [`run`] plus output shaping.
//! Claiming order is scheduling-dependent, but no draw is: every visit
//! runs in a [`SimContext`] forked purely from `(machine seed, domain,
//! visit index)`, each machine keeps its own per-site fault state and
//! tallies, and results land in per-shard write-once slots reassembled in
//! shard order. Each machine's run is therefore bit-identical for any
//! `instances`, claiming order, shard size, source laziness and set of
//! machines sharing the pass — property-tested. The claimed shard is the
//! containment unit: a panic anywhere in shard *k* degrades every
//! machine's rows of *k* to zero-outcome rows, reports *k* in
//! [`CrawlOutput::degraded`] and drops every machine's telemetry of *k*,
//! while the worker keeps what its earlier shards counted.
//!
//! # The visit pipeline
//!
//! Every visit of every runner runs the same stages, in this order:
//!
//! 1. **Fork** the visit context from the machine context by `(domain,
//!    visit index)`. It owns the visit's one `"fault"` stream.
//! 2. **Attempt** the visit. The plain attempt runs in the visit context
//!    itself. Under [`Pipeline::faults`] the attempt runs under the fault
//!    plane with the retry and breaker logic of [`crate::recovery`]: fault
//!    draws and backoff jitter come from the `"fault"` stream, and each
//!    attempt runs in a fresh re-fork of the visit, so a retried visit
//!    replays exactly the interaction draws of a first try.
//! 3. **Scenario drive** for dynamic-page sites, in the context of the
//!    attempt that settled the visit ([`crate::scenario`]).
//! 4. **Planner**, only when [`CampaignConfig::plan_interactions`] is set;
//!    it draws only from a `"plan"` fork.
//! 5. **Capture**, only under [`Pipeline::capture`]: the outcome is
//!    re-recorded through the capture pipeline ([`crate::reliability`])
//!    in each mode of a *set* of [`CaptureMode`]s. The visit draws one
//!    loss schedule from the `"fault"` stream *after* the fault plane's
//!    draws (with the fault stage off, at the stream's start) and emits
//!    its capture events once; the schedule and the events feed every
//!    mode's observers, and each mode yields its own record
//!    ([`MachineShard::records`]) and counters
//!    ([`MachineTelemetry::captures`]). The modes can share one attempt
//!    because capture is the last stage and draw-free past the schedule:
//!    nothing a mode records flows back into the visit.
//!
//! Stages 2–5 never touch each other's streams, so switching a stage off
//! leaves every other stage's draws where they were: the plain pipeline
//! equals the faulted one at fault rate 0 and the pristine-captured one.
//!
//! The stages' telemetry is kept in per-worker [`Tally`]s, one per machine
//! (the fault and planner stages) plus one per machine and capture mode,
//! and rendered into one [`MachineTelemetry`] per machine once per pass,
//! so no visit builds or merges a [`CounterSet`].

use crate::chaos::{ChaosConfig, SiteFaults, SiteRecovery};
use crate::recovery::VisitRecovery;
use crate::reliability::{captured_visit, CaptureMode};
use crate::scenario::{apply_scenario_drive_with, ScenarioScratch};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::metrics::{FaultSlots, LossSlots, PlanSlots, RecorderSlots};
use hlisa_sim::{CounterSet, LossPlan, SimContext, Tally};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    emit_capture_events_into, generate_population, plan_visit, CaptureEvent, ClientKind,
    PopulationConfig, PopulationShards, Site, SiteProfile, VisitOutcome, DEFAULT_SHARD_SIZE,
    DEFAULT_VISIT_DEADLINE_MS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed (covers visit-level randomness).
    pub seed: u64,
    /// Site population.
    pub population: PopulationConfig,
    /// Visits per site per machine (the paper's 8 simultaneous instances
    /// provide "a baseline to average out variations").
    pub visits_per_site: usize,
    /// Parallel browser instances per machine.
    pub instances: usize,
    /// Answer site detectors from memoised verdicts (`true`, the fast
    /// path: each check runs once per client on a snapshot stamp) or
    /// rebuild the client's JS world and rescan it on every visit
    /// (`false`, the original cost model). Campaign output is
    /// bit-identical either way — no check consumes RNG — so this only
    /// trades speed.
    pub world_cache: bool,
    /// Run the planner stage: every successful visit also synthesises
    /// its interaction chain off a batch [`VisitPlanner`] (one reusable
    /// arena per worker). The plan draws only from a `"plan"` fork of
    /// each visit context, so campaign outcomes are bit-identical with
    /// the mode on or off; planning adds the `plan.*` counters of
    /// [`MachineTelemetry::plan`].
    pub plan_interactions: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0x6372_6177, // "craw"
            population: PopulationConfig::default(),
            visits_per_site: 8,
            instances: 8,
            world_cache: true,
            plan_interactions: false,
        }
    }
}

/// The optional stages of the visit pipeline (see the module docs for
/// the stage order). The default runs neither: the plain campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pipeline<'a> {
    /// Attempt every visit under this fault plane and recovery policy.
    pub faults: Option<&'a ChaosConfig>,
    /// Re-record every visit through the capture pipeline in each of
    /// these modes, degraded by this loss plan. The visit draws one loss
    /// schedule and emits its events once, for all the modes.
    pub capture: Option<(&'a LossPlan, &'a [CaptureMode])>,
}

/// All visits of one site by one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// The site's domain.
    pub domain: String,
    /// Tranco-style rank.
    pub rank: u32,
    /// One outcome per visit.
    pub outcomes: Vec<VisitOutcome>,
}

impl SiteResult {
    /// Whether any visit reached the site.
    pub fn reached(&self) -> bool {
        self.outcomes.iter().any(|o| o.reached)
    }

    /// Number of successful visits.
    pub fn successful_visits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.successful).count()
    }
}

/// One machine's full crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// The client flavour this machine ran.
    pub client: ClientKind,
    /// Per-site results, in population order.
    pub sites: Vec<SiteResult>,
}

/// Both machines' crawls over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The site population visited.
    pub sites: Vec<Site>,
    /// Machine (1): stock OpenWPM.
    pub openwpm: MachineRun,
    /// Machine (2): OpenWPM + spoofing extension.
    pub spoofed: MachineRun,
}

/// Where a machine's sites come from.
#[derive(Debug, Clone, Copy)]
pub enum SiteSource<'a> {
    /// A pre-generated population, windowed into logical shards of
    /// `shard_size` sites (no per-shard allocation).
    Slice {
        /// The population.
        sites: &'a [Site],
        /// Sites per shard.
        shard_size: usize,
    },
    /// The lazy shard layer — each shard generated on claim, dropped
    /// when the worker finishes it.
    Lazy(&'a PopulationShards),
}

impl<'a> SiteSource<'a> {
    /// A pre-generated population in shards of [`DEFAULT_SHARD_SIZE`].
    pub fn slice(sites: &'a [Site]) -> Self {
        SiteSource::Slice {
            sites,
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }

    pub(crate) fn n_sites(&self) -> usize {
        match self {
            SiteSource::Slice { sites, .. } => sites.len(),
            SiteSource::Lazy(shards) => shards.n_sites(),
        }
    }

    pub(crate) fn shard_size(&self) -> usize {
        match self {
            SiteSource::Slice { shard_size, .. } => (*shard_size).max(1),
            SiteSource::Lazy(shards) => shards.shard_size(),
        }
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.n_sites().div_ceil(self.shard_size())
    }

    /// Runs `f` over shard `k`'s sites. A slice source borrows its
    /// window; the lazy source materialises the shard for exactly the
    /// duration of the call.
    pub(crate) fn with_shard<T>(&self, k: usize, f: impl FnOnce(&[Site]) -> T) -> T {
        match self {
            SiteSource::Slice { sites, .. } => {
                let lo = k * self.shard_size();
                f(&sites[lo..(lo + self.shard_size()).min(sites.len())])
            }
            SiteSource::Lazy(shards) => shards.with_shard(k, |_, sites| f(sites)),
        }
    }
}

/// The paper's two machines, in report order: stock OpenWPM, then
/// OpenWPM with the spoofing extension.
pub const MACHINES: [ClientKind; 2] = [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed];

/// One machine's crawl of one shard, or of several appended: one record
/// per capture mode, in [`Pipeline::capture`] order (exactly one record
/// with capture off), each a [`SiteResult`] per site, and under the
/// fault stage a recovery record per site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineShard {
    /// The results as each capture mode recorded them, each in site
    /// order; with capture off, the one list of results.
    pub records: Vec<Vec<SiteResult>>,
    /// Per-site recovery telemetry in site order; empty unless the fault
    /// stage ran. Each visit's outcome is the first record's.
    pub recovery: Vec<SiteRecovery>,
}

impl MachineShard {
    fn new(sites: usize, pipeline: &Pipeline<'_>) -> Self {
        Self {
            records: (0..capture_modes(pipeline).max(1))
                .map(|_| Vec::with_capacity(sites))
                .collect(),
            recovery: Vec::new(),
        }
    }

    /// Appends one site's rows: its outcomes in each record, and its
    /// recovery record under the fault stage.
    fn push(
        &mut self,
        site: &Site,
        outcomes: Vec<Vec<VisitOutcome>>,
        recovery: Option<SiteRecovery>,
    ) {
        for (rows, outcomes) in self.records.iter_mut().zip(outcomes) {
            rows.push(SiteResult {
                domain: site.domain.clone(),
                rank: site.rank,
                outcomes,
            });
        }
        self.recovery.extend(recovery);
    }

    /// Graceful degradation for a shard whose processing panicked: every
    /// site is recorded unvisited (zero outcomes) in every record rather
    /// than aborting the whole run, mirroring how the paper's crawl keeps
    /// its Table 2 denominators when individual browser instances wedge.
    fn unvisited(sites: &[Site], pipeline: &Pipeline<'_>) -> Self {
        let mut crawl = Self::new(sites.len(), pipeline);
        for site in sites {
            let recovery = pipeline.faults.map(|_| SiteRecovery {
                domain: site.domain.clone(),
                visits: Vec::new(),
                breaker_open: false,
            });
            crawl.push(site, vec![Vec::new(); crawl.records.len()], recovery);
        }
        crawl
    }

    /// Appends a later shard's crawl of the same machine and pipeline; an
    /// empty (default) crawl takes on the later one's records.
    pub fn append(&mut self, later: MachineShard) {
        if self.records.len() < later.records.len() {
            self.records.resize_with(later.records.len(), Vec::new);
        }
        for (rows, later) in self.records.iter_mut().zip(later.records) {
            rows.extend(later);
        }
        self.recovery.extend(later.recovery);
    }

    /// The crawl's one record (capture off) as `client`'s run.
    pub(crate) fn into_run(mut self, client: ClientKind) -> MachineRun {
        let sites = self.records.pop().unwrap_or_default();
        MachineRun { client, sites }
    }
}

/// One machine's stage telemetry, summed over the shards that completed
/// and therefore identical for any worker count and claiming order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineTelemetry {
    /// The fault stage's `fault.*`/`retry.*`/`breaker.*` counters, sorted
    /// by name; empty unless the stage ran.
    pub faults: CounterSet,
    /// Each capture mode's `loss.*`/`capture.*`/`recorder.*` counters,
    /// sorted by name, in [`Pipeline::capture`] order; empty with capture
    /// off.
    pub captures: Vec<CounterSet>,
    /// The planner stage's `plan.*` counters, sorted by name; empty unless
    /// [`CampaignConfig::plan_interactions`].
    pub plan: CounterSet,
}

/// What one [`run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlOutput<S, const N: usize> {
    /// The folded shards, in shard order.
    pub shards: Vec<S>,
    /// The shards whose processing panicked, in ascending order: each was
    /// folded from every machine's unvisited (zero-outcome) rows. Empty
    /// for a clean run.
    pub degraded: Vec<usize>,
    /// Each machine's telemetry, in `clients` order.
    pub telemetry: [MachineTelemetry; N],
}

/// The engine behind every runner: one pass of `pipeline` over `source`
/// by every machine of `clients`, with `config.instances` workers.
///
/// A claim materialises shard *k* once, runs the machines over it in
/// `clients` order and hands their crawls to `fold(k, crawls)` *inside
/// the worker*, so a summarising fold keeps one summary per shard, and a
/// lazy source holds at most one shard per worker. A shard whose
/// processing (fold included) panics is folded from every machine's
/// unvisited rows instead, listed in [`CrawlOutput::degraded`] and left
/// out of the telemetry. No draw depends on the schedule, worker count,
/// shard size, source laziness or the other machines of the pass.
pub fn run<const N: usize, S: Send + Sync>(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    clients: [ClientKind; N],
    pipeline: &Pipeline<'_>,
    fold: &(impl Fn(usize, [MachineShard; N]) -> S + Sync),
) -> CrawlOutput<S, N> {
    drive(config, source, clients, pipeline, fold).0
}

/// Runs the full two-machine campaign.
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let sites = generate_population(&config.population);
    let ([openwpm, spoofed], _) = crawl_both(config, &sites, &Pipeline::default());
    Campaign {
        sites,
        openwpm: openwpm.into_run(ClientKind::OpenWpm),
        spoofed: spoofed.into_run(ClientKind::OpenWpmSpoofed),
    }
}

/// Streaming runner for populations too large to hold a [`SiteResult`]
/// per site: one machine's plain [`run`] over the lazy `shards`, each
/// shard's results folded into a summary by `summarise(shard index,
/// results)` inside the worker. Summaries return in shard order; a shard
/// whose processing panicked is summarised from unvisited rows.
pub fn run_machine_shard_summaries<S: Send + Sync>(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
    summarise: &(impl Fn(usize, Vec<SiteResult>) -> S + Sync),
) -> Vec<S> {
    let fold = |k, [crawl]: [MachineShard; 1]| summarise(k, crawl.into_run(client).sites);
    let source = SiteSource::Lazy(shards);
    run(config, &source, [client], &Pipeline::default(), &fold).shards
}

/// Both machines' whole crawls of `sites` through `pipeline`, from one
/// [`run`] whose fold keeps every shard: each machine's shards appended
/// in shard order, and its telemetry. The eager runners shape this.
pub(crate) fn crawl_both(
    config: &CampaignConfig,
    sites: &[Site],
    pipeline: &Pipeline<'_>,
) -> ([MachineShard; 2], [MachineTelemetry; 2]) {
    let source = SiteSource::slice(sites);
    let out = run(config, &source, MACHINES, pipeline, &|_, crawls| crawls);
    let mut whole = MACHINES.map(|_| MachineShard::new(sites.len(), pipeline));
    for crawls in out.shards {
        for (whole, crawl) in whole.iter_mut().zip(crawls) {
            whole.append(crawl);
        }
    }
    (whole, out.telemetry)
}

fn new_runtime(config: &CampaignConfig) -> DetectorRuntime {
    if config.world_cache {
        DetectorRuntime::new()
    } else {
        DetectorRuntime::without_world_cache()
    }
}

/// How many capture modes `pipeline` records in.
fn capture_modes(pipeline: &Pipeline<'_>) -> usize {
    pipeline.capture.map_or(0, |(_, modes)| modes.len())
}

/// The shard-claiming worker engine. Spawns `min(instances, shards)`
/// workers which repeatedly claim the next shard index off one atomic
/// cursor and run `process` over its sites with a worker-local state
/// (`init` per worker), writing each shard's product into a write-once
/// slot.
///
/// A shard whose `process` panics leaves its slot empty; the worker hands
/// its state to `recover` (the panic may have left it half updated) and
/// keeps claiming, so a panic is contained to its own shard whatever the
/// worker count. `recover` must discard what the panicked shard wrote and
/// keep what completed shards did. Returns the per-shard products in
/// shard order (`None` for a panicked shard — callers degrade those) and
/// the worker states in worker-index order. The claiming order is
/// scheduling-dependent; nothing processed is: `process` receives only
/// the shard's identity and sites, so any claim order yields the same
/// slot contents, and worker-state *totals* over completed shards are
/// partition-independent.
pub(crate) fn run_sharded<S, W>(
    instances: usize,
    source: &SiteSource<'_>,
    init: &(impl Fn() -> W + Sync),
    process: &(impl Fn(&mut W, usize, &[Site]) -> S + Sync),
    recover: &(impl Fn(&mut W) + Sync),
) -> (Vec<Option<S>>, Vec<W>)
where
    S: Send + Sync,
    W: Send,
{
    let n_shards = source.n_shards();
    let workers = instances.max(1).min(n_shards.max(1));
    let slots: Vec<OnceLock<S>> = (0..n_shards).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);

    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let slots = &slots;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= n_shards {
                            break;
                        }
                        // Caught inside `with_shard`, so a lazy shard is
                        // still released when its processing panics.
                        let product = source.with_shard(k, |sites| {
                            catch_unwind(AssertUnwindSafe(|| process(&mut state, k, sites)))
                        });
                        match product {
                            // Each shard index is claimed by exactly one
                            // worker, so the set can only succeed; if the
                            // cursor invariant ever broke, the first
                            // write wins and the campaign still completes.
                            Ok(product) => {
                                let _ = slots[k].set(product);
                            }
                            Err(_) => recover(&mut state),
                        }
                    }
                    state
                })
            })
            .collect();
        // Join in worker-index order so the returned states are
        // positionally stable; a worker that died yields a fresh state.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| init()))
            .collect::<Vec<_>>()
    });

    (
        slots.into_iter().map(OnceLock::into_inner).collect(),
        states,
    )
}

/// [`run`], also returning the worker states. One detector runtime serves
/// the pass; a verdict depends only on the client's pristine world.
fn drive<const N: usize, S: Send + Sync>(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    clients: [ClientKind; N],
    pipeline: &Pipeline<'_>,
    fold: &(impl Fn(usize, [MachineShard; N]) -> S + Sync),
) -> (CrawlOutput<S, N>, Vec<VisitWorker>) {
    let runtime = new_runtime(config);
    let machines: [Machine<'_>; N] = std::array::from_fn(|slot| Machine {
        config,
        client: clients[slot],
        slot,
        runtime: &runtime,
        pipeline: *pipeline,
        ctx: machine_context(config, clients[slot]),
    });
    let crawl_shard = |worker: &mut VisitWorker, sites: &[Site]| {
        let mut crawls: [MachineShard; N] =
            std::array::from_fn(|_| MachineShard::new(sites.len(), pipeline));
        // Machine by machine over each run ending at a scenario site: the
        // next machine finds that page still cached, and each machine's
        // results sit together on the heap for whoever walks or drops them.
        for run in sites.split_inclusive(|site| site.scenario.is_some()) {
            for (machine, crawl) in machines.iter().zip(&mut crawls) {
                for site in run {
                    machine.crawl_site(site, worker, crawl);
                }
            }
        }
        crawls
    };
    let modes = capture_modes(pipeline);
    let (slots, workers) = run_sharded(
        config.instances,
        source,
        &|| VisitWorker::new(config.plan_interactions, N, modes),
        &|worker: &mut VisitWorker, k, sites| {
            let folded = fold(k, crawl_shard(worker, sites));
            worker.commit_shard();
            folded
        },
        &|worker: &mut VisitWorker| worker.recover(config.plan_interactions, modes),
    );
    let unvisited =
        |sites: &[Site]| std::array::from_fn(|_| MachineShard::unvisited(sites, pipeline));
    let mut degraded = Vec::new();
    let shards = slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.unwrap_or_else(|| {
                degraded.push(k);
                source.with_shard(k, |sites| fold(k, unvisited(sites)))
            })
        })
        .collect();
    let telemetry = std::array::from_fn(|slot| {
        let mut totals = vec![Tally::default(); 1 + modes];
        for worker in &workers {
            absorb(&mut totals, &worker.totals[slot]);
        }
        telemetry(&totals[0], &totals[1..])
    });
    let output = CrawlOutput {
        shards,
        degraded,
        telemetry,
    };
    (output, workers)
}

/// The machine context every visit fork derives from: a pure function of
/// `(campaign seed, machine label)`.
fn machine_context(config: &CampaignConfig, client: ClientKind) -> SimContext {
    let label = match client {
        ClientKind::OpenWpm => "m1",
        ClientKind::OpenWpmSpoofed => "m2",
    };
    SimContext::new(config.seed).fork(label, 0)
}

/// Adds each of `other`'s tallies to the matching one of `tallies`.
fn absorb(tallies: &mut [Tally], other: &[Tally]) {
    for (mine, theirs) in tallies.iter_mut().zip(other) {
        mine.absorb(theirs);
    }
}

/// A machine's own tally and its capture modes' tallies rendered into
/// sorted counter sets.
fn telemetry(machine: &Tally, modes: &[Tally]) -> MachineTelemetry {
    let render = |tally: &Tally, slots| {
        let mut set = CounterSet::new();
        tally.render_into(slots, &mut set);
        set.sorted()
    };
    let captures = modes
        .iter()
        .map(|mode| render(mode, LossSlots::SLOTS.start..RecorderSlots::SLOTS.end));
    MachineTelemetry {
        faults: render(machine, FaultSlots::SLOTS),
        captures: captures.collect(),
        plan: render(machine, PlanSlots::SLOTS),
    }
}

/// Worker-local visit state: the scenario drive's retained scratch, the
/// planner (planner mode only), the capture stage's event buffer and
/// write-ahead buffer, and
/// each machine's tallies — the machine's own, then one per capture
/// mode — of the current shard, and their totals over the shards the
/// worker completed. One serves every machine for the worker's
/// whole shard stream, so every scratch buffer reaches its high-water
/// capacity once and a site's scenario page, built for the first machine,
/// is still cached when the next one drives it. Nothing in it can
/// influence a draw, so any worker produces the same results.
///
/// The scratch and the planner are boxed to keep the state a few words
/// wide: inline, their ~4 KiB pushed each worker's stack past the pages a
/// reused thread stack keeps resident, and every run paid fresh page
/// faults for it (measurable in `adverse_crawl`'s set-up time).
struct VisitWorker {
    scenario: Box<ScenarioScratch>,
    planner: Option<Box<(HumanParams, VisitPlanner)>>,
    events: Vec<(f64, CaptureEvent)>,
    write_ahead: Vec<(f64, CaptureEvent)>,
    shard: Vec<Vec<Tally>>,
    totals: Vec<Vec<Tally>>,
}

impl VisitWorker {
    fn new(plan_interactions: bool, machines: usize, modes: usize) -> Self {
        Self {
            scenario: Box::default(),
            planner: plan_interactions
                .then(|| Box::new((HumanParams::paper_baseline(), VisitPlanner::new()))),
            events: Vec::new(),
            write_ahead: Vec::new(),
            shard: vec![vec![Tally::default(); 1 + modes]; machines],
            totals: vec![vec![Tally::default(); 1 + modes]; machines],
        }
    }

    /// The shard completed: every machine's tallies of it join the
    /// worker's totals.
    fn commit_shard(&mut self) {
        for (totals, shard) in self.totals.iter_mut().zip(&mut self.shard) {
            absorb(totals, shard);
            shard.fill(Tally::default());
        }
    }

    /// A shard panicked: fresh scratch and shard tallies, same totals.
    fn recover(&mut self, plan_interactions: bool, modes: usize) {
        let totals = std::mem::take(&mut self.totals);
        *self = Self::new(plan_interactions, totals.len(), modes);
        self.totals = totals;
    }
}

/// One machine's fixed inputs: everything a visit reads besides its
/// site and the worker's state. `slot` is the machine's index into the
/// worker's tallies.
struct Machine<'a> {
    config: &'a CampaignConfig,
    client: ClientKind,
    slot: usize,
    runtime: &'a DetectorRuntime,
    pipeline: Pipeline<'a>,
    ctx: SimContext,
}

impl Machine<'_> {
    /// All of this machine's visits of one site — the per-site loop of
    /// every runner, identical whichever worker claims the site, whenever
    /// it runs and whichever machines share the pass. Appends the site's
    /// rows to `crawl`; under the fault stage the site also gets its
    /// recovery record.
    fn crawl_site(&self, site: &Site, worker: &mut VisitWorker, crawl: &mut MachineShard) {
        let visits = self.config.visits_per_site;
        // What is pure in the site, computed once for all its visits.
        let profile = SiteProfile::new(site);
        let mut faults = self
            .pipeline
            .faults
            .map(|chaos| SiteFaults::new(chaos, self.config.seed, site, visits));
        // The visits' outcomes in each record.
        let mut outcomes: Vec<Vec<VisitOutcome>> = (0..crawl.records.len())
            .map(|_| Vec::with_capacity(visits))
            .collect();
        // 1. Fork each visit's context (`fork_visit(domain, v)`, the
        // site's seeds derived a batch at a time).
        for (v, mut ctx) in self.ctx.visit_forks(&site.domain, visits).enumerate() {
            // 2. Attempt the visit.
            match &mut faults {
                None => {
                    let outcome = profile.visit(self.client, self.runtime, &mut ctx);
                    self.after_attempt(&profile, outcome, &mut ctx, None, worker, &mut outcomes);
                }
                Some(faults) => {
                    let seed = ctx.seed();
                    let (record, mut settled) =
                        faults.attempt(&mut ctx, |injected, deadline_ms| {
                            // Each attempt re-forks the visit: a fresh
                            // context of the visit's seed.
                            let mut attempt_ctx = SimContext::new(seed);
                            let result = profile.attempt(
                                self.client,
                                self.runtime,
                                &mut attempt_ctx,
                                injected,
                                deadline_ms,
                            );
                            (result, attempt_ctx)
                        });
                    let settled = settled.as_mut();
                    let outcome = record.outcome;
                    self.after_attempt(&profile, outcome, &mut ctx, settled, worker, &mut outcomes);
                    // The recovery record keeps the first record's outcome
                    // and the record an exactly sized copy, allocated in
                    // one piece: callers walk and drop the records.
                    let first = &mut outcomes[0][v];
                    let outcome = std::mem::replace(first, first.clone());
                    faults.record(VisitRecovery { outcome, ..record });
                }
            }
        }
        let tally = &mut worker.shard[self.slot][0];
        crawl.push(site, outcomes, faults.map(|f| f.into_recovery(site, tally)));
    }

    /// Stages 3–5 on the settled attempt's `outcome` of the profiled
    /// site, appending the visit's outcome to each record's list in
    /// `outcomes`: `outcome` itself with capture off, each mode's capture
    /// of it otherwise. `ctx` is the visit context; `settled` is the
    /// context of the attempt that settled the visit when the fault stage
    /// re-forked it (`None`: the attempt ran in `ctx`, or the breaker
    /// skipped it).
    fn after_attempt(
        &self,
        profile: &SiteProfile<'_>,
        mut outcome: VisitOutcome,
        ctx: &mut SimContext,
        settled: Option<&mut SimContext>,
        worker: &mut VisitWorker,
        outcomes: &mut [Vec<VisitOutcome>],
    ) {
        let site = profile.site();
        let visit_ctx = match settled {
            Some(settled) => settled,
            None => &mut *ctx,
        };
        // 3. Scenario drive.
        if let Some(kind) = site.scenario {
            apply_scenario_drive_with(
                self.config.seed,
                site,
                kind,
                self.client,
                &mut outcome,
                visit_ctx,
                &mut worker.scenario,
            );
        }
        // 4. Planner.
        if let Some(planner) = &mut worker.planner {
            let (params, planner) = &mut **planner;
            let tally = &mut worker.shard[self.slot][0];
            plan_visit(profile, &outcome, visit_ctx, params, planner, tally);
        }
        // 5. Capture, continuing the visit's "fault" stream: one schedule
        // and one event stream feed every mode's observers.
        let Some((plan, modes)) = self.pipeline.capture else {
            outcomes[0].push(outcome);
            return;
        };
        let schedule = plan.draw(ctx.stream("fault"));
        let events = &mut worker.events;
        emit_capture_events_into(
            profile.timeline(),
            &outcome,
            DEFAULT_VISIT_DEADLINE_MS,
            events,
        );
        let tallies = &mut worker.shard[self.slot][1..];
        let write_ahead = &mut worker.write_ahead;
        for ((outcomes, &mode), tally) in outcomes.iter_mut().zip(modes).zip(tallies) {
            outcomes.push(captured_visit(events, schedule, mode, tally, write_ahead));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_web::ScenarioMix;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            population: PopulationConfig {
                n_sites: 60,
                unreachable_sites: 5,
                webdriver_visible: (2, 1, 1, 1),
                template_visible: (1, 1, 1),
                silent_http: (2, 1),
                breakage_sites: 1,
                ..PopulationConfig::default()
            },
            visits_per_site: 4,
            instances: 4,
            ..CampaignConfig::default()
        }
    }

    /// One machine's crawl of `source` through `pipeline`, its shards
    /// appended in shard order, and its telemetry.
    fn single(
        config: &CampaignConfig,
        source: &SiteSource<'_>,
        client: ClientKind,
        pipeline: &Pipeline<'_>,
    ) -> (MachineShard, MachineTelemetry) {
        let out = run(config, source, [client], pipeline, &|_, [crawl]| crawl);
        let mut whole = MachineShard::default();
        for crawl in out.shards {
            whole.append(crawl);
        }
        let [telemetry] = out.telemetry;
        (whole, telemetry)
    }

    fn plain(config: &CampaignConfig, source: &SiteSource<'_>, client: ClientKind) -> MachineRun {
        single(config, source, client, &Pipeline::default())
            .0
            .into_run(client)
    }

    /// Every machine's crawl from one pass over `clients` whose fold keeps
    /// every shard: each machine's shards appended in shard order, and its
    /// telemetry.
    fn paired<const N: usize>(
        config: &CampaignConfig,
        source: &SiteSource<'_>,
        clients: [ClientKind; N],
        pipeline: &Pipeline<'_>,
    ) -> [(MachineShard, MachineTelemetry); N] {
        let out = run(config, source, clients, pipeline, &|_, crawls| crawls);
        let mut whole = clients.map(|_| MachineShard::default());
        for crawls in out.shards {
            for (whole, crawl) in whole.iter_mut().zip(crawls) {
                whole.append(crawl);
            }
        }
        let mut telemetry = out.telemetry.into_iter();
        whole.map(|crawl| (crawl, telemetry.next().unwrap_or_default()))
    }

    #[test]
    fn campaign_covers_all_sites_for_both_machines() {
        let c = run_campaign(&small_config());
        assert_eq!(c.openwpm.sites.len(), 60);
        assert_eq!(c.spoofed.sites.len(), 60);
        assert!(c.openwpm.sites.iter().all(|s| s.outcomes.len() == 4));
        // Result order matches population order despite parallelism.
        for (site, result) in c.sites.iter().zip(&c.openwpm.sites) {
            assert_eq!(site.domain, result.domain);
        }
    }

    #[test]
    fn campaign_is_deterministic_across_runs_and_thread_counts() {
        let base = small_config();
        let mut serial = base.clone();
        serial.instances = 1;
        let a = run_campaign(&base);
        let b = run_campaign(&serial);
        assert_eq!(a, b, "parallel schedule must not affect results");
    }

    /// Every detector role several times over, 8 visits per site: the
    /// population of `hlisa_web::visit`'s verdict-memo differential.
    fn detector_dense_config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            population: PopulationConfig {
                seed,
                n_sites: 40,
                unreachable_sites: 2,
                webdriver_visible: (2, 2, 2, 2),
                template_visible: (4, 4, 4),
                silent_http: (3, 3),
                breakage_sites: 2,
                ..PopulationConfig::default()
            },
            visits_per_site: 8,
            instances: 3,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn snapshot_stamped_campaign_is_bit_identical_to_fresh_built() {
        let configs = [small_config()]
            .into_iter()
            .chain([1, 2, 3].map(detector_dense_config));
        for cached in configs {
            let mut fresh = cached.clone();
            fresh.world_cache = false;
            let a = run_campaign(&cached);
            let b = run_campaign(&fresh);
            assert_eq!(
                a, b,
                "seed {}: memoised verdicts must not change any outcome",
                cached.seed
            );
        }
    }

    /// The batch planner drives real campaign visits without changing a
    /// single outcome, and its totals are invariant to worker count and
    /// claiming order.
    #[test]
    fn planned_campaign_is_bit_identical_with_thread_invariant_totals() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let source = SiteSource::slice(&sites);
        let mut planned = config.clone();
        planned.plan_interactions = true;
        for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
            let baseline = plain(&config, &source, client);
            let (crawl, telemetry) = single(&planned, &source, client, &Pipeline::default());
            let totals = telemetry.plan;
            assert_eq!(
                crawl.into_run(client),
                baseline,
                "{client:?}: planning changed outcomes"
            );
            let actions = totals.get("plan.actions").unwrap_or(0);
            assert!(actions > 0, "{client:?}: planner saw no visits");
            let samples = totals.get("plan.samples").unwrap_or(0);
            assert!(samples > actions, "{client:?}: empty plans");
            // Totals are sums over visits: any partition of the shard
            // stream over workers lands on the same numbers.
            for instances in [1usize, 3, 8] {
                let cfg = CampaignConfig {
                    instances,
                    ..planned.clone()
                };
                let (crawl, telemetry) = single(&cfg, &source, client, &Pipeline::default());
                assert_eq!(
                    crawl.into_run(client),
                    baseline,
                    "{client:?}/{instances} workers diverged"
                );
                assert_eq!(
                    telemetry.plan, totals,
                    "{client:?}/{instances} totals diverged"
                );
            }
        }
    }

    #[test]
    fn unreachable_sites_never_reached() {
        let c = run_campaign(&small_config());
        for (site, result) in c.sites.iter().zip(&c.openwpm.sites) {
            if site.unreachable {
                assert!(!result.reached());
                assert_eq!(result.successful_visits(), 0);
            }
        }
    }

    #[test]
    fn a_panicking_shard_degrades_only_its_own_slot() {
        let sites = generate_population(&small_config().population);
        let source = SiteSource::Slice {
            sites: &sites,
            shard_size: 10,
        };
        for instances in [1usize, 3] {
            let (slots, states) = run_sharded(
                instances,
                &source,
                &|| 0usize,
                &|done: &mut usize, k, shard_sites| {
                    if k == 2 {
                        panic!("injected panic in shard {k}");
                    }
                    *done += 1;
                    shard_sites.len()
                },
                &|_: &mut usize| {},
            );
            assert_eq!(slots.len(), source.n_shards());
            for (k, slot) in slots.iter().enumerate() {
                assert_eq!(slot.is_none(), k == 2, "{instances} workers, shard {k}");
            }
            // Every worker survived to return its state, and the states
            // still count every completed shard.
            assert_eq!(states.len(), instances);
            assert_eq!(states.iter().sum::<usize>(), source.n_shards() - 1);
        }
    }

    #[test]
    fn poisoned_shard_degrades_to_zero_outcome_rows_instead_of_aborting() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let source = SiteSource::Slice {
            sites: &sites,
            shard_size: 10,
        };
        let chaos = ChaosConfig::uniform(0.1);
        let pipeline = Pipeline {
            faults: Some(&chaos),
            capture: None,
        };
        for instances in [1usize, 2, 3, 4] {
            let cfg = CampaignConfig {
                instances,
                ..config.clone()
            };
            // A worker that wedges mid-shard: shard 1 panics whenever it
            // was actually crawled. Every other shard is filled normally.
            let out = run(
                &cfg,
                &source,
                [ClientKind::OpenWpm],
                &pipeline,
                &|k, [crawl]: [MachineShard; 1]| {
                    if k == 1 && crawl.records[0].iter().any(|r| !r.outcomes.is_empty()) {
                        panic!("worker wedged on shard {k}");
                    }
                    crawl
                },
            );
            assert_eq!(out.degraded, [1], "{instances} workers");
            let results: Vec<SiteResult> = out
                .shards
                .iter()
                .flat_map(|c| c.records[0].clone())
                .collect();
            let recovery: Vec<SiteRecovery> =
                out.shards.into_iter().flat_map(|c| c.recovery).collect();
            // The machine run still covers the full population, in order…
            assert_eq!(results.len(), sites.len());
            assert_eq!(recovery.len(), sites.len());
            for (site, result) in sites.iter().zip(&results) {
                assert_eq!(site.domain, result.domain);
                assert_eq!(site.rank, result.rank);
            }
            // …and the poisoned shard's sites read as unvisited, keeping
            // Table 2's denominators intact rather than crashing the
            // campaign.
            for i in 0..sites.len() {
                let poisoned = (10..20).contains(&i);
                assert_eq!(results[i].outcomes.is_empty(), poisoned, "site {i}");
                assert_eq!(recovery[i].visits.is_empty(), poisoned, "site {i}");
            }
            assert!(results[10..20].iter().all(|r| !r.reached()));
        }
    }

    /// A contained panic drops only the panicked shard's telemetry: the
    /// merged counters are the sum over the completed shards, whatever the
    /// worker count and whichever shards a worker completed before the
    /// panic.
    #[test]
    fn a_panicking_shard_keeps_the_workers_earlier_telemetry() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let chaos = ChaosConfig::uniform(0.3);
        let plan = LossPlan::uniform(0.3);
        let modes = CaptureMode::ALL;
        let pipeline = Pipeline {
            faults: Some(&chaos),
            capture: Some((&plan, &modes)),
        };
        let source = SiteSource::Slice {
            sites: &sites,
            shard_size: 10,
        };
        let counters = |instances: usize| {
            let cfg = CampaignConfig {
                instances,
                ..config.clone()
            };
            let out = run(
                &cfg,
                &source,
                [ClientKind::OpenWpm],
                &pipeline,
                &|k, [crawl]: [MachineShard; 1]| {
                    if k == 1 && crawl.records[0].iter().any(|r| !r.outcomes.is_empty()) {
                        panic!("worker wedged on shard {k}");
                    }
                },
            );
            let [telemetry] = out.telemetry;
            telemetry
        };
        // The same pipeline over the population without shard 1's sites.
        let survivors: Vec<Site> = sites[..10].iter().chain(&sites[20..]).cloned().collect();
        let source_survivors = SiteSource::slice(&survivors);
        let (_, expected) = single(&config, &source_survivors, ClientKind::OpenWpm, &pipeline);
        assert!(expected.faults.get("fault.injected").unwrap_or(0) > 0);
        assert!(expected.captures[1].get("loss.dropped").unwrap_or(0) > 0);
        for instances in [1usize, 2, 3] {
            assert_eq!(counters(instances), expected, "{instances} workers");
        }
    }

    /// The claimed shard is the containment unit of a paired pass: a panic
    /// while folding shard 1 degrades both machines' rows of shard 1, and
    /// only those, in every record, and drops both machines' telemetry of
    /// it — each machine's counters are those of a run without shard 1's
    /// sites, whatever the worker count.
    #[test]
    fn a_panic_in_a_paired_shard_degrades_every_machines_rows_of_that_shard_only() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let chaos = ChaosConfig::uniform(0.3);
        let plan = LossPlan::uniform(0.3);
        let modes = CaptureMode::ALL;
        let pipeline = Pipeline {
            faults: Some(&chaos),
            capture: Some((&plan, &modes)),
        };
        let source = SiteSource::Slice {
            sites: &sites,
            shard_size: 10,
        };
        let survivors: Vec<Site> = sites[..10].iter().chain(&sites[20..]).cloned().collect();
        let expected = paired(&config, &SiteSource::slice(&survivors), MACHINES, &pipeline)
            .map(|(_, telemetry)| telemetry);
        let unpanicked = paired(&config, &source, MACHINES, &pipeline);
        let clean = run(&config, &source, MACHINES, &pipeline, &|_, _| ());
        assert!(clean.degraded.is_empty(), "a clean run degraded shards");
        for instances in [1usize, 2, 3] {
            let cfg = CampaignConfig {
                instances,
                ..config.clone()
            };
            let out = run(
                &cfg,
                &source,
                MACHINES,
                &pipeline,
                &|k, crawls: [MachineShard; 2]| {
                    let crawled = crawls
                        .iter()
                        .any(|c| c.records[0].iter().any(|r| !r.outcomes.is_empty()));
                    if k == 1 && crawled {
                        panic!("worker wedged on shard {k}");
                    }
                    crawls
                },
            );
            assert_eq!(out.degraded, [1], "{instances} workers");
            for (m, (full, _)) in unpanicked.iter().enumerate() {
                let crawls = || out.shards.iter().map(|crawls| &crawls[m]);
                assert_eq!(full.records.len(), modes.len());
                for (j, full_rows) in full.records.iter().enumerate() {
                    let rows: Vec<&SiteResult> = crawls().flat_map(|c| &c.records[j]).collect();
                    assert_eq!(rows.len(), sites.len());
                    for (i, (row, full_row)) in rows.into_iter().zip(full_rows).enumerate() {
                        if (10..20).contains(&i) {
                            assert_eq!((&row.domain, row.rank), (&sites[i].domain, sites[i].rank));
                            assert!(row.outcomes.is_empty(), "machine {m}, site {i}");
                        } else {
                            assert_eq!(row, full_row, "machine {m}, site {i}");
                        }
                    }
                }
                let recovery: Vec<&SiteRecovery> = crawls().flat_map(|c| &c.recovery).collect();
                assert_eq!(recovery.len(), sites.len());
                for (i, (rec, full_rec)) in recovery.into_iter().zip(&full.recovery).enumerate() {
                    if (10..20).contains(&i) {
                        assert!(rec.visits.is_empty(), "machine {m}, site {i}");
                    } else {
                        assert_eq!(rec, full_rec, "machine {m}, site {i}");
                    }
                }
                assert_eq!(
                    out.telemetry[m], expected[m],
                    "machine {m}, {instances} workers"
                );
            }
        }
        assert!(expected[1].faults.get("fault.injected").unwrap_or(0) > 0);
        assert!(expected[1].captures[1].get("loss.dropped").unwrap_or(0) > 0);
    }

    /// One claim runs both machines, so the second machine drives the
    /// scenario page the first one built: a paired drive builds exactly
    /// the pages one machine's drive does, half of what two separate
    /// drives build.
    #[test]
    fn a_paired_drive_builds_each_scenario_page_once() {
        let config = CampaignConfig {
            population: PopulationConfig {
                scenarios: ScenarioMix {
                    cookie_banner: 4,
                    lazy_content: 4,
                    spa_mutation: 4,
                },
                ..small_config().population
            },
            instances: 1,
            ..small_config()
        };
        let sites = generate_population(&config.population);
        let shards = PopulationShards::with_shard_size(&config.population, 7);
        let plain = Pipeline::default();
        let pages = |workers: Vec<VisitWorker>| -> u64 {
            workers.iter().map(|w| w.scenario.pages_generated()).sum()
        };
        for source in [SiteSource::slice(&sites), SiteSource::Lazy(&shards)] {
            let paired = pages(drive(&config, &source, MACHINES, &plain, &|_, _| ()).1);
            let single = MACHINES
                .map(|client| pages(drive(&config, &source, [client], &plain, &|_, _| ()).1));
            assert!(paired > 0, "the population drives no scenario page");
            assert_eq!(paired, single[0]);
            assert_eq!(2 * paired, single[0] + single[1]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The engine-level twin of `tests/paired_engine.rs`: a paired
        /// pass gives each machine exactly its one-machine output for
        /// every pipeline — plain, 10% faults, all capture modes at 30%
        /// loss, and both stages at once, which no public two-client
        /// runner exposes, with or without the planner — over a slice or
        /// lazy source of any shard size and any worker count. Every
        /// counter name the engine renders is registered.
        #[test]
        fn a_paired_pass_equals_each_machines_own_pass(
            seed in 0u64..1_000_000,
            instances in 1usize..6,
            shard_size in 1usize..16,
            lazy in 0usize..2,
            stages in 0usize..4,
            planned in 0usize..2,
        ) {
            let config = CampaignConfig {
                seed,
                population: PopulationConfig {
                    seed,
                    n_sites: 24,
                    scenarios: ScenarioMix {
                        cookie_banner: 2,
                        lazy_content: 2,
                        spa_mutation: 2,
                    },
                    ..small_config().population
                },
                visits_per_site: 3,
                instances,
                plan_interactions: planned == 1,
                ..small_config()
            };
            let chaos = ChaosConfig::uniform(0.1);
            let plan = LossPlan::uniform(0.3);
            let modes = CaptureMode::ALL;
            let pipeline = Pipeline {
                faults: (stages % 2 == 1).then_some(&chaos),
                capture: (stages >= 2).then_some((&plan, &modes[..])),
            };
            let sites = generate_population(&config.population);
            let shards = PopulationShards::with_shard_size(&config.population, shard_size);
            let source = if lazy == 1 {
                SiteSource::Lazy(&shards)
            } else {
                SiteSource::Slice {
                    sites: &sites,
                    shard_size,
                }
            };
            let pass = paired(&config, &source, MACHINES, &pipeline);
            for (out, client) in pass.iter().zip(MACHINES) {
                proptest::prop_assert_eq!(out, &single(&config, &source, client, &pipeline));
                let t = &out.1;
                let sets = [&t.faults, &t.plan].into_iter().chain(&t.captures);
                for (name, _) in sets.flat_map(CounterSet::entries) {
                    proptest::prop_assert!(hlisa_sim::metric_info(name).is_some(), "{}", name);
                }
            }
        }
    }

    #[test]
    fn sharded_and_lazy_runs_match_the_default_engine_bit_for_bit() {
        let config = small_config();
        let sites = generate_population(&config.population);
        let baseline = plain(&config, &SiteSource::slice(&sites), ClientKind::OpenWpm);
        // Any explicit shard size — including one that leaves a ragged
        // tail or degenerates to one site per shard — yields the same run.
        for shard_size in [1usize, 7, 10, 60, 1_000] {
            let source = SiteSource::Slice {
                sites: &sites,
                shard_size,
            };
            let sharded = plain(&config, &source, ClientKind::OpenWpm);
            assert_eq!(sharded, baseline, "shard_size {shard_size}");
        }
        // The lazy source materialises shards on claim and still matches.
        let shards = PopulationShards::with_shard_size(&config.population, 13);
        let lazy = plain(&config, &SiteSource::Lazy(&shards), ClientKind::OpenWpm);
        assert_eq!(lazy, baseline);
        // Laziness held: never more shards live than workers.
        assert!(shards.peak_resident_shards() <= config.instances.max(1));
        assert!(shards.peak_resident_shards() >= 1);
        assert_eq!(shards.resident_shards(), 0);
    }

    #[test]
    fn persistent_shard_summaries_journal_every_shard_and_replay_after_a_crash() {
        let config = small_config();
        let shards = PopulationShards::with_shard_size(&config.population, 9);
        let summarise = |k: usize, results: Vec<SiteResult>| {
            let successes: usize = results.iter().map(SiteResult::successful_visits).sum();
            (k, successes)
        };
        let to_json = |(k, successes): &(usize, usize)| {
            format!("{{\"shard\": {k}, \"successes\": {successes}}}")
        };

        let in_memory =
            run_machine_shard_summaries(&config, &shards, ClientKind::OpenWpm, &summarise);
        let path = crate::sink::scratch_path("campaign");
        let sink = crate::sink::ShardSummarySink::create(&path).unwrap();
        // Journaling is a fold: each summary is appended as its shard
        // completes, and the run checks the sink once it returns.
        let persisted =
            run_machine_shard_summaries(&config, &shards, ClientKind::OpenWpm, &|k, results| {
                let summary = summarise(k, results);
                sink.record(k, &to_json(&summary));
                summary
            });
        sink.finish().unwrap();
        assert_eq!(persisted, in_memory, "the journal must not change results");

        // Every shard is durably on disk, replayable in shard order with
        // the exact rendered payloads.
        let records = crate::sink::ShardSummarySink::replay(&path).unwrap();
        assert_eq!(records.len(), shards.n_shards());
        for (record, summary) in records.iter().zip(&in_memory) {
            assert_eq!(record.shard, summary.0);
            assert_eq!(record.summary, to_json(summary));
        }

        // Crash replay: a torn trailing append does not poison the
        // durable prefix.
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"shard\": 999, \"su")
            .unwrap();
        let after_crash = crate::sink::ShardSummarySink::replay(&path).unwrap();
        assert_eq!(after_crash, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_summaries_stream_in_shard_order_with_identical_contents() {
        let config = small_config();
        let shards = PopulationShards::with_shard_size(&config.population, 9);
        let sites = generate_population(&config.population);
        let baseline = plain(
            &config,
            &SiteSource::slice(&sites),
            ClientKind::OpenWpmSpoofed,
        );
        let summaries = run_machine_shard_summaries(
            &config,
            &shards,
            ClientKind::OpenWpmSpoofed,
            &|k, results| {
                let successes: usize = results.iter().map(SiteResult::successful_visits).sum();
                (k, results.len(), successes)
            },
        );
        assert_eq!(summaries.len(), shards.n_shards());
        for (pos, (k, len, successes)) in summaries.iter().enumerate() {
            assert_eq!(pos, *k, "summaries must arrive in shard order");
            let range = shards.shard_range(*k);
            assert_eq!(*len, range.len());
            let expect: usize = baseline.sites[range]
                .iter()
                .map(SiteResult::successful_visits)
                .sum();
            assert_eq!(*successes, expect, "shard {k} summary diverged");
        }
        // One paired lazy pass gives each machine, shard by shard, the
        // records of its own streaming run.
        let pass = run(
            &config,
            &SiteSource::Lazy(&shards),
            MACHINES,
            &Pipeline::default(),
            &|_, crawls| crawls.map(|crawl| crawl.records),
        );
        assert!(pass.degraded.is_empty());
        for (m, client) in MACHINES.into_iter().enumerate() {
            let own = run_machine_shard_summaries(&config, &shards, client, &|_, results| results);
            let mine: Vec<&[Vec<SiteResult>]> = pass.shards.iter().map(|s| &s[m][..]).collect();
            let own: Vec<&[Vec<SiteResult>]> = own.iter().map(std::slice::from_ref).collect();
            assert_eq!(mine, own, "{client:?}");
        }
    }

    #[test]
    fn openwpm_gets_detected_more_than_spoofed() {
        let c = run_campaign(&small_config());
        let detections = |run: &MachineRun| -> usize {
            run.sites
                .iter()
                .flat_map(|s| &s.outcomes)
                .filter(|o| o.detected)
                .count()
        };
        let d1 = detections(&c.openwpm);
        let d2 = detections(&c.spoofed);
        assert!(d1 > d2 * 2, "openwpm {d1} vs spoofed {d2}");
        assert!(d1 > 0);
    }
}

//! Crawl campaign execution: one visit pipeline behind every runner.
//!
//! # The engine
//!
//! A crawl is distributed at *shard* granularity: workers claim
//! consecutive shard indices off one atomic cursor instead of being
//! statically striped over sites (`i % instances == w`). One claim runs
//! every listed machine: the worker materialises shard *k* once and runs
//! the machines in turn over each stretch of it up to a scenario site.
//! Claiming order is scheduling-dependent, but no draw is: every visit
//! runs in a [`SimContext`] forked purely from `(machine seed, domain,
//! visit index)`, each machine keeps its own per-site fault state and
//! tallies, and results land in per-shard write-once slots reassembled in
//! shard order. Each machine's run is therefore bit-identical for any
//! `instances`, claiming order, shard size, source laziness and set of
//! machines sharing the pass — property-tested. The claimed shard is the
//! containment unit: a panic anywhere in shard *k* degrades every
//! machine's rows of *k* to zero-outcome rows and drops their telemetry of
//! *k*, while the worker keeps what its earlier shards counted.
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
//!    mode's observers, and each mode yields its own record and counters
//!    ([`MachineOutput::other_modes`]). The modes can share one attempt
//!    because capture is the last stage and draw-free past the schedule:
//!    nothing a mode records flows back into the visit.
//!
//! Stages 2–5 never touch each other's streams, so switching a stage off
//! leaves every other stage's draws where they were: the plain pipeline
//! equals the faulted one at fault rate 0 and the pristine-captured one.
//!
//! The stages' telemetry is kept as plain per-worker, per-machine tallies
//! (the fault monitor's, the planner's, and one capture tally per mode)
//! and rendered into named counter sets once per machine, so no visit
//! builds or merges a [`CounterSet`].

use crate::chaos::{ChaosConfig, SiteFaults, SiteRecovery};
use crate::reliability::{captured_visit, CaptureMode, CaptureTally};
use crate::scenario::{apply_scenario_drive_with, ScenarioScratch};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::{CounterSet, FaultMonitor, LossPlan, Observer, SimContext};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    emit_capture_events_into, generate_population, plan_visit, CaptureEvent, ClientKind, PlanStats,
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
    /// the mode on or off; planning adds per-worker [`PlanStats`] totals.
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

/// Everything one machine's pipeline run produced.
///
/// A capture stage with several modes yields one run and one counter set
/// per mode: `run` and `counters` hold the first mode's, `other_modes`
/// the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutput {
    /// The recorded results (under capture, as the first mode recorded
    /// them).
    pub run: MachineRun,
    /// Per-site recovery telemetry in population order; empty unless the
    /// fault stage ran. Its outcomes are `run`'s.
    pub recovery: Vec<SiteRecovery>,
    /// The stages' counters (`fault.*`/`retry.*`/`breaker.*` from the
    /// fault stage, `loss.*`/`capture.*`/`recorder.*` from the first
    /// capture mode), summed over the shards that completed and sorted by
    /// name, so they are identical for any worker count and claiming
    /// order.
    pub counters: CounterSet,
    /// Summed planner totals; all zero unless `plan_interactions`.
    pub plan_totals: PlanStats,
    /// Every later capture mode's run and capture counters, in
    /// [`Pipeline::capture`] order; empty with at most one mode.
    pub other_modes: Vec<(MachineRun, CounterSet)>,
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
pub(crate) const MACHINES: [ClientKind; 2] = [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed];

/// Runs the full two-machine campaign.
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let sites = generate_population(&config.population);
    let source = SiteSource::slice(&sites);
    let [openwpm, spoofed] = collect(config, &source, MACHINES, &Pipeline::default());
    Campaign {
        sites,
        openwpm: openwpm.run,
        spoofed: spoofed.run,
    }
}

/// Runs one machine's crawl of `source` through `pipeline` with
/// `config.instances` parallel workers.
///
/// Neither the schedule, the thread count, the shard size nor the
/// source's laziness can affect any draw: the output is bit-identical
/// for all of them, and to this machine's share of a two-machine run.
/// Under a lazy source at most one shard per worker is materialised at
/// any moment.
pub fn run_machine(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    client: ClientKind,
    pipeline: &Pipeline<'_>,
) -> MachineOutput {
    let [output] = collect(config, source, [client], pipeline);
    output
}

/// Streaming variant for populations too large to hold a [`SiteResult`]
/// per site: each shard's results are folded into a summary by
/// `summarise(shard index, results)` *inside the worker* and dropped, so
/// the standing footprint is one summary per shard plus one materialised
/// shard per worker. Summaries return in shard order; a shard whose
/// processing panicked is summarised from degraded (zero-outcome) rows.
pub fn run_machine_shard_summaries<S: Send + Sync>(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
    summarise: &(impl Fn(usize, Vec<SiteResult>) -> S + Sync),
) -> Vec<S> {
    let (summaries, _) = drive(
        config,
        &SiteSource::Lazy(shards),
        [client],
        &Pipeline::default(),
        &|k, [crawl]: [ShardCrawl; 1]| summarise(k, crawl.results),
    );
    summaries
}

/// [`run_machine_shard_summaries`] with a crash-safe on-disk journal:
/// each shard's summary is rendered by `to_json` and appended to `sink`
/// **as the shard completes**, fsync'd per append, so a harness crash
/// loses at most the shard it was mid-write on.
/// [`ShardSummarySink::replay`](crate::sink::ShardSummarySink::replay)
/// recovers every durable line afterwards.
///
/// Returns the in-memory summaries (shard order) once every append is
/// durably on disk; the first sink I/O error fails the run instead of
/// silently dropping shards.
pub fn run_machine_shard_summaries_persistent<S: Send + Sync>(
    config: &CampaignConfig,
    shards: &PopulationShards,
    client: ClientKind,
    summarise: &(impl Fn(usize, Vec<SiteResult>) -> S + Sync),
    to_json: &(impl Fn(&S) -> String + Sync),
    sink: &crate::sink::ShardSummarySink,
) -> std::io::Result<Vec<S>> {
    let summaries = run_machine_shard_summaries(config, shards, client, &|k, results| {
        let summary = summarise(k, results);
        sink.record(k, &to_json(&summary));
        summary
    });
    sink.finish()?;
    Ok(summaries)
}

/// Every listed machine's run of `pipeline` over `source`, from one
/// engine pass: the shards' crawls are split into one [`MachineOutput`]
/// per client, in `clients` order.
pub(crate) fn collect<const N: usize>(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    clients: [ClientKind; N],
    pipeline: &Pipeline<'_>,
) -> [MachineOutput; N] {
    let (shards, workers) = drive(config, source, clients, pipeline, &|_, crawls| crawls);
    let mut crawls = clients.map(|_| ShardCrawl::new(source.n_sites(), pipeline));
    for shard in shards {
        for (crawl, part) in crawls.iter_mut().zip(shard) {
            crawl.append(part);
        }
    }
    let mut slot = 0;
    crawls.map(|crawl| {
        let (client, totals) = (clients[slot], machine_totals(&workers, slot, pipeline));
        slot += 1;
        let (counters, other_counters) = totals.counters();
        let run = |sites| MachineRun { client, sites };
        let other_runs = crawl.other_modes.into_iter().map(run);
        MachineOutput {
            run: run(crawl.results),
            recovery: crawl.recovery,
            counters,
            plan_totals: totals.plan,
            other_modes: other_runs.zip(other_counters).collect(),
        }
    })
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

/// One machine's crawl of one shard: a result per site (as the first
/// capture mode recorded it, under capture), one more per site for each
/// later capture mode and, under the fault stage, a recovery record per
/// site.
struct ShardCrawl {
    results: Vec<SiteResult>,
    other_modes: Vec<Vec<SiteResult>>,
    recovery: Vec<SiteRecovery>,
}

impl ShardCrawl {
    fn new(sites: usize, pipeline: &Pipeline<'_>) -> Self {
        Self {
            results: Vec::with_capacity(sites),
            other_modes: (1..capture_modes(pipeline))
                .map(|_| Vec::with_capacity(sites))
                .collect(),
            recovery: Vec::new(),
        }
    }

    /// Appends one site's records: its outcomes in the first mode, each
    /// later mode's, and its recovery record under the fault stage.
    fn push(
        &mut self,
        site: &Site,
        outcomes: Vec<VisitOutcome>,
        others: Vec<Vec<VisitOutcome>>,
        recovery: Option<SiteRecovery>,
    ) {
        let result = |outcomes| SiteResult {
            domain: site.domain.clone(),
            rank: site.rank,
            outcomes,
        };
        self.results.push(result(outcomes));
        for (results, outcomes) in self.other_modes.iter_mut().zip(others) {
            results.push(result(outcomes));
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
            let others = vec![Vec::new(); crawl.other_modes.len()];
            crawl.push(site, Vec::new(), others, recovery);
        }
        crawl
    }

    /// Appends a later shard's crawl of the same machine.
    fn append(&mut self, later: ShardCrawl) {
        self.results.extend(later.results);
        for (results, later) in self.other_modes.iter_mut().zip(later.other_modes) {
            results.extend(later);
        }
        self.recovery.extend(later.recovery);
    }
}

/// The engine behind every runner: shard-claiming workers run every
/// machine of `clients` over each claimed shard, in `clients` order, and
/// hand the shard's crawls (one per machine) to `fold` inside the worker.
/// Returns the folded shards in shard order (a panicked shard folded from
/// every machine's unvisited rows) and the worker states, whose
/// per-machine totals count only completed shards. One detector runtime
/// serves the pass; a verdict depends only on the client's pristine
/// world.
fn drive<const N: usize, S: Send + Sync>(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    clients: [ClientKind; N],
    pipeline: &Pipeline<'_>,
    fold: &(impl Fn(usize, [ShardCrawl; N]) -> S + Sync),
) -> (Vec<S>, Vec<VisitWorker>) {
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
        let mut crawls: [ShardCrawl; N] =
            std::array::from_fn(|_| ShardCrawl::new(sites.len(), pipeline));
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
        |sites: &[Site]| std::array::from_fn(|_| ShardCrawl::unvisited(sites, pipeline));
    let folded = slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| slot.unwrap_or_else(|| source.with_shard(k, |s| fold(k, unvisited(s)))))
        .collect();
    (folded, workers)
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

/// The telemetry the stages keep as plain tallies: the planner's totals,
/// the fault stage's monitor, and one capture tally per capture mode
/// (indexed like [`Pipeline::capture`]'s modes). Rendered into counter
/// sets once per machine.
#[derive(Debug, Clone, Default)]
struct Tallies {
    plan: PlanStats,
    monitor: FaultMonitor,
    captures: Vec<CaptureTally>,
}

impl Tallies {
    fn new(modes: usize) -> Self {
        Self {
            captures: vec![CaptureTally::default(); modes],
            ..Self::default()
        }
    }

    fn absorb(&mut self, other: &Tallies) {
        self.plan.absorb(other.plan);
        self.monitor.absorb(&other.monitor);
        for (mine, theirs) in self.captures.iter_mut().zip(&other.captures) {
            mine.absorb(theirs);
        }
    }

    /// The sorted counter sets: the fault stage's counters with the
    /// first capture mode's, then each later mode's capture counters.
    fn counters(&self) -> (CounterSet, Vec<CounterSet>) {
        let mut first = self.monitor.counters();
        let mut captures = self.captures.iter();
        if let Some(capture) = captures.next() {
            capture.render_into(&mut first);
        }
        let others = captures
            .map(|capture| {
                let mut set = CounterSet::new();
                capture.render_into(&mut set);
                set.sorted()
            })
            .collect();
        (first.sorted(), others)
    }
}

/// Machine `slot`'s tallies summed over every worker's completed shards.
fn machine_totals(workers: &[VisitWorker], slot: usize, pipeline: &Pipeline<'_>) -> Tallies {
    let mut totals = Tallies::new(capture_modes(pipeline));
    for worker in workers {
        totals.absorb(&worker.totals[slot]);
    }
    totals
}

/// Worker-local visit state: the scenario drive's retained scratch, the
/// planner (planner mode only), the capture stage's event buffer, and
/// each machine's tallies — the current shard's, and the totals of the
/// shards the worker completed. One serves every machine for the worker's
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
    shard: Vec<Tallies>,
    totals: Vec<Tallies>,
}

impl VisitWorker {
    fn new(plan_interactions: bool, machines: usize, modes: usize) -> Self {
        Self {
            scenario: Box::default(),
            planner: plan_interactions
                .then(|| Box::new((HumanParams::paper_baseline(), VisitPlanner::new()))),
            events: Vec::new(),
            shard: vec![Tallies::new(modes); machines],
            totals: vec![Tallies::new(modes); machines],
        }
    }

    /// The shard completed: every machine's tallies of it join the
    /// worker's totals.
    fn commit_shard(&mut self) {
        for (totals, shard) in self.totals.iter_mut().zip(&mut self.shard) {
            let modes = shard.captures.len();
            totals.absorb(&std::mem::replace(shard, Tallies::new(modes)));
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
    /// results to `crawl`; under the fault stage the site also gets its
    /// recovery record.
    fn crawl_site(&self, site: &Site, worker: &mut VisitWorker, crawl: &mut ShardCrawl) {
        let visits = self.config.visits_per_site;
        // What is pure in the site, computed once for all its visits.
        let profile = SiteProfile::new(site);
        let mut faults = self
            .pipeline
            .faults
            .map(|chaos| SiteFaults::new(chaos, self.config.seed, site, visits));
        let mut outcomes = Vec::with_capacity(visits);
        // The later capture modes' outcomes; no allocation for one mode.
        let mut others: Vec<Vec<VisitOutcome>> = (0..crawl.other_modes.len())
            .map(|_| Vec::with_capacity(visits))
            .collect();
        for v in 0..visits {
            // 1. Fork the visit context.
            let mut ctx = self.ctx.fork_visit(&site.domain, v as u64);
            // 2. Attempt the visit.
            let outcome = match &mut faults {
                None => {
                    let mut outcome = profile.visit(self.client, self.runtime, &mut ctx);
                    self.after_attempt(&profile, &mut outcome, &mut ctx, None, worker, &mut others);
                    outcome
                }
                Some(faults) => {
                    let (mut record, mut settled) = faults.attempt(
                        &mut ctx,
                        &mut worker.shard[self.slot].monitor,
                        |injected, deadline_ms| {
                            let mut attempt_ctx = self.ctx.fork_visit(&site.domain, v as u64);
                            let result = profile.attempt(
                                self.client,
                                self.runtime,
                                &mut attempt_ctx,
                                injected,
                                deadline_ms,
                            );
                            (result, attempt_ctx)
                        },
                    );
                    let (outcome, settled) = (&mut record.outcome, settled.as_mut());
                    self.after_attempt(&profile, outcome, &mut ctx, settled, worker, &mut others);
                    let outcome = record.outcome.clone();
                    faults.record(record);
                    outcome
                }
            };
            outcomes.push(outcome);
        }
        crawl.push(
            site,
            outcomes,
            others,
            faults.map(|f| f.into_recovery(site)),
        );
    }

    /// Stages 3–5 on the settled attempt's `outcome` of the profiled
    /// site. `ctx` is the visit context; `settled` is the context of the
    /// attempt that settled the visit when the fault stage re-forked it
    /// (`None`: the attempt ran in `ctx`, or the breaker skipped it). The
    /// capture stage replaces
    /// `outcome` with the first mode's record and appends each later
    /// mode's record to its list in `others`.
    fn after_attempt(
        &self,
        profile: &SiteProfile<'_>,
        outcome: &mut VisitOutcome,
        ctx: &mut SimContext,
        settled: Option<&mut SimContext>,
        worker: &mut VisitWorker,
        others: &mut [Vec<VisitOutcome>],
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
                outcome,
                visit_ctx,
                &mut worker.scenario,
            );
        }
        // 4. Planner.
        if let Some(planner) = &mut worker.planner {
            let (params, planner) = &mut **planner;
            let stats = plan_visit(profile, outcome, visit_ctx, params, planner);
            worker.shard[self.slot].plan.absorb(stats);
        }
        // 5. Capture, continuing the visit's "fault" stream: one schedule
        // and one event stream feed every mode's observers.
        if let Some((plan, modes)) = self.pipeline.capture {
            let schedule = plan.draw(ctx.stream("fault"));
            let events = &mut worker.events;
            emit_capture_events_into(
                profile.timeline(),
                outcome,
                DEFAULT_VISIT_DEADLINE_MS,
                events,
            );
            let http = (outcome.first_party.len(), outcome.third_party.len());
            let tallies = &mut worker.shard[self.slot].captures;
            for (j, &mode) in modes.iter().enumerate().skip(1) {
                let recorded = captured_visit(events, http, schedule, mode, &mut tallies[j]);
                others[j - 1].push(recorded);
            }
            if let Some(&mode) = modes.first() {
                *outcome = captured_visit(events, http, schedule, mode, &mut tallies[0]);
            }
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

    fn plain(config: &CampaignConfig, source: &SiteSource<'_>, client: ClientKind) -> MachineRun {
        run_machine(config, source, client, &Pipeline::default()).run
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
            let out = run_machine(&planned, &source, client, &Pipeline::default());
            let totals = out.plan_totals;
            assert_eq!(out.run, baseline, "{client:?}: planning changed outcomes");
            assert!(totals.actions > 0, "{client:?}: planner saw no visits");
            assert!(totals.samples > totals.actions, "{client:?}: empty plans");
            // Totals are sums over visits: any partition of the shard
            // stream over workers lands on the same numbers.
            for instances in [1usize, 3, 8] {
                let cfg = CampaignConfig {
                    instances,
                    ..planned.clone()
                };
                let out = run_machine(&cfg, &source, client, &Pipeline::default());
                assert_eq!(out.run, baseline, "{client:?}/{instances} workers diverged");
                assert_eq!(
                    out.plan_totals, totals,
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
        // A worker that wedges mid-shard: shard 1 panics whenever it was
        // actually crawled. Every other shard is filled normally.
        let (shards, _) = drive(
            &config,
            &source,
            [ClientKind::OpenWpm],
            &pipeline,
            &|k, [crawl]: [ShardCrawl; 1]| {
                if k == 1 && crawl.results.iter().any(|r| !r.outcomes.is_empty()) {
                    panic!("worker wedged on shard {k}");
                }
                crawl
            },
        );
        let results: Vec<SiteResult> = shards.iter().flat_map(|c| c.results.clone()).collect();
        let recovery: Vec<SiteRecovery> = shards.into_iter().flat_map(|c| c.recovery).collect();
        // The machine run still covers the full population, in order…
        assert_eq!(results.len(), sites.len());
        assert_eq!(recovery.len(), sites.len());
        for (site, result) in sites.iter().zip(&results) {
            assert_eq!(site.domain, result.domain);
            assert_eq!(site.rank, result.rank);
        }
        // …and the poisoned shard's sites read as unvisited, keeping
        // Table 2's denominators intact rather than crashing the campaign.
        for i in 0..sites.len() {
            let poisoned = (10..20).contains(&i);
            assert_eq!(results[i].outcomes.is_empty(), poisoned, "site {i}");
            assert_eq!(recovery[i].visits.is_empty(), poisoned, "site {i}");
        }
        assert!(results[10..20].iter().all(|r| !r.reached()));
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
            let (_, workers) = drive(
                &cfg,
                &source,
                [ClientKind::OpenWpm],
                &pipeline,
                &|k, [crawl]: [ShardCrawl; 1]| {
                    if k == 1 && crawl.results.iter().any(|r| !r.outcomes.is_empty()) {
                        panic!("worker wedged on shard {k}");
                    }
                },
            );
            machine_totals(&workers, 0, &pipeline).counters()
        };
        // The same pipeline over the population without shard 1's sites.
        let survivors: Vec<Site> = sites[..10].iter().chain(&sites[20..]).cloned().collect();
        let expected = {
            let out = run_machine(
                &config,
                &SiteSource::slice(&survivors),
                ClientKind::OpenWpm,
                &pipeline,
            );
            let others: Vec<CounterSet> = out.other_modes.into_iter().map(|(_, c)| c).collect();
            (out.counters, others)
        };
        assert!(expected.0.get("fault.injected").unwrap_or(0) > 0);
        assert!(expected.1[0].get("loss.dropped").unwrap_or(0) > 0);
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
        let counters = |out: &MachineOutput| {
            let others: Vec<CounterSet> = out.other_modes.iter().map(|(_, c)| c.clone()).collect();
            (out.counters.clone(), others)
        };
        let survivors: Vec<Site> = sites[..10].iter().chain(&sites[20..]).cloned().collect();
        let expected = collect(&config, &SiteSource::slice(&survivors), MACHINES, &pipeline)
            .map(|out| counters(&out));
        let unpanicked = collect(&config, &source, MACHINES, &pipeline);
        for instances in [1usize, 2, 3] {
            let cfg = CampaignConfig {
                instances,
                ..config.clone()
            };
            let (shards, workers) = drive(
                &cfg,
                &source,
                MACHINES,
                &pipeline,
                &|k, crawls: [ShardCrawl; 2]| {
                    let crawled = crawls
                        .iter()
                        .any(|c| c.results.iter().any(|r| !r.outcomes.is_empty()));
                    if k == 1 && crawled {
                        panic!("worker wedged on shard {k}");
                    }
                    crawls
                },
            );
            for (m, full) in unpanicked.iter().enumerate() {
                let crawls = || shards.iter().map(|crawls| &crawls[m]);
                let mut records = vec![(
                    crawls().flat_map(|c| &c.results).collect::<Vec<_>>(),
                    &full.run.sites,
                )];
                for (j, (run, _)) in full.other_modes.iter().enumerate() {
                    let rows = crawls().flat_map(|c| &c.other_modes[j]).collect();
                    records.push((rows, &run.sites));
                }
                for (rows, full_rows) in records {
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
                    machine_totals(&workers, m, &pipeline).counters(),
                    expected[m],
                    "machine {m}, {instances} workers"
                );
            }
        }
        assert!(expected[1].0.get("fault.injected").unwrap_or(0) > 0);
        assert!(expected[1].1[0].get("loss.dropped").unwrap_or(0) > 0);
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
        let source = SiteSource::slice(&sites);
        let plain = Pipeline::default();
        let pages = |workers: Vec<VisitWorker>| -> u64 {
            workers.iter().map(|w| w.scenario.pages_generated()).sum()
        };
        let paired = pages(drive(&config, &source, MACHINES, &plain, &|_, _| ()).1);
        let single =
            MACHINES.map(|client| pages(drive(&config, &source, [client], &plain, &|_, _| ()).1));
        assert!(paired > 0, "the population drives no scenario page");
        assert_eq!(paired, single[0]);
        assert_eq!(2 * paired, single[0] + single[1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The engine-level twin of `tests/paired_engine.rs`: a paired
        /// pass gives each machine exactly its one-machine output for
        /// every pipeline — plain, 10% faults, all capture modes at 30%
        /// loss, and both stages at once, which no public two-client
        /// runner exposes — over a slice or lazy source of any shard size
        /// and any worker count.
        #[test]
        fn a_paired_pass_equals_each_machines_own_pass(
            seed in 0u64..1_000_000,
            instances in 1usize..6,
            shard_size in 1usize..16,
            lazy in 0usize..2,
            stages in 0usize..4,
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
            let paired = collect(&config, &source, MACHINES, &pipeline);
            for (out, client) in paired.iter().zip(MACHINES) {
                proptest::prop_assert_eq!(out, &run_machine(&config, &source, client, &pipeline));
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
        let persisted = run_machine_shard_summaries_persistent(
            &config,
            &shards,
            ClientKind::OpenWpm,
            &summarise,
            &to_json,
            &sink,
        )
        .unwrap();
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

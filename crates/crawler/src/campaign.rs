//! Crawl campaign execution: one visit pipeline behind every runner.
//!
//! # The machine engine
//!
//! One machine's crawl is distributed at *shard* granularity: workers
//! claim consecutive shard indices off one atomic cursor instead of being
//! statically striped over sites (`i % instances == w`). Claiming order is
//! scheduling-dependent, but no draw is: every visit runs in a
//! [`SimContext`] forked purely from `(machine seed, domain, visit
//! index)`, and results land in per-shard write-once slots reassembled in
//! shard order. The run is therefore bit-identical for any `instances`
//! and any claiming order — property-tested, including under the lazy
//! [`PopulationShards`] source where a shard's sites are materialised
//! only while a worker holds them. A shard whose processing panics is
//! contained to its own slot and degrades to zero-outcome rows.
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
//!    under a loss schedule drawn from the `"fault"` stream *after* the
//!    fault plane's draws. With the fault stage off, the schedule's draw
//!    position is the stream's start.
//!
//! Stages 2–5 never touch each other's streams, so switching a stage off
//! leaves every other stage's draws where they were: the plain pipeline
//! equals the faulted one at fault rate 0 and the pristine-captured one.

use crate::chaos::{ChaosConfig, SiteFaults, SiteRecovery};
use crate::reliability::{captured_visit, CaptureMode};
use crate::scenario::{apply_scenario_drive_with, ScenarioScratch};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::{CounterSet, FaultMonitor, LossPlan, Observer, SimContext};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    generate_population, plan_visit, simulate_visit, simulate_visit_attempt, ClientKind, PlanStats,
    PopulationConfig, PopulationShards, Site, VisitOutcome, DEFAULT_SHARD_SIZE,
};
use std::ops::Range;
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
    /// Re-record every visit through the capture pipeline in this mode,
    /// degraded by this loss plan.
    pub capture: Option<(&'a LossPlan, CaptureMode)>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutput {
    /// The recorded results.
    pub run: MachineRun,
    /// Per-site recovery telemetry in population order; empty unless the
    /// fault stage ran.
    pub recovery: Vec<SiteRecovery>,
    /// The stages' counters (`fault.*`/`retry.*`/`breaker.*` from the
    /// fault stage, `loss.*`/`capture.*`/`recorder.*` from capture),
    /// merged over the workers and sorted by name, so they are identical
    /// for any worker count and claiming order.
    pub counters: CounterSet,
    /// Summed planner totals; all zero unless `plan_interactions`.
    pub plan_totals: PlanStats,
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

    pub(crate) fn shard_range(&self, k: usize) -> Range<usize> {
        let lo = k * self.shard_size();
        let hi = (lo + self.shard_size()).min(self.n_sites());
        lo..hi
    }

    /// Runs `f` over shard `k`'s sites. A slice source borrows its
    /// window; the lazy source materialises the shard for exactly the
    /// duration of the call.
    pub(crate) fn with_shard<T>(&self, k: usize, f: impl FnOnce(&[Site]) -> T) -> T {
        match self {
            SiteSource::Slice { sites, .. } => f(&sites[self.shard_range(k)]),
            SiteSource::Lazy(shards) => shards.with_shard(k, |_, sites| f(sites)),
        }
    }
}

/// Runs the full two-machine campaign.
pub fn run_campaign(config: &CampaignConfig) -> Campaign {
    let (sites, openwpm, spoofed) = run_machines(config, &Pipeline::default());
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
/// for all of them. Under a lazy source at most one shard per worker is
/// materialised at any moment.
pub fn run_machine(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    client: ClientKind,
    pipeline: &Pipeline<'_>,
) -> MachineOutput {
    run_machine_with(config, source, client, pipeline, &new_runtime(config))
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
    let (summaries, _, _) = drive(
        config,
        &SiteSource::Lazy(shards),
        client,
        &Pipeline::default(),
        &new_runtime(config),
        &|k, crawl: ShardCrawl| summarise(k, crawl.results),
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

/// Both machines' runs of `pipeline` over one generated population. One
/// detector runtime serves the whole campaign, so both machines (and all
/// their workers) share its template reference and its verdicts, each
/// computed at most once. Sharing changes no output: a verdict depends
/// only on the client's pristine world, never on which visit asked first.
pub(crate) fn run_machines(
    config: &CampaignConfig,
    pipeline: &Pipeline<'_>,
) -> (Vec<Site>, MachineOutput, MachineOutput) {
    let sites = generate_population(&config.population);
    let runtime = new_runtime(config);
    let source = SiteSource::slice(&sites);
    let openwpm = run_machine_with(config, &source, ClientKind::OpenWpm, pipeline, &runtime);
    let spoofed = run_machine_with(
        config,
        &source,
        ClientKind::OpenWpmSpoofed,
        pipeline,
        &runtime,
    );
    (sites, openwpm, spoofed)
}

fn new_runtime(config: &CampaignConfig) -> DetectorRuntime {
    if config.world_cache {
        DetectorRuntime::new()
    } else {
        DetectorRuntime::without_world_cache()
    }
}

/// [`run_machine`] with an explicit (shareable) detector runtime.
fn run_machine_with(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    client: ClientKind,
    pipeline: &Pipeline<'_>,
    runtime: &DetectorRuntime,
) -> MachineOutput {
    let (shards, counters, plan_totals) =
        drive(config, source, client, pipeline, runtime, &|_, crawl| crawl);
    let mut sites = Vec::with_capacity(source.n_sites());
    let mut recovery = Vec::new();
    for crawl in shards {
        sites.extend(crawl.results);
        recovery.extend(crawl.recovery);
    }
    MachineOutput {
        run: MachineRun { client, sites },
        recovery,
        counters,
        plan_totals,
    }
}

/// The shard-claiming worker engine. Spawns `min(instances, shards)`
/// workers which repeatedly claim the next shard index off one atomic
/// cursor and run `process` over its sites with a worker-local state
/// (`init` per worker), writing each shard's product into a write-once
/// slot.
///
/// A shard whose `process` panics leaves its slot empty; the worker
/// resets its state with `init` (the panic may have left it half
/// updated) and keeps claiming, so a panic is contained to its own shard
/// whatever the worker count. Returns the per-shard products in shard
/// order (`None` for a panicked shard — callers degrade those) and the
/// worker states in worker-index order. The claiming order is
/// scheduling-dependent; nothing processed is: `process` receives only
/// the shard's identity and sites, so any claim order yields the same
/// slot contents, and worker-state *totals* are partition-independent.
pub(crate) fn run_sharded<S, W>(
    instances: usize,
    source: &SiteSource<'_>,
    init: &(impl Fn() -> W + Sync),
    process: &(impl Fn(&mut W, usize, &[Site]) -> S + Sync),
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
                            Err(_) => state = init(),
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

/// One shard's crawl: a result per site and, under the fault stage, a
/// recovery record per site.
struct ShardCrawl {
    results: Vec<SiteResult>,
    recovery: Vec<SiteRecovery>,
}

/// The machine engine behind every runner: shard-claiming workers run
/// the visit pipeline over each claimed shard and hand the shard's crawl
/// to `fold` inside the worker. Returns the folded shards in shard order
/// — a panicked shard is folded from degraded rows, the one degraded-fill
/// path — plus the workers' merged, sorted counters and summed plan
/// totals. Totals are sums over visits, so they are identical for any
/// worker count and claiming order.
fn drive<S: Send + Sync>(
    config: &CampaignConfig,
    source: &SiteSource<'_>,
    client: ClientKind,
    pipeline: &Pipeline<'_>,
    runtime: &DetectorRuntime,
    fold: &(impl Fn(usize, ShardCrawl) -> S + Sync),
) -> (Vec<S>, CounterSet, PlanStats) {
    let machine = Machine {
        config,
        client,
        runtime,
        pipeline: *pipeline,
        ctx: machine_context(config, client),
    };
    let (slots, workers) = run_sharded(
        config.instances,
        source,
        &|| VisitWorker::new(config.plan_interactions),
        &|worker: &mut VisitWorker, k, sites| fold(k, machine.crawl_shard(sites, worker)),
    );
    let folded = slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.unwrap_or_else(|| source.with_shard(k, |sites| fold(k, machine.degraded(sites))))
        })
        .collect();
    let mut counters = CounterSet::new();
    let mut plan_totals = PlanStats::default();
    for w in &workers {
        counters.merge(&w.monitor.counters());
        counters.merge(&w.analytics);
        plan_totals.absorb(w.plan_totals);
    }
    (folded, counters.sorted(), plan_totals)
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

/// Worker-local visit state: the scenario drive's retained scratch, the
/// planner and its running totals (planner mode only), and the fault and
/// capture stages' counters. One lives per worker thread for the
/// worker's whole shard stream, so every scratch buffer reaches its
/// high-water capacity once and is then reused visit after visit.
/// Nothing in it can influence a draw, so any worker produces the same
/// results.
///
/// The scratch and the planner are boxed to keep the state a few words
/// wide: inline, their ~4 KiB pushed each worker's stack past the pages a
/// reused thread stack keeps resident, and every machine run paid fresh
/// page faults for it (measurable in `adverse_crawl`'s set-up time).
struct VisitWorker {
    scenario: Box<ScenarioScratch>,
    planner: Option<Box<(HumanParams, VisitPlanner)>>,
    plan_totals: PlanStats,
    monitor: FaultMonitor,
    analytics: CounterSet,
}

impl VisitWorker {
    fn new(plan_interactions: bool) -> Self {
        Self {
            scenario: Box::default(),
            planner: plan_interactions
                .then(|| Box::new((HumanParams::paper_baseline(), VisitPlanner::new()))),
            plan_totals: PlanStats::default(),
            monitor: FaultMonitor::new(),
            analytics: CounterSet::new(),
        }
    }
}

/// One machine's fixed inputs: everything a visit reads besides its
/// site and the worker's state.
struct Machine<'a> {
    config: &'a CampaignConfig,
    client: ClientKind,
    runtime: &'a DetectorRuntime,
    pipeline: Pipeline<'a>,
    ctx: SimContext,
}

impl Machine<'_> {
    fn crawl_shard(&self, sites: &[Site], worker: &mut VisitWorker) -> ShardCrawl {
        let mut crawl = ShardCrawl {
            results: Vec::with_capacity(sites.len()),
            recovery: Vec::new(),
        };
        for site in sites {
            let (result, recovery) = self.crawl_site(site, worker);
            crawl.results.push(result);
            crawl.recovery.extend(recovery);
        }
        crawl
    }

    /// Graceful degradation for a shard whose processing panicked: every
    /// site is recorded unvisited (zero outcomes) rather than aborting the
    /// whole machine, mirroring how the paper's crawl keeps its Table 2
    /// denominators when individual browser instances wedge.
    fn degraded(&self, sites: &[Site]) -> ShardCrawl {
        let result = |site: &Site| SiteResult {
            domain: site.domain.clone(),
            rank: site.rank,
            outcomes: Vec::new(),
        };
        let recovery = |site: &Site| SiteRecovery {
            domain: site.domain.clone(),
            visits: Vec::new(),
            breaker_open: false,
        };
        ShardCrawl {
            results: sites.iter().map(result).collect(),
            recovery: match self.pipeline.faults {
                Some(_) => sites.iter().map(recovery).collect(),
                None => Vec::new(),
            },
        }
    }

    /// All visits of one site — the per-site loop of every runner,
    /// identical whichever worker claims the site and whenever it runs.
    /// Under the fault stage the site also gets its recovery record.
    fn crawl_site(
        &self,
        site: &Site,
        worker: &mut VisitWorker,
    ) -> (SiteResult, Option<SiteRecovery>) {
        let visits = self.config.visits_per_site;
        let mut faults = self
            .pipeline
            .faults
            .map(|chaos| SiteFaults::new(chaos, self.config.seed, site, visits));
        let mut outcomes = Vec::with_capacity(visits);
        for v in 0..visits {
            // 1. Fork the visit context.
            let mut ctx = self.ctx.fork_visit(&site.domain, v as u64);
            // 2. Attempt the visit.
            let outcome = match &mut faults {
                None => {
                    let mut outcome = simulate_visit(site, self.client, self.runtime, &mut ctx);
                    self.after_attempt(site, &mut outcome, &mut ctx, None, worker);
                    outcome
                }
                Some(faults) => {
                    let (mut record, mut settled) =
                        faults.attempt(&mut ctx, &mut worker.monitor, |injected, deadline_ms| {
                            let mut attempt_ctx = self.ctx.fork_visit(&site.domain, v as u64);
                            let result = simulate_visit_attempt(
                                site,
                                self.client,
                                self.runtime,
                                &mut attempt_ctx,
                                injected,
                                deadline_ms,
                            );
                            (result, attempt_ctx)
                        });
                    self.after_attempt(
                        site,
                        &mut record.outcome,
                        &mut ctx,
                        settled.as_mut(),
                        worker,
                    );
                    let outcome = record.outcome.clone();
                    faults.record(record);
                    outcome
                }
            };
            outcomes.push(outcome);
        }
        let result = SiteResult {
            domain: site.domain.clone(),
            rank: site.rank,
            outcomes,
        };
        (result, faults.map(|f| f.into_recovery(site)))
    }

    /// Stages 3–5 on the settled attempt's `outcome`. `ctx` is the visit
    /// context; `settled` is the context of the attempt that settled the
    /// visit when the fault stage re-forked it (`None`: the attempt ran in
    /// `ctx`, or the breaker skipped it).
    fn after_attempt(
        &self,
        site: &Site,
        outcome: &mut VisitOutcome,
        ctx: &mut SimContext,
        settled: Option<&mut SimContext>,
        worker: &mut VisitWorker,
    ) {
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
            let stats = plan_visit(site, outcome, visit_ctx, params, planner);
            worker.plan_totals.absorb(stats);
        }
        // 5. Capture, continuing the visit's "fault" stream.
        if let Some((plan, mode)) = self.pipeline.capture {
            let schedule = plan.draw(ctx.stream("fault"));
            *outcome = captured_visit(site, outcome, schedule, mode, &mut worker.analytics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            );
            assert_eq!(slots.len(), source.n_shards());
            for (k, slot) in slots.iter().enumerate() {
                assert_eq!(slot.is_none(), k == 2, "{instances} workers, shard {k}");
            }
            // Every worker survived to return its state.
            assert_eq!(states.len(), instances);
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
        let (shards, _, _) = drive(
            &config,
            &source,
            ClientKind::OpenWpm,
            &pipeline,
            &new_runtime(&config),
            &|k, crawl: ShardCrawl| {
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

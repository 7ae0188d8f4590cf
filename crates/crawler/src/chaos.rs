//! Chaos-mode campaigns: the visit pipeline with its fault stage on.
//!
//! The stage order, the shared per-site loop and the one engine pass over
//! both machines live in [`crate::campaign`]; this module holds the fault
//! stage's configuration, its per-site, per-machine state (outage verdict,
//! circuit breaker and recovery records) and its output types. Two
//! invariants are pinned by the tests:
//!
//! 1. **Rate-0 bit-identity.** With [`ChaosConfig::off`] the embedded
//!    [`Campaign`] is byte-identical to [`run_campaign`]'s output for any
//!    population, scenario sites included: a no-op [`FaultPlan`] consumes
//!    zero fault-stream draws, every attempt runs in a fresh fork of the
//!    visit identical to the plain visit context, and the later stages
//!    (scenario drive, planner, capture) run exactly as in the plain
//!    pipeline.
//! 2. **Determinism under faults.** Every fault draw and every backoff
//!    jitter comes from the visit's `"fault"` stream — a pure function of
//!    `(seed, machine, domain, visit index)` — so a faulted campaign
//!    (outcomes *and* `fault.*`/`retry.*`/`breaker.*` counters) replays
//!    identically for a fixed seed, regardless of worker count.
//!
//! Retries re-fork the visit context from scratch, so a retried visit
//! replays exactly the interaction draws a first-try visit would have
//! made — HLISA chains stay lint-clean under retry. Only *injected*
//! faults are retried: site-intrinsic transients (the population's flaky
//! visits) are recorded as-is, matching the paper's non-retrying crawler.
//!
//! [`run_campaign`]: crate::campaign::run_campaign

use crate::campaign::{
    crawl_both, Campaign, CampaignConfig, MachineShard, MachineTelemetry, Pipeline,
};
use crate::recovery::{BreakerConfig, CircuitBreaker, RetryPolicy, VisitRecovery};
use hlisa_sim::{FaultEvent, FaultMonitor, FaultPlan, InjectedFault, SimContext, Tally};
use hlisa_web::{generate_population, ClientKind, Site, VisitError, VisitOutcome};

/// Fault-plane and recovery configuration for a chaos campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Fault injection rates.
    pub plan: FaultPlan,
    /// Retry policy for injected transient faults.
    pub retry: RetryPolicy,
    /// Per-site circuit-breaker policy.
    pub breaker: BreakerConfig,
}

impl ChaosConfig {
    /// The fault plane switched off: no injections, and therefore no
    /// retries and no breaker trips beyond site-intrinsic unreachability.
    pub fn off() -> Self {
        Self {
            plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }

    /// A uniform per-visit fault rate with default recovery policy.
    pub fn uniform(total_rate: f64) -> Self {
        Self {
            plan: FaultPlan::uniform(total_rate),
            ..Self::off()
        }
    }
}

/// Recovery telemetry for every visit of one site by one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRecovery {
    /// The site's domain.
    pub domain: String,
    /// Per-visit recovery records, in visit order.
    pub visits: Vec<VisitRecovery>,
    /// Whether the site's circuit breaker ended the crawl open.
    pub breaker_open: bool,
}

impl SiteRecovery {
    /// Total attempts across all visits of this site.
    pub fn total_attempts(&self) -> u32 {
        self.visits.iter().map(|v| v.attempts).sum()
    }
}

/// One machine's chaos crawl: results live in the embedded
/// [`MachineRun`](crate::campaign::MachineRun); this carries the
/// recovery telemetry alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRecovery {
    /// The client flavour this machine ran.
    pub client: ClientKind,
    /// Per-site recovery records, in population order.
    pub sites: Vec<SiteRecovery>,
    /// Aggregated `fault.*` / `retry.*` / `breaker.*` counters, merged
    /// from the per-worker monitors and sorted by name.
    pub counters: hlisa_sim::CounterSet,
}

/// Both machines' chaos crawls over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaign {
    /// The plain campaign output — at fault rate 0, byte-identical to
    /// [`run_campaign`](crate::run_campaign).
    pub campaign: Campaign,
    /// Machine (1) recovery telemetry.
    pub openwpm_recovery: MachineRecovery,
    /// Machine (2) recovery telemetry.
    pub spoofed_recovery: MachineRecovery,
}

impl ChaosCampaign {
    /// Both machines' fault counters merged (sorted: a name only one
    /// machine observed must not dangle at the end of the set).
    pub fn counters(&self) -> hlisa_sim::CounterSet {
        let mut c = self.openwpm_recovery.counters.clone();
        c.merge(&self.spoofed_recovery.counters);
        c.sorted()
    }
}

/// Runs the full two-machine campaign under a fault plane in one engine
/// pass: the visit pipeline with its fault stage on (see [`crate::campaign`]).
pub fn run_chaos_campaign(config: &CampaignConfig, chaos: &ChaosConfig) -> ChaosCampaign {
    let sites = generate_population(&config.population);
    let pipeline = Pipeline {
        faults: Some(chaos),
        capture: None,
    };
    let ([m1, m2], [t1, t2]) = crawl_both(config, &sites, &pipeline);
    let shape = |client, mut crawl: MachineShard, telemetry: MachineTelemetry| {
        let recovery = MachineRecovery {
            client,
            sites: std::mem::take(&mut crawl.recovery),
            counters: telemetry.faults,
        };
        (crawl.into_run(client), recovery)
    };
    let (openwpm, openwpm_recovery) = shape(ClientKind::OpenWpm, m1, t1);
    let (spoofed, spoofed_recovery) = shape(ClientKind::OpenWpmSpoofed, m2, t2);
    ChaosCampaign {
        campaign: Campaign {
            sites,
            openwpm,
            spoofed,
        },
        openwpm_recovery,
        spoofed_recovery,
    }
}

/// The fault stage's state for one site and machine: the plane's outage
/// verdict, the breaker, the visits' recovery records and the monitor of
/// their fault events. A site is wholly owned by one worker and each
/// machine has its own state, so the breaker needs no synchronisation and
/// trips deterministically.
pub(crate) struct SiteFaults<'a> {
    chaos: &'a ChaosConfig,
    site_down: bool,
    breaker: CircuitBreaker,
    visits: Vec<VisitRecovery>,
    monitor: FaultMonitor,
}

impl<'a> SiteFaults<'a> {
    pub(crate) fn new(
        chaos: &'a ChaosConfig,
        campaign_seed: u64,
        site: &Site,
        visits: usize,
    ) -> Self {
        Self {
            chaos,
            site_down: chaos.plan.site_is_down(campaign_seed, &site.domain),
            breaker: CircuitBreaker::new(chaos.breaker.clone()),
            visits: Vec::with_capacity(visits),
            monitor: FaultMonitor::new(),
        }
    }

    /// The pipeline's attempt stage under the fault plane: one visit
    /// under the retry policy and the site's breaker.
    ///
    /// `ctx` is the visit context, held across attempts: successive
    /// attempts draw successive values from its `"fault"` stream (fault
    /// schedule, then backoff jitter). `try_visit(injected, deadline_ms)`
    /// runs one attempt in a fresh re-fork of the visit, so interaction
    /// draws are identical across attempts, and returns that re-fork.
    /// Returns the visit's record and the context of the attempt that
    /// settled it (`None` when the open breaker skipped the visit).
    pub(crate) fn attempt(
        &mut self,
        ctx: &mut SimContext,
        mut try_visit: impl FnMut(
            Option<InjectedFault>,
            f64,
        ) -> (Result<VisitOutcome, VisitError>, SimContext),
    ) -> (VisitRecovery, Option<SimContext>) {
        let chaos = self.chaos;
        let mut faults = Vec::new();
        let mut backoff_ms = 0.0;
        let mut attempts: u32 = 0;
        let (outcome, settled) = if self.breaker.is_open() {
            self.monitor.record(&FaultEvent::BreakerSkippedVisit);
            (
                VisitError::Unreachable { site_down: true }.to_outcome(),
                None,
            )
        } else {
            loop {
                attempts += 1;
                let injected = if self.site_down {
                    Some(InjectedFault::PermanentUnreachable)
                } else {
                    chaos.plan.draw(ctx.stream("fault"))
                };
                let (result, attempt_ctx) = try_visit(injected, chaos.retry.visit_deadline_ms);
                let e = match result {
                    Ok(outcome) => {
                        self.breaker.record_success();
                        if attempts > 1 {
                            self.monitor
                                .record(&FaultEvent::RecoveredAfterRetry { attempts });
                        }
                        break (outcome, Some(attempt_ctx));
                    }
                    Err(e) => e,
                };
                let kind = e.fault_kind();
                // An error "is" the injected fault only when the kinds
                // match — an intrinsic flake that preempted the scheduled
                // fault is the population's own behaviour and is recorded
                // as-is, exactly like the plain (non-retrying) crawler.
                let was_injected = injected.map(|f| f.kind()) == Some(kind);
                if was_injected {
                    self.monitor.record(&FaultEvent::Injected { kind });
                    faults.push(kind);
                }
                if e.is_permanent() {
                    if self.breaker.record_permanent_fault() {
                        self.monitor.record(&FaultEvent::BreakerTripped);
                    }
                    break (e.to_outcome(), Some(attempt_ctx));
                }
                if was_injected && attempts < chaos.retry.max_attempts() {
                    let backoff = chaos.retry.backoff_ms(attempts - 1, ctx.stream("fault"));
                    self.monitor.record(&FaultEvent::RetryScheduled {
                        attempt: attempts - 1,
                        backoff_ms: backoff,
                    });
                    backoff_ms += backoff;
                    continue;
                }
                if attempts > 1 {
                    self.monitor.record(&FaultEvent::GaveUp { attempts });
                }
                // Non-permanent failures never feed the breaker; but a
                // completed (if failed) contact still resets its
                // consecutive-permanent count.
                self.breaker.record_success();
                break (e.to_outcome(), Some(attempt_ctx));
            }
        };
        let record = VisitRecovery {
            outcome,
            attempts,
            faults,
            backoff_ms,
            skipped_by_breaker: attempts == 0,
        };
        (record, settled)
    }

    /// Appends a visit's record once the later stages settled its
    /// outcome.
    pub(crate) fn record(&mut self, visit: VisitRecovery) {
        self.visits.push(visit);
    }

    /// The site's recovery telemetry once all its visits ran; its fault
    /// events' counts are added to `tally`.
    pub(crate) fn into_recovery(self, site: &Site, tally: &mut Tally) -> SiteRecovery {
        tally.absorb(self.monitor.tally());
        SiteRecovery {
            domain: site.domain.clone(),
            visits: self.visits,
            breaker_open: self.breaker.is_open(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use hlisa_web::PopulationConfig;

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

    #[test]
    fn rate_zero_chaos_is_byte_identical_to_the_legacy_runner() {
        let config = small_config();
        let legacy = run_campaign(&config);
        let chaos = run_chaos_campaign(&config, &ChaosConfig::off());
        assert_eq!(chaos.campaign, legacy);
    }

    #[test]
    fn faulted_campaign_reproduces_exactly_across_runs() {
        let config = small_config();
        let cfg = ChaosConfig::uniform(0.05);
        let a = run_chaos_campaign(&config, &cfg);
        let b = run_chaos_campaign(&config, &cfg);
        assert_eq!(
            a, b,
            "fixed-seed 5%-fault campaign must replay bit-identically"
        );
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn faulted_campaign_is_schedule_independent() {
        let base = small_config();
        let mut serial = base.clone();
        serial.instances = 1;
        let cfg = ChaosConfig::uniform(0.10);
        let a = run_chaos_campaign(&base, &cfg);
        let b = run_chaos_campaign(&serial, &cfg);
        assert_eq!(a, b, "worker count must not affect outcomes or counters");
    }

    #[test]
    fn injections_produce_fault_counters_and_recoveries() {
        let config = small_config();
        let chaos = run_chaos_campaign(&config, &ChaosConfig::uniform(0.20));
        let c = chaos.counters();
        assert!(
            c.get("fault.injected").unwrap_or(0) > 0,
            "no faults at 20%?"
        );
        assert!(c.get("retry.scheduled").unwrap_or(0) > 0);
        assert!(c.get("retry.recovered").unwrap_or(0) > 0);
        // Backoff totals follow the retries.
        assert!(c.get("retry.backoff_ms_total").unwrap_or(0) > 0);
    }

    #[test]
    fn site_outage_feeds_the_unreachable_row_and_the_breaker() {
        let config = small_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                site_outage: 0.25,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let chaos = run_chaos_campaign(&config, &cfg);
        let downed: Vec<&str> = chaos
            .campaign
            .sites
            .iter()
            .filter(|s| !s.unreachable && cfg.plan.site_is_down(config.seed, &s.domain))
            .map(|s| s.domain.as_str())
            .collect();
        assert!(!downed.is_empty(), "25% outage downed nothing");
        for run in [&chaos.campaign.openwpm, &chaos.campaign.spoofed] {
            for site in &run.sites {
                if downed.contains(&site.domain.as_str()) {
                    assert!(!site.reached(), "{} should be down", site.domain);
                }
            }
        }
        assert!(chaos.counters().get("breaker.tripped").unwrap_or(0) >= downed.len() as u64);
        assert!(chaos.counters().get("breaker.skipped_visits").unwrap_or(0) > 0);
    }

    #[test]
    fn successful_chaos_visits_match_their_legacy_counterparts() {
        // Retries re-fork the visit context, so any visit that ends in
        // success (first try or after recovery) must record exactly the
        // outcome the faultless campaign records at the same position.
        let config = small_config();
        let legacy = run_campaign(&config);
        let chaos = run_chaos_campaign(&config, &ChaosConfig::uniform(0.15));
        for (chaos_run, legacy_run) in [
            (&chaos.campaign.openwpm, &legacy.openwpm),
            (&chaos.campaign.spoofed, &legacy.spoofed),
        ] {
            for (cs, ls) in chaos_run.sites.iter().zip(&legacy_run.sites) {
                for (co, lo) in cs.outcomes.iter().zip(&ls.outcomes) {
                    if co.successful {
                        assert_eq!(co, lo, "{}: successful visit diverged", cs.domain);
                    }
                }
            }
        }
    }

    /// A population with no intrinsic pathology, so injected faults are
    /// the only failure source and the retry arithmetic is exact.
    fn clean_config() -> CampaignConfig {
        CampaignConfig {
            seed: 11,
            population: PopulationConfig {
                n_sites: 12,
                unreachable_sites: 0,
                webdriver_visible: (0, 0, 0, 0),
                template_visible: (0, 0, 0),
                silent_http: (0, 0),
                breakage_sites: 0,
                mean_flakiness: 0.0,
                ..PopulationConfig::default()
            },
            visits_per_site: 4,
            instances: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn transient_exhaustion_spends_the_whole_retry_budget_once_per_attempt() {
        let config = clean_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                transient_network: 1.0,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let max_attempts = cfg.retry.max_attempts();
        let chaos = run_chaos_campaign(&config, &cfg);

        let mut visits = 0u64;
        for rec in [&chaos.openwpm_recovery, &chaos.spoofed_recovery] {
            for site in &rec.sites {
                assert!(
                    !site.breaker_open,
                    "{}: transients must never trip the breaker",
                    site.domain
                );
                for v in &site.visits {
                    visits += 1;
                    assert!(!v.skipped_by_breaker);
                    assert_eq!(
                        v.attempts, max_attempts,
                        "{}: the full retry budget is spent",
                        site.domain
                    );
                    assert_eq!(
                        v.faults,
                        vec![hlisa_sim::FaultKind::TransientNetwork; max_attempts as usize]
                    );
                    assert!(!v.outcome.successful);
                    assert!(v.backoff_ms > 0.0, "retries must back off");
                }
            }
        }
        let expected = (config.population.n_sites * config.visits_per_site * 2) as u64;
        assert_eq!(visits, expected);

        // Each attempt is counted exactly once: injections track attempts,
        // scheduled retries are attempts minus the first try, and every
        // visit gives up exactly once.
        let c = chaos.counters();
        assert_eq!(
            c.get("fault.injected"),
            Some(u64::from(max_attempts) * visits)
        );
        assert_eq!(
            c.get("fault.injected.transient_network"),
            Some(u64::from(max_attempts) * visits)
        );
        assert_eq!(
            c.get("retry.scheduled"),
            Some(u64::from(max_attempts - 1) * visits)
        );
        assert_eq!(c.get("retry.gave_up"), Some(visits));
        assert_eq!(c.get("retry.recovered"), None);
        assert_eq!(c.get("breaker.tripped"), None);
        assert_eq!(c.get("breaker.skipped_visits"), None);
    }

    #[test]
    fn permanent_exhaustion_trips_the_breaker_and_empties_the_total_row() {
        let config = clean_config();
        let cfg = ChaosConfig {
            plan: FaultPlan {
                permanent_unreachable: 1.0,
                ..FaultPlan::none()
            },
            ..ChaosConfig::off()
        };
        let threshold = cfg.breaker.permanent_fault_threshold;
        assert!(
            (config.visits_per_site as u32) > threshold,
            "config must leave visits for the open breaker to skip"
        );
        let chaos = run_chaos_campaign(&config, &cfg);

        for rec in [&chaos.openwpm_recovery, &chaos.spoofed_recovery] {
            for site in &rec.sites {
                assert!(
                    site.breaker_open,
                    "{}: breaker should end open",
                    site.domain
                );
                for (i, v) in site.visits.iter().enumerate() {
                    if (i as u32) < threshold {
                        assert_eq!(v.attempts, 1, "permanent faults never retry");
                        assert_eq!(v.faults, vec![hlisa_sim::FaultKind::PermanentUnreachable]);
                        assert_eq!(v.backoff_ms, 0.0);
                        assert!(!v.skipped_by_breaker);
                    } else {
                        assert!(v.skipped_by_breaker, "visit {i} should be skipped");
                        assert_eq!(v.attempts, 0);
                    }
                    assert!(!v.outcome.reached);
                }
            }
        }

        // Every site drops out of Table 2's "total" (reached) row — the
        // campaign-level signature of an unreachable site.
        let table = crate::screenshot::screenshot_table(&chaos.campaign);
        let total = table.row("total").unwrap_or_else(|| {
            panic!("table 2 must keep its total row");
        });
        assert_eq!(total.sites, (0, 0));
        assert_eq!(total.visits, (0, 0));
        for run in [&chaos.campaign.openwpm, &chaos.campaign.spoofed] {
            for site in &run.sites {
                assert!(!site.reached(), "{} should be unreachable", site.domain);
            }
        }

        let c = chaos.counters();
        let sites = (config.population.n_sites * 2) as u64;
        assert_eq!(
            c.get("fault.injected.permanent_unreachable"),
            Some(u64::from(threshold) * sites)
        );
        assert_eq!(c.get("breaker.tripped"), Some(sites));
        assert_eq!(
            c.get("breaker.skipped_visits"),
            Some((config.visits_per_site as u64 - u64::from(threshold)) * sites)
        );
        assert_eq!(c.get("retry.scheduled"), None);
        assert_eq!(c.get("retry.gave_up"), None);
        assert_eq!(c.get("retry.recovered"), None);
    }

    #[test]
    fn breaker_skips_remaining_visits_of_permanently_dead_sites() {
        let config = small_config();
        let chaos = run_chaos_campaign(&config, &ChaosConfig::off());
        let threshold = ChaosConfig::off().breaker.permanent_fault_threshold as usize;
        for (site, rec) in chaos
            .campaign
            .sites
            .iter()
            .zip(&chaos.openwpm_recovery.sites)
        {
            if site.unreachable {
                assert!(rec.breaker_open, "{} breaker should open", site.domain);
                let skipped = rec.visits.iter().filter(|v| v.skipped_by_breaker).count();
                assert_eq!(skipped, config.visits_per_site - threshold);
            }
        }
    }
}

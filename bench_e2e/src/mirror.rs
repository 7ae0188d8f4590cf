//! Traced drivers: each workload's round replayed call for call through
//! the layers' public functions, with a span around every call.
//!
//! The drivers mirror the crawler runners' per-visit sequences using
//! public calls only; nothing is traced inside the program. They must
//! produce the exact statistics the runners do: the benchmark checks the
//! traced digest against the untraced one on every traced run, so a
//! runner that changes behaviour without its mirror following fails the
//! benchmark (and its tests).
//!
//! * Lazy workloads: an atomic shard cursor over the workers, then
//!   `generate_shard`, `SimContext::new(seed).fork("m1"|"m2", 0).fork_visit`,
//!   `simulate_visit`, `apply_scenario_drive_with` and the summary fold —
//!   `run_machine_shard_summaries`.
//! * `adverse_crawl`: `FaultPlan::draw`, `simulate_visit_attempt`,
//!   `RetryPolicy::backoff_ms`, `CircuitBreaker`, `FaultMonitor::record`
//!   (`run_chaos_campaign`); then per capture mode `LossPlan::draw`,
//!   `emit_capture_events`, the mode's observer, `CounterSet::merge`, and
//!   finally `drift_report` (`run_reliability_study`).

use crate::stats::{MachineStats, RoundStats};
use crate::trace::{Phase, RoundTrace, Span, Tally, Tracer};
use crate::workload::{Inputs, CHAOS_FAULT_RATE, MACHINES, STUDY_LOSS_RATE};
use hlisa_crawler::scenario::{apply_scenario_drive, apply_scenario_drive_with};
use hlisa_crawler::{
    drift_report, Campaign, CampaignConfig, CaptureMode, CapturedCampaign, ChaosCampaign,
    ChaosConfig, CircuitBreaker, MachineRecovery, MachineRun, ReliabilityStudy, ScenarioScratch,
    SiteRecovery, SiteResult, VisitRecovery,
};
use hlisa_sim::{
    CounterSet, FaultEvent, FaultMonitor, InjectedFault, LossPlan, LossSchedule, LossyObserver,
    Observer, SimContext, WriteAheadObserver,
};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    emit_capture_events, generate_population, simulate_visit, simulate_visit_attempt, CaptureEvent,
    CaptureRecorder, ClientKind, PopulationShards, ScenarioKind, Site, VisitError, VisitOutcome,
    VisualOutcome, DEFAULT_SHARD_SIZE, DEFAULT_VISIT_DEADLINE_MS,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One traced round of `inputs`' workload. `record` keeps full span
/// records for every 64th shard.
pub fn round(
    inputs: &Inputs,
    shards: Option<&PopulationShards>,
    epoch: Instant,
    record: bool,
) -> (RoundStats, RoundTrace) {
    let start = Instant::now();
    let mut d = Driver {
        // The main thread opens no shard spans, so it keeps no records.
        main: Tracer::new(epoch, 0),
        round: RoundTrace::default(),
        epoch,
        record,
    };
    let stats = match shards {
        Some(shards) => d.lazy(inputs, shards),
        None => d.adverse(inputs),
    };
    d.round.wall = start.elapsed();
    d.round.absorb(d.main);
    (stats, d.round)
}

struct Driver {
    main: Tracer,
    round: RoundTrace,
    epoch: Instant,
    record: bool,
}

impl Driver {
    /// One machine's shards on `workers` claiming threads, each with its
    /// own tracer and state; the products come back in shard order.
    fn claim_shards<S: Send, W: Send>(
        &mut self,
        workers: usize,
        n_shards: usize,
        init: impl Fn() -> W + Sync,
        shard: impl Fn(&mut Tracer, &mut W, usize) -> S + Sync,
    ) -> (Vec<S>, Vec<W>) {
        let threads = workers.max(1).min(n_shards.max(1));
        let cursor = AtomicUsize::new(0);
        let (epoch, record) = (self.epoch, self.record);
        let phase = self.round.phases.len() as u32;
        let start = Instant::now();
        let finished = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tracer = Tracer::new(epoch, phase);
                        let mut state = init();
                        let mut products = Vec::new();
                        loop {
                            let claimed = Instant::now();
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            if k >= n_shards {
                                tracer.finished = Some(claimed);
                                break;
                            }
                            tracer.begin_shard(k, record);
                            products.push((k, shard(&mut tracer, &mut state, k)));
                            tracer.end_shard(claimed);
                        }
                        (products, state, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a traced worker panicked"))
                .collect::<Vec<_>>()
        });
        let wall = start.elapsed();
        let ends: Vec<Instant> = finished.iter().filter_map(|(_, _, t)| t.finished).collect();
        let tail_idle = match (ends.iter().min(), ends.iter().max()) {
            (Some(first), Some(last)) => *last - *first,
            _ => Default::default(),
        };
        self.round.phases.push(Phase {
            threads,
            wall,
            tail_idle,
        });

        let mut slots: Vec<Option<S>> = (0..n_shards).map(|_| None).collect();
        let mut states = Vec::with_capacity(threads);
        let mut tracers = Vec::with_capacity(threads);
        self.main.span(Span::CampaignSerial, || {
            for (products, state, tracer) in finished {
                for (k, product) in products {
                    slots[k] = Some(product);
                }
                states.push(state);
                tracers.push(tracer);
            }
        });
        for tracer in tracers {
            self.round.absorb(tracer);
        }
        let products = slots
            .into_iter()
            .map(|s| s.expect("every shard is claimed once"))
            .collect();
        (products, states)
    }

    /// `run_machine_shard_summaries` for both machines.
    fn lazy(&mut self, inputs: &Inputs, shards: &PopulationShards) -> RoundStats {
        let config = &inputs.campaign;
        let visits = config.visits_per_site;
        let mut stats = RoundStats::default();
        for (client, label) in MACHINES {
            let runtime = self.main.span(Span::CampaignSerial, DetectorRuntime::new);
            let machine_ctx = SimContext::new(config.seed).fork(label, 0);
            let (summaries, _) = self.claim_shards(
                config.instances,
                shards.n_shards(),
                ScenarioScratch::new,
                |t, scratch, k| {
                    let sites = t.span(Span::Population, || shards.generate_shard(k));
                    t.tally(Tally::SitesMaterialised, sites.len() as u64);
                    let mut results = Vec::with_capacity(sites.len());
                    for site in &sites {
                        let mut outcomes = Vec::with_capacity(visits);
                        for v in 0..visits {
                            let mut ctx = t.span(Span::ForkVisit, || {
                                machine_ctx.fork_visit(&site.domain, v as u64)
                            });
                            let mut outcome = t.span(visit_span(site), || {
                                simulate_visit(site, client, &runtime, &mut ctx)
                            });
                            t.tally(Tally::VisitSuccess, u64::from(outcome.successful));
                            if let Some(kind) = site.scenario {
                                scenario(t, kind, client, &mut outcome, |outcome| {
                                    apply_scenario_drive_with(
                                        config.seed,
                                        site,
                                        kind,
                                        client,
                                        outcome,
                                        &mut ctx,
                                        scratch,
                                    )
                                });
                            }
                            outcomes.push(outcome);
                        }
                        results.push(SiteResult {
                            domain: site.domain.clone(),
                            rank: site.rank,
                            outcomes,
                        });
                    }
                    t.span(Span::Fold, move || MachineStats::of_sites(&results, visits))
                },
            );
            stats.add_machine(label, &summaries);
        }
        stats
    }

    /// `run_chaos_campaign`, then `run_reliability_study`.
    fn adverse(&mut self, inputs: &Inputs) -> RoundStats {
        let visits = inputs.sizing.visits;
        let mut stats = RoundStats::default();
        // The fold spans also cover dropping the folded results, as the
        // lazy workloads' summary fold does.
        let chaos = self.chaos(&inputs.campaign, &ChaosConfig::uniform(CHAOS_FAULT_RATE));
        self.main.span(Span::Fold, || {
            stats.add_chaos(&chaos, visits);
            drop(chaos);
        });
        let study = self.study(&inputs.study, &LossPlan::uniform(STUDY_LOSS_RATE));
        self.main.span(Span::Fold, || {
            stats.add_study(&study, visits);
            drop(study);
        });
        stats
    }

    fn population(&mut self, config: &CampaignConfig) -> Vec<Site> {
        let sites = self
            .main
            .span(Span::Population, || generate_population(&config.population));
        self.main
            .tally(Tally::SitesMaterialised, sites.len() as u64);
        sites
    }

    fn chaos(&mut self, config: &CampaignConfig, chaos: &ChaosConfig) -> ChaosCampaign {
        let sites = self.population(config);
        let runtime = self.main.span(Span::CampaignSerial, DetectorRuntime::new);
        let mut machines = Vec::with_capacity(MACHINES.len());
        for (client, label) in MACHINES {
            let machine_ctx = SimContext::new(config.seed).fork(label, 0);
            let (shards, monitors) = self.claim_shards(
                config.instances,
                sites.len().div_ceil(DEFAULT_SHARD_SIZE),
                FaultMonitor::new,
                |t, monitor, k| {
                    shard_of(&sites, k)
                        .iter()
                        .map(|site| {
                            crawl_site(
                                t,
                                config,
                                chaos,
                                site,
                                client,
                                &runtime,
                                &machine_ctx,
                                monitor,
                            )
                        })
                        .collect::<Vec<_>>()
                },
            );
            let machine = self.main.span(Span::CampaignSerial, || {
                let mut counters = CounterSet::new();
                for monitor in &monitors {
                    counters.merge(&monitor.counters());
                }
                let (results, recoveries) = shards.into_iter().flatten().unzip();
                (
                    MachineRun {
                        client,
                        sites: results,
                    },
                    MachineRecovery {
                        client,
                        sites: recoveries,
                        counters: counters.sorted(),
                    },
                )
            });
            machines.push(machine);
        }
        let (spoofed, spoofed_recovery) = machines.pop().expect("two machines");
        let (openwpm, openwpm_recovery) = machines.pop().expect("two machines");
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

    fn study(&mut self, config: &CampaignConfig, plan: &LossPlan) -> ReliabilityStudy {
        let pristine = self.captured(config, plan, CaptureMode::Pristine);
        let naive = self.captured(config, plan, CaptureMode::NaiveLossy);
        let strengthened = self.captured(config, plan, CaptureMode::Strengthened);
        let naive_drift = self
            .main
            .span(Span::Drift, || drift_report(&pristine, &naive));
        let strengthened_drift = self
            .main
            .span(Span::Drift, || drift_report(&pristine, &strengthened));
        ReliabilityStudy {
            pristine,
            naive,
            strengthened,
            naive_drift,
            strengthened_drift,
        }
    }

    /// `run_captured_campaign`.
    fn captured(
        &mut self,
        config: &CampaignConfig,
        plan: &LossPlan,
        mode: CaptureMode,
    ) -> CapturedCampaign {
        let sites = self.population(config);
        let runtime = self.main.span(Span::CampaignSerial, DetectorRuntime::new);
        let mut machines = Vec::with_capacity(MACHINES.len());
        let mut analytics = CounterSet::new();
        for (client, label) in MACHINES {
            let machine_ctx = SimContext::new(config.seed).fork(label, 0);
            let (shards, accs) = self.claim_shards(
                config.instances,
                sites.len().div_ceil(DEFAULT_SHARD_SIZE),
                CounterSet::new,
                |t, acc, k| {
                    shard_of(&sites, k)
                        .iter()
                        .map(|site| {
                            captured_site(
                                t,
                                config,
                                site,
                                client,
                                &runtime,
                                &machine_ctx,
                                plan,
                                mode,
                                acc,
                            )
                        })
                        .collect::<Vec<_>>()
                },
            );
            self.main.span(Span::CampaignSerial, || {
                let mut machine = CounterSet::new();
                for acc in &accs {
                    machine.merge(acc);
                }
                analytics.merge(&machine.sorted());
                machines.push(MachineRun {
                    client,
                    sites: shards.into_iter().flatten().collect(),
                });
            });
        }
        let spoofed = machines.pop().expect("two machines");
        let openwpm = machines.pop().expect("two machines");
        CapturedCampaign {
            mode,
            campaign: Campaign {
                sites,
                openwpm,
                spoofed,
            },
            analytics: analytics.sorted(),
        }
    }
}

fn shard_of(sites: &[Site], k: usize) -> &[Site] {
    let lo = k * DEFAULT_SHARD_SIZE;
    &sites[lo..(lo + DEFAULT_SHARD_SIZE).min(sites.len())]
}

fn visit_span(site: &Site) -> Span {
    if site.detector.is_some() {
        Span::VisitDetector
    } else {
        Span::VisitPlain
    }
}

/// Times one scenario drive and tallies whether it landed: a drive runs
/// on a successful, normal-looking visit and lands when the verdict stays
/// normal.
fn scenario(
    t: &mut Tracer,
    kind: ScenarioKind,
    client: ClientKind,
    outcome: &mut VisitOutcome,
    drive: impl FnOnce(&mut VisitOutcome),
) {
    let (spans, eligible, landed) = match client {
        ClientKind::OpenWpm => (
            [
                Span::SeleniumCookieBanner,
                Span::SeleniumLazyContent,
                Span::SeleniumSpaMutation,
            ],
            Tally::SeleniumEligible,
            Tally::SeleniumLanded,
        ),
        ClientKind::OpenWpmSpoofed => (
            [
                Span::HlisaCookieBanner,
                Span::HlisaLazyContent,
                Span::HlisaSpaMutation,
            ],
            Tally::HlisaEligible,
            Tally::HlisaLanded,
        ),
    };
    let was_eligible = outcome.successful && outcome.visual == VisualOutcome::Normal;
    t.span(spans[kind as usize], || drive(outcome));
    if was_eligible {
        t.tally(eligible, 1);
        t.tally(landed, u64::from(outcome.visual == VisualOutcome::Normal));
    }
}

/// `chaos::crawl_site`: every visit of one site under the recovery policy.
#[allow(clippy::too_many_arguments)]
fn crawl_site(
    t: &mut Tracer,
    config: &CampaignConfig,
    chaos: &ChaosConfig,
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    machine_ctx: &SimContext,
    monitor: &mut FaultMonitor,
) -> (SiteResult, SiteRecovery) {
    let site_down = t.span(Span::FaultDraw, || {
        chaos.plan.site_is_down(config.seed, &site.domain)
    });
    let mut breaker = CircuitBreaker::new(chaos.breaker.clone());
    let mut outcomes = Vec::with_capacity(config.visits_per_site);
    let mut visits = Vec::with_capacity(config.visits_per_site);
    for v in 0..config.visits_per_site {
        let recovery = if breaker.is_open() {
            t.span(Span::Recovery, || {
                monitor.record(&FaultEvent::BreakerSkippedVisit)
            });
            VisitRecovery {
                outcome: VisitError::Unreachable { site_down: true }.to_outcome(),
                attempts: 0,
                faults: Vec::new(),
                backoff_ms: 0.0,
                skipped_by_breaker: true,
            }
        } else {
            visit_with_recovery(
                t,
                chaos,
                site,
                site_down,
                client,
                runtime,
                machine_ctx,
                v as u64,
                &mut breaker,
                monitor,
            )
        };
        outcomes.push(recovery.outcome.clone());
        visits.push(recovery);
    }
    (
        SiteResult {
            domain: site.domain.clone(),
            rank: site.rank,
            outcomes,
        },
        SiteRecovery {
            domain: site.domain.clone(),
            visits,
            breaker_open: breaker.is_open(),
        },
    )
}

/// `chaos::visit_with_recovery`: one visit under the retry policy.
#[allow(clippy::too_many_arguments)]
fn visit_with_recovery(
    t: &mut Tracer,
    chaos: &ChaosConfig,
    site: &Site,
    site_down: bool,
    client: ClientKind,
    runtime: &DetectorRuntime,
    machine_ctx: &SimContext,
    visit_idx: u64,
    breaker: &mut CircuitBreaker,
    monitor: &mut FaultMonitor,
) -> VisitRecovery {
    let mut fault_ctx = t.span(Span::ForkVisit, || {
        machine_ctx.fork_visit(&site.domain, visit_idx)
    });
    let mut faults = Vec::new();
    let mut backoff_total = 0.0;
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let injected = if site_down {
            Some(InjectedFault::PermanentUnreachable)
        } else {
            t.span(Span::FaultDraw, || {
                chaos.plan.draw(fault_ctx.stream("fault"))
            })
        };
        let mut ctx = t.span(Span::ForkVisit, || {
            machine_ctx.fork_visit(&site.domain, visit_idx)
        });
        let result = t.span(visit_span(site), || {
            simulate_visit_attempt(
                site,
                client,
                runtime,
                &mut ctx,
                injected,
                chaos.retry.visit_deadline_ms,
            )
        });
        let done = |outcome, faults, backoff_ms| VisitRecovery {
            outcome,
            attempts: attempt,
            faults,
            backoff_ms,
            skipped_by_breaker: false,
        };
        let e = match result {
            Ok(outcome) => {
                t.tally(Tally::VisitSuccess, u64::from(outcome.successful));
                t.span(Span::Recovery, || {
                    breaker.record_success();
                    if attempt > 1 {
                        monitor.record(&FaultEvent::RecoveredAfterRetry { attempts: attempt });
                    }
                });
                return done(outcome, faults, backoff_total);
            }
            Err(e) => e,
        };
        let kind = e.fault_kind();
        let was_injected = injected.map(|f| f.kind()) == Some(kind);
        if was_injected {
            t.span(Span::Recovery, || {
                monitor.record(&FaultEvent::Injected { kind })
            });
            faults.push(kind);
        }
        if e.is_permanent() {
            t.span(Span::Recovery, || {
                if breaker.record_permanent_fault() {
                    monitor.record(&FaultEvent::BreakerTripped);
                }
            });
            return done(e.to_outcome(), faults, backoff_total);
        }
        if was_injected && attempt < chaos.retry.max_attempts() {
            let backoff = t.span(Span::Recovery, || {
                let backoff = chaos
                    .retry
                    .backoff_ms(attempt - 1, fault_ctx.stream("fault"));
                monitor.record(&FaultEvent::RetryScheduled {
                    attempt: attempt - 1,
                    backoff_ms: backoff,
                });
                backoff
            });
            backoff_total += backoff;
            continue;
        }
        t.span(Span::Recovery, || {
            if attempt > 1 {
                monitor.record(&FaultEvent::GaveUp { attempts: attempt });
            }
            breaker.record_success();
        });
        return done(e.to_outcome(), faults, backoff_total);
    }
}

/// `reliability::captured_site`: every visit of one site through the
/// capture pipeline.
#[allow(clippy::too_many_arguments)]
fn captured_site(
    t: &mut Tracer,
    config: &CampaignConfig,
    site: &Site,
    client: ClientKind,
    runtime: &DetectorRuntime,
    machine_ctx: &SimContext,
    plan: &LossPlan,
    mode: CaptureMode,
    acc: &mut CounterSet,
) -> SiteResult {
    let mut outcomes = Vec::with_capacity(config.visits_per_site);
    for v in 0..config.visits_per_site {
        let mut ctx = t.span(Span::ForkVisit, || {
            machine_ctx.fork_visit(&site.domain, v as u64)
        });
        let mut truth = t.span(visit_span(site), || {
            simulate_visit(site, client, runtime, &mut ctx)
        });
        t.tally(Tally::VisitSuccess, u64::from(truth.successful));
        if let Some(kind) = site.scenario {
            scenario(t, kind, client, &mut truth, |truth| {
                apply_scenario_drive(config.seed, site, kind, client, truth, &mut ctx)
            });
        }
        let schedule = t.span(Span::LossDraw, || plan.draw(ctx.stream("fault")));
        outcomes.push(captured_visit(t, site, &truth, schedule, mode, acc));
    }
    SiteResult {
        domain: site.domain.clone(),
        rank: site.rank,
        outcomes,
    }
}

/// `reliability::captured_visit`: ground truth in, recorded outcome out.
fn captured_visit(
    t: &mut Tracer,
    site: &Site,
    truth: &VisitOutcome,
    schedule: LossSchedule,
    mode: CaptureMode,
    acc: &mut CounterSet,
) -> VisitOutcome {
    let events = t.span(Span::CaptureEmit, || {
        emit_capture_events(site, truth, DEFAULT_VISIT_DEADLINE_MS)
    });
    t.tally(Tally::CaptureEvents, events.len() as u64);
    match mode {
        CaptureMode::Pristine => observe(t, acc, Span::ObserverPristine, || {
            let mut recorder = CaptureRecorder::new();
            for (at, e) in &events {
                recorder.on_event(*at, e);
            }
            (recorder.outcome(), recorder)
        }),
        CaptureMode::NaiveLossy => observe(t, acc, Span::ObserverNaiveLossy, || {
            let mut lossy =
                LossyObserver::new(CaptureRecorder::new(), schedule, DEFAULT_VISIT_DEADLINE_MS);
            for (at, e) in &events {
                lossy.on_event(*at, e);
            }
            (lossy.inner().outcome(), lossy)
        }),
        CaptureMode::Strengthened => observe(t, acc, Span::ObserverStrengthened, || {
            // Write-ahead capture upstream of the lossy channel; the
            // attach barrier acks at the first event on or after the
            // schedule's attach point and replays everything before it.
            let mut wal = WriteAheadObserver::detached(CaptureRecorder::new());
            let attach_at_ms = schedule.attach_at * DEFAULT_VISIT_DEADLINE_MS;
            let split = events
                .iter()
                .position(|(at, _)| *at >= attach_at_ms)
                .unwrap_or(events.len());
            wal.reserve(split);
            for (at, e) in &events[..split] {
                wal.on_event(*at, e);
            }
            wal.attach();
            for (at, e) in &events[split..] {
                wal.on_event(*at, e);
            }
            (wal.inner().outcome(), wal)
        }),
    }
}

/// Times one visit's observer (`span`) and the merge of its counters into
/// the worker's analytics.
fn observe<O: Observer<CaptureEvent>>(
    t: &mut Tracer,
    acc: &mut CounterSet,
    span: Span,
    run: impl FnOnce() -> (VisitOutcome, O),
) -> VisitOutcome {
    let (outcome, observer) = t.span(span, run);
    t.span(Span::ObserverMerge, || acc.merge(&observer.counters()));
    outcome
}

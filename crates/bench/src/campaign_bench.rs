//! Campaign-throughput benchmark: shape-indexed lookups, memoised
//! detector verdicts and the visit core.
//!
//! Four sections, each a retained reference against its optimised
//! path, emitted as `BENCH_campaign.json`:
//!
//! 1. **Property lookups** — the linear-scan reference model
//!    ([`LinearObject`]) vs the shape-indexed realm storage, probed over
//!    a window-sized object. Live path: [`Realm::has_own`]; baseline:
//!    [`LinearObject::own`].
//! 2. **Campaign visits/sec** — the full two-machine crawl with
//!    `world_cache` off (the pre-optimization cost model: one fresh world
//!    build and one detector rescan per visit) and on (memoised detector
//!    verdicts, each client's world built once and each verdict computed
//!    once on a clone of it). Live path: [`DetectorRuntime::new`];
//!    baseline: [`DetectorRuntime::without_world_cache`], both through
//!    [`run_campaign`]. A timed run makes [`CAMPAIGN_PASSES`] campaigns.
//! 3. **Visit core** — both machines' visits of a paper-prevalence
//!    population through `simulate_visit` (a [`SiteProfile`] built per
//!    visit: the site hashed and every request slot's background code
//!    derived on every visit) vs one profile per site and machine reused
//!    for all its visits, as the crawler runs them. This is the visit
//!    layer's own cost: `bench_e2e`'s traced `web.visit.*` metrics come
//!    from a mirror that calls `simulate_visit` per visit. Live path:
//!    [`SiteProfile::visit`]; baseline: [`simulate_visit`]. A timed run
//!    makes [`VISIT_CORE_PASSES`] passes over the population.
//! 4. **Visit fork** — each visit's context and its `"visit"` stream's
//!    first draw, over the same population: one
//!    [`SimContext::fork_visit`] per visit (one serial hash of the domain
//!    each) vs [`SimContext::visit_forks`] per site and machine (the
//!    site's 8 seeds from one lane-batched derivation), as the crawler
//!    forks them. Both sides must yield the same seeds and draws. Live
//!    path: [`SimContext::visit_forks`]; baseline:
//!    [`SimContext::fork_visit`]. A timed run makes
//!    [`VISIT_FORK_PASSES`] passes over the population.

use crate::harness::{compare, Report, Section};
use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_jsom::object::JsObject;
use hlisa_jsom::realm::Realm;
use hlisa_jsom::{LinearObject, PropertyDescriptor, Value};
use hlisa_sim::{Rng, SimContext};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{
    generate_population, simulate_visit, ClientKind, PopulationConfig, Site, SiteProfile,
};
use std::hint::black_box;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Full passes over the probe key set per timed run.
    pub lookup_iters: u32,
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
    /// Sites in the visit-core population (8 visits per site and machine).
    pub visit_core_sites: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            lookup_iters: 4_000,
            campaign_sites: 120,
            visits_per_site: 8,
            visit_core_sites: 2_000,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            lookup_iters: 2_000,
            campaign_sites: 30,
            visits_per_site: 4,
            visit_core_sites: 500,
        }
    }
}

/// Lookup probe sizing: a real `window` global exposes hundreds of Web
/// IDL properties (the repro's reduced world keeps only the study's hot
/// ones), so the scan-vs-shape scaling is measured on a window-sized
/// object; detectors also probe for tells that are *absent* (headless
/// leak names), which cost the linear scan a full pass.
const LOOKUP_PRESENT_KEYS: usize = 256;
const LOOKUP_ABSENT_PROBES: usize = 64;

fn bench_lookup(iters: u32) -> Section {
    let mut realm = Realm::new();
    let obj = realm.alloc(JsObject::plain("Window", None));
    let mut linear = LinearObject::new();
    let mut probes: Vec<String> = Vec::new();
    for i in 0..LOOKUP_PRESENT_KEYS {
        let key = format!("idlAttribute{i:03}");
        let desc = PropertyDescriptor::plain(Value::Number(i as f64));
        realm.set_own(obj, &key, desc.clone());
        linear.set_own(&key, desc);
        probes.push(key);
    }
    for i in 0..LOOKUP_ABSENT_PROBES {
        probes.push(format!("headlessTell{i:02}"));
    }
    let ops = u64::from(iters) * probes.len() as u64;
    let (section, a, b) = compare(
        "property_lookup",
        "lookups",
        ops,
        || {
            let mut hits = 0u64;
            for _ in 0..iters {
                for key in &probes {
                    hits += u64::from(black_box(linear.own(black_box(key))).is_some());
                }
            }
            hits
        },
        || {
            let mut hits = 0u64;
            for _ in 0..iters {
                for key in &probes {
                    hits += u64::from(black_box(realm.has_own(obj, black_box(key))));
                }
            }
            hits
        },
    );
    assert_eq!(a, b, "lookup sides disagree");
    section
}

/// The campaign config both sides run (only `world_cache` differs).
fn campaign_config(bench: &BenchConfig, world_cache: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.campaign_sites,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances: 4,
        world_cache,
        ..CampaignConfig::default()
    }
}

/// Campaigns per timed campaign run. One cached campaign of the full
/// run's 120 sites takes ~1 ms on a 2-vCPU host, short enough for timer
/// and scheduling noise to decide the row (a one-campaign take read
/// spread 0.53); 128 campaigns make a run last over 100 ms.
pub const CAMPAIGN_PASSES: u32 = 128;

fn bench_campaign(bench: &BenchConfig) -> Section {
    // 2 machines × sites × visits, per campaign.
    let visits = 2 * bench.campaign_sites as u64 * bench.visits_per_site as u64;
    let (section, fresh, cached) = compare(
        "campaign",
        "visits",
        visits * u64::from(CAMPAIGN_PASSES),
        || {
            passes(CAMPAIGN_PASSES, || {
                run_campaign(&campaign_config(bench, false))
            })
        },
        || {
            passes(CAMPAIGN_PASSES, || {
                run_campaign(&campaign_config(bench, true))
            })
        },
    );
    assert_eq!(fresh, cached, "cached and fresh campaigns diverged");
    section
}

/// Visits per site and machine in the visit-core section: the paper's 8.
const VISIT_CORE_VISITS: u64 = 8;

/// Passes over the population per timed visit-core run. One pass of the
/// full run's 2,000 sites takes 7–21 ms on a 2-vCPU host, short enough
/// for scheduling noise to decide the row (a one-pass take read spread
/// 0.17); 16 passes make a run last over 100 ms.
pub const VISIT_CORE_PASSES: u32 = 16;

/// Passes over the population per timed visit-fork run. One pass takes
/// 2–6 ms on a 2-vCPU host (a one-pass take read spread 0.21); 64
/// passes make a run last over 100 ms.
pub const VISIT_FORK_PASSES: u32 = 64;

/// Runs `run` `n` times and returns the last run's output.
fn passes<T>(n: u32, mut run: impl FnMut() -> T) -> T {
    for _ in 1..n {
        black_box(run());
    }
    run()
}

/// Both machines' visits of every site, in crawl order, each site's
/// visits appended to the output by `visit_site(site, client, ctx, out)`.
fn visit_core_crawl<T>(
    sites: &[Site],
    mut visit_site: impl FnMut(&Site, ClientKind, &SimContext, &mut Vec<T>),
) -> Vec<T> {
    let mut out = Vec::with_capacity(2 * sites.len() * VISIT_CORE_VISITS as usize);
    for (client, label) in [
        (ClientKind::OpenWpm, "m1"),
        (ClientKind::OpenWpmSpoofed, "m2"),
    ] {
        let machine = SimContext::new(42).fork(label, 0);
        for site in sites {
            visit_site(site, client, &machine, &mut out);
        }
    }
    out
}

fn bench_visit_core(bench: &BenchConfig, report: &mut Report) -> Section {
    let sites = generate_population(&PopulationConfig {
        n_sites: bench.visit_core_sites,
        ..PopulationConfig::default()
    });
    let runtime = DetectorRuntime::new();
    let per_visit = || {
        visit_core_crawl(&sites, |site, client, machine, out| {
            out.extend((0..VISIT_CORE_VISITS).map(|v| {
                let mut ctx = machine.fork_visit(&site.domain, v);
                simulate_visit(site, client, &runtime, &mut ctx)
            }))
        })
    };
    let per_site = || {
        visit_core_crawl(&sites, |site, client, machine, out| {
            let profile = SiteProfile::new(site);
            out.extend((0..VISIT_CORE_VISITS).map(|v| {
                let mut ctx = machine.fork_visit(&site.domain, v);
                profile.visit(client, &runtime, &mut ctx)
            }))
        })
    };
    // Fill the runtime's verdict memo before either side is timed.
    per_site();
    let (per_visit, per_site) = (
        || passes(VISIT_CORE_PASSES, per_visit),
        || passes(VISIT_CORE_PASSES, per_site),
    );
    let visits = 2 * sites.len() as u64 * VISIT_CORE_VISITS * u64::from(VISIT_CORE_PASSES);
    let (section, fresh, reused) = compare("visit_core", "visits", visits, per_visit, per_site);
    assert_eq!(fresh, reused, "per-visit and per-site profiles diverged");
    let slots: usize = sites
        .iter()
        .map(|s| usize::from(s.first_party_requests) + usize::from(s.third_party_requests))
        .sum();
    report.fact(
        "visit_core_slots_per_site",
        slots as f64 / sites.len() as f64,
    );
    section
}

fn bench_visit_fork(bench: &BenchConfig) -> Section {
    let sites = generate_population(&PopulationConfig {
        n_sites: bench.visit_core_sites,
        ..PopulationConfig::default()
    });
    // Each visit's (context seed, first "visit" draw), in crawl order.
    let first_draw = |mut ctx: SimContext| (ctx.seed(), ctx.stream("visit").gen::<u64>());
    let per_visit = || {
        visit_core_crawl(&sites, |site, _, machine, out| {
            out.extend(
                (0..VISIT_CORE_VISITS).map(|v| first_draw(machine.fork_visit(&site.domain, v))),
            )
        })
    };
    let batched = || {
        visit_core_crawl(&sites, |site, _, machine, out| {
            let forks = machine.visit_forks(&site.domain, VISIT_CORE_VISITS as usize);
            out.extend(forks.map(first_draw))
        })
    };
    let (per_visit, batched) = (
        || passes(VISIT_FORK_PASSES, per_visit),
        || passes(VISIT_FORK_PASSES, batched),
    );
    let visits = 2 * sites.len() as u64 * VISIT_CORE_VISITS * u64::from(VISIT_FORK_PASSES);
    let (section, scalar, lanes) = compare("visit_fork", "visits", visits, per_visit, batched);
    assert_eq!(scalar, lanes, "per-visit and batched visit forks diverged");
    section
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let mut report = Report::new(
        "hlisa campaign throughput (shapes, memoised verdicts, visit core)",
        vec![
            ("lookup_iters", u64::from(config.lookup_iters)),
            ("campaign_sites", config.campaign_sites as u64),
            ("visits_per_site", config.visits_per_site as u64),
            ("visit_core_sites", config.visit_core_sites as u64),
        ],
    );
    report.sections = vec![bench_lookup(config.lookup_iters), bench_campaign(&config)];
    let visit_core = bench_visit_core(&config, &mut report);
    report.sections.push(visit_core);
    report.sections.push(bench_visit_fork(&config));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let mut cfg = BenchConfig::smoke();
        // Keep the test fast; rates are not asserted here.
        cfg.lookup_iters = 10;
        cfg.campaign_sites = 10;
        cfg.visits_per_site = 2;
        cfg.visit_core_sites = 10;
        let report = run(cfg);
        let campaign = 2 * 10 * 2 * u64::from(CAMPAIGN_PASSES);
        assert_eq!(report.section("campaign").unwrap().ops, campaign);
        let visit_core = 2 * 10 * 8 * u64::from(VISIT_CORE_PASSES);
        assert_eq!(report.section("visit_core").unwrap().ops, visit_core);
        let visit_fork = 2 * 10 * 8 * u64::from(VISIT_FORK_PASSES);
        assert_eq!(report.section("visit_fork").unwrap().ops, visit_fork);
        for name in ["property_lookup", "campaign", "visit_core", "visit_fork"] {
            let section = report.section(name).expect(name);
            assert!(section.speedup().is_some(), "{name} has no baseline");
        }
        assert!(report.render_human().contains("campaign"));
    }
}

//! Campaign-throughput benchmark: the atoms/shapes/snapshots hot path.
//!
//! Three sections, each a retained reference against its optimised
//! path, emitted as `BENCH_campaign.json`:
//!
//! 1. **World acquisition** — building a `WebDriverFirefox` world from
//!    scratch vs stamping one from a [`WorldSnapshot`] (the per-visit
//!    cost the uncached runtime pays 16,000 times at the paper's scale;
//!    the cached runtime stamps only to fill a verdict).
//! 2. **Property lookups** — the linear-scan reference model
//!    ([`LinearObject`]) vs the shape-indexed realm storage, probed over
//!    the real `Navigator.prototype` key set.
//! 3. **Campaign visits/sec** — the full two-machine crawl with
//!    `world_cache` off (the pre-optimization cost model: one fresh world
//!    build and one detector rescan per visit) and on (memoised detector
//!    verdicts, each computed once per client on a snapshot stamp).

use crate::harness::{compare, Report, Section};
use hlisa_crawler::campaign::{run_campaign, CampaignConfig};
use hlisa_jsom::object::JsObject;
use hlisa_jsom::realm::Realm;
use hlisa_jsom::{build_firefox_world, BrowserFlavor, LinearObject, PropertyDescriptor, Value};
use hlisa_web::{PopulationConfig, WorldSnapshot};
use std::hint::black_box;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// World builds/stamps per timed run.
    pub world_iters: u32,
    /// Full passes over the probe key set per timed run.
    pub lookup_iters: u32,
    /// Sites in the campaign population.
    pub campaign_sites: usize,
    /// Visits per site per machine.
    pub visits_per_site: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            world_iters: 200,
            lookup_iters: 4_000,
            campaign_sites: 120,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            world_iters: 200,
            lookup_iters: 2_000,
            campaign_sites: 30,
            visits_per_site: 4,
        }
    }
}

fn bench_world(iters: u32) -> Section {
    let snapshot = WorldSnapshot::build(BrowserFlavor::WebDriverFirefox);
    let (section, (), ()) = compare(
        "world_acquisition",
        "worlds",
        u64::from(iters),
        || {
            for _ in 0..iters {
                black_box(build_firefox_world(BrowserFlavor::WebDriverFirefox));
            }
        },
        || {
            for _ in 0..iters {
                black_box(snapshot.stamp());
            }
        },
    );
    section
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

fn bench_campaign(bench: &BenchConfig) -> Section {
    // 2 machines × sites × visits.
    let visits = 2 * bench.campaign_sites as u64 * bench.visits_per_site as u64;
    let (section, fresh, cached) = compare(
        "campaign",
        "visits",
        visits,
        || run_campaign(&campaign_config(bench, false)),
        || run_campaign(&campaign_config(bench, true)),
    );
    assert_eq!(fresh, cached, "cached and fresh campaigns diverged");
    section
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let mut report = Report::new(
        "hlisa campaign throughput (atoms/shapes/snapshots)",
        vec![
            ("world_iters", u64::from(config.world_iters)),
            ("lookup_iters", u64::from(config.lookup_iters)),
            ("campaign_sites", config.campaign_sites as u64),
            ("visits_per_site", config.visits_per_site as u64),
        ],
    );
    report.sections = vec![
        bench_world(config.world_iters),
        bench_lookup(config.lookup_iters),
        bench_campaign(&config),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let mut cfg = BenchConfig::smoke();
        // Keep the test fast; rates are not asserted here.
        cfg.world_iters = 2;
        cfg.lookup_iters = 10;
        cfg.campaign_sites = 10;
        cfg.visits_per_site = 2;
        let report = run(cfg);
        assert_eq!(report.section("campaign").unwrap().ops, 2 * 10 * 2);
        for name in ["world_acquisition", "property_lookup", "campaign"] {
            let section = report.section(name).expect(name);
            assert!(section.speedup().is_some(), "{name} has no baseline");
        }
        assert!(report.render_human().contains("campaign"));
    }
}

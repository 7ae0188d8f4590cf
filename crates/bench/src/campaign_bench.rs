//! Campaign-throughput benchmark: the atoms/shapes/snapshots hot path.
//!
//! Three measurements, emitted as `BENCH_campaign.json`:
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
//!
//! Timing here reads the *wall clock on purpose*: the benchmark measures
//! real elapsed cost, and its numbers feed a JSON report, never a
//! simulated observable, so the determinism fence does not apply.

use hlisa_crawler::campaign::{run_campaign, Campaign, CampaignConfig};
use hlisa_jsom::object::JsObject;
use hlisa_jsom::realm::Realm;
use hlisa_jsom::{build_firefox_world, BrowserFlavor, LinearObject, PropertyDescriptor, Value};
use hlisa_web::{PopulationConfig, WorldSnapshot};
use std::hint::black_box;
use std::time::Duration;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// World builds/stamps per timing loop.
    pub world_iters: u32,
    /// Full passes over the navigator key set per lookup loop.
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
            lookup_iters: 20_000,
            campaign_sites: 120,
            visits_per_site: 8,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            world_iters: 20,
            lookup_iters: 2_000,
            campaign_sites: 30,
            visits_per_site: 4,
        }
    }
}

/// One before/after pair with derived rates.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Operations timed on each side.
    pub ops: u64,
    /// Baseline (pre-optimization) elapsed seconds.
    pub baseline_s: f64,
    /// Optimized elapsed seconds.
    pub optimized_s: f64,
}

impl Comparison {
    /// Baseline operations per second.
    pub fn baseline_rate(&self) -> f64 {
        self.ops as f64 / self.baseline_s.max(1e-12)
    }

    /// Optimized operations per second.
    pub fn optimized_rate(&self) -> f64 {
        self.ops as f64 / self.optimized_s.max(1e-12)
    }

    /// Throughput ratio (optimized / baseline).
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s.max(1e-12)
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Sizing used.
    pub config: BenchConfig,
    /// Fresh world build vs snapshot stamp (per-visit world acquisition).
    pub world: Comparison,
    /// Linear-scan vs shape-indexed own-property lookups.
    pub lookup: Comparison,
    /// Total visits simulated per campaign side.
    pub campaign_visits: u64,
    /// Rebuild-and-rescan campaign vs memoised-verdicts campaign.
    pub campaign: Comparison,
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed(), out)
}

fn bench_world(iters: u32) -> Comparison {
    let snapshot = WorldSnapshot::build(BrowserFlavor::WebDriverFirefox);
    let (build_t, _) = timed(|| {
        for _ in 0..iters {
            black_box(build_firefox_world(BrowserFlavor::WebDriverFirefox));
        }
    });
    let (stamp_t, _) = timed(|| {
        for _ in 0..iters {
            black_box(snapshot.stamp());
        }
    });
    Comparison {
        ops: u64::from(iters),
        baseline_s: build_t.as_secs_f64(),
        optimized_s: stamp_t.as_secs_f64(),
    }
}

/// Lookup probe sizing: a real `window` global exposes hundreds of Web
/// IDL properties (the repro's reduced world keeps only the study's hot
/// ones), so the scan-vs-shape scaling is measured on a window-sized
/// object; detectors also probe for tells that are *absent* (headless
/// leak names), which cost the linear scan a full pass.
const LOOKUP_PRESENT_KEYS: usize = 256;
const LOOKUP_ABSENT_PROBES: usize = 64;

fn bench_lookup(iters: u32) -> Comparison {
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
    let (linear_t, a) = timed(|| {
        let mut hits = 0u64;
        for _ in 0..iters {
            for key in &probes {
                hits += u64::from(black_box(linear.own(black_box(key))).is_some());
            }
        }
        hits
    });
    let (shape_t, b) = timed(|| {
        let mut hits = 0u64;
        for _ in 0..iters {
            for key in &probes {
                hits += u64::from(black_box(realm.has_own(obj, black_box(key))));
            }
        }
        hits
    });
    assert_eq!(a, b, "lookup sides disagree");
    Comparison {
        ops,
        baseline_s: linear_t.as_secs_f64(),
        optimized_s: shape_t.as_secs_f64(),
    }
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

fn bench_campaign(bench: &BenchConfig) -> (u64, Comparison) {
    // 2 machines × sites × visits.
    let visits = 2 * bench.campaign_sites as u64 * bench.visits_per_site as u64;
    let (fresh_t, fresh) = timed(|| run_campaign(&campaign_config(bench, false)));
    let (cached_t, cached) = timed(|| run_campaign(&campaign_config(bench, true)));
    assert_campaigns_equal(&fresh, &cached);
    (
        visits,
        Comparison {
            ops: visits,
            baseline_s: fresh_t.as_secs_f64(),
            optimized_s: cached_t.as_secs_f64(),
        },
    )
}

/// The two timed campaigns must also be bit-identical — a benchmark that
/// compared different outputs would be measuring the wrong thing.
fn assert_campaigns_equal(a: &Campaign, b: &Campaign) {
    assert_eq!(a, b, "cached and fresh campaigns diverged");
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> BenchReport {
    let world = bench_world(config.world_iters);
    let lookup = bench_lookup(config.lookup_iters);
    let (campaign_visits, campaign) = bench_campaign(&config);
    BenchReport {
        config,
        world,
        lookup,
        campaign_visits,
        campaign,
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn comparison_json(c: &Comparison, unit: &str) -> String {
    format!(
        concat!(
            "{{\"ops\": {}, \"unit\": \"{}\", \"baseline_s\": {}, \"optimized_s\": {}, ",
            "\"baseline_per_sec\": {}, \"optimized_per_sec\": {}, \"speedup\": {}}}"
        ),
        c.ops,
        unit,
        json_num(c.baseline_s),
        json_num(c.optimized_s),
        json_num(c.baseline_rate()),
        json_num(c.optimized_rate()),
        json_num(c.speedup()),
    )
}

impl BenchReport {
    /// Serializes the report (hand-rolled: the workspace vendors no JSON
    /// writer and the schema is three flat objects).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"hlisa campaign throughput (atoms/shapes/snapshots)\",\n",
                "  \"config\": {{\"world_iters\": {}, \"lookup_iters\": {}, ",
                "\"campaign_sites\": {}, \"visits_per_site\": {}}},\n",
                "  \"world_acquisition\": {},\n",
                "  \"property_lookup\": {},\n",
                "  \"campaign\": {}\n",
                "}}\n"
            ),
            self.config.world_iters,
            self.config.lookup_iters,
            self.config.campaign_sites,
            self.config.visits_per_site,
            comparison_json(&self.world, "worlds"),
            comparison_json(&self.lookup, "lookups"),
            comparison_json(&self.campaign, "visits"),
        )
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let row = |label: &str, c: &Comparison| {
            format!(
                "{label:<18} {:>12.0}/s -> {:>12.0}/s   ({:.1}x)\n",
                c.baseline_rate(),
                c.optimized_rate(),
                c.speedup()
            )
        };
        let mut out = String::from("campaign throughput benchmark (baseline -> optimized)\n");
        out.push_str(&row("world acquisition", &self.world));
        out.push_str(&row("property lookup", &self.lookup));
        out.push_str(&row("campaign visits", &self.campaign));
        out
    }
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
        assert_eq!(report.campaign_visits, 2 * 10 * 2);
        let json = report.to_json();
        for field in [
            "\"world_acquisition\"",
            "\"property_lookup\"",
            "\"campaign\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let human = report.render_human();
        assert!(human.contains("campaign visits"));
    }

    #[test]
    fn comparison_rates_and_speedup() {
        let c = Comparison {
            ops: 100,
            baseline_s: 10.0,
            optimized_s: 2.0,
        };
        assert!((c.baseline_rate() - 10.0).abs() < 1e-9);
        assert!((c.optimized_rate() - 50.0).abs() < 1e-9);
        assert!((c.speedup() - 5.0).abs() < 1e-9);
    }
}

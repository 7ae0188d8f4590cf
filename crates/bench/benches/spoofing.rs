//! Criterion benches for the fingerprint half of the paper: cost of each
//! spoofing method, of the detectors that catch them, and of a full
//! simulated site visit.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hlisa_detect::{probe_side_effects, scan_fingerprint, TemplateAttackDetector};
use hlisa_jsom::{build_firefox_world, BrowserFlavor, Value};
use hlisa_sim::SimContext;
use hlisa_spoof::{SpoofMethod, SpoofingExtension};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{generate_population, simulate_visit, ClientKind, PopulationConfig};

fn bench_world_build(c: &mut Criterion) {
    c.bench_function("jsom/build_firefox_world", |b| {
        b.iter(|| build_firefox_world(BrowserFlavor::WebDriverFirefox))
    });
}

fn bench_spoof_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("spoof/apply");
    for method in SpoofMethod::ALL {
        group.bench_function(method.name(), |b| {
            b.iter_batched(
                || build_firefox_world(BrowserFlavor::WebDriverFirefox),
                |mut world| {
                    method
                        .apply(&mut world, "webdriver", Value::Bool(false))
                        .unwrap();
                    world
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect");
    group.bench_function("scan_fingerprint", |b| {
        b.iter_batched(
            || build_firefox_world(BrowserFlavor::WebDriverFirefox),
            |mut world| scan_fingerprint(&mut world),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("probe_side_effects", |b| {
        b.iter_batched(
            || {
                let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
                SpoofingExtension::paper_default().inject(&mut w).unwrap();
                w
            },
            |mut world| probe_side_effects(&mut world),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("template_attack_build", |b| {
        b.iter(TemplateAttackDetector::new)
    });
    let detector = TemplateAttackDetector::new();
    group.bench_function("template_attack_diff", |b| {
        b.iter_batched(
            || {
                let mut w = build_firefox_world(BrowserFlavor::WebDriverFirefox);
                SpoofingExtension::paper_default().inject(&mut w).unwrap();
                w
            },
            |mut world| detector.is_tampered(&mut world),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_visit(c: &mut Criterion) {
    let sites = generate_population(&PopulationConfig {
        n_sites: 16,
        unreachable_sites: 0,
        ..PopulationConfig::default()
    });
    let runtime = DetectorRuntime::new();
    let mut group = c.benchmark_group("crawl");
    group.bench_function("simulate_visit", |b| {
        let mut ctx = SimContext::new(1);
        let mut i = 0usize;
        b.iter(|| {
            let site = &sites[i % sites.len()];
            i += 1;
            simulate_visit(site, ClientKind::OpenWpmSpoofed, &runtime, &mut ctx)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_world_build,
    bench_spoof_methods,
    bench_detectors,
    bench_visit
);
criterion_main!(benches);

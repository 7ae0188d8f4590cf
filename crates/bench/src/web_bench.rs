//! Layered page-model benchmark: tree generation, layered hit testing,
//! and batched DOM mutation.
//!
//! Three sections, emitted as `BENCH_web.json`:
//!
//! 1. **Page generation** — [`generate_page`] throughput: nested DOM tree
//!    construction plus the RNG-free flow layout, the cost every scenario
//!    visit pays up front. A plain rate (there is no slow side to compare
//!    against — the flat model could not build these pages at all).
//! 2. **Layered hit testing** — the from-scratch linear reference
//!    ([`Document::hit_test_linear`], which recomputes effective layers
//!    and pre-order per probe) vs the spatial-grid index
//!    ([`Document::hit_test`]) over generated pages carrying a
//!    cookie-banner overlay, so occlusion and z-order are on the probed
//!    path.
//! 3. **DOM mutation** — one reflow per change (the naive `mutate` call
//!    per operation) vs one [`DocumentMutator`] batch that reflows once
//!    at the end, over SPA-style detach/restyle bursts.

use crate::harness::{compare, measure, Report, Section};
use hlisa_browser::{Display, Document, Point};
use hlisa_sim::SimContext;
use hlisa_web::dynamics::{apply_scenario, ScenarioKind};
use hlisa_web::page::{generate_page, GeneratedPage, PageStructure};
use hlisa_web::Site;
use std::hint::black_box;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Pages generated for the throughput row (and reused as the probe
    /// corpus for hit testing).
    pub pages: usize,
    /// Full passes over the probe lattice per timed run.
    pub hit_passes: u32,
    /// Mutation bursts per timed run.
    pub mutate_bursts: u32,
    /// Style changes per burst.
    pub muts_per_burst: usize,
}

impl BenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            pages: 400,
            hit_passes: 8,
            mutate_bursts: 2_000,
            muts_per_burst: 24,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            pages: 40,
            hit_passes: 4,
            mutate_bursts: 50,
            muts_per_burst: 12,
        }
    }
}

fn bench_site(i: usize) -> Site {
    Site {
        rank: (i as u32 % 9_000) + 1,
        domain: format!("bench{i:04}.example"),
        detector: None,
        ad_slots: (i % 6) as u8,
        has_video: i % 5 == 0,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: 0.0,
        first_party_requests: 8,
        third_party_requests: 14,
        scenario: None,
    }
}

fn generate_corpus(pages: usize) -> Vec<GeneratedPage> {
    (0..pages)
        .map(|i| {
            let site = bench_site(i);
            let mut ctx = SimContext::new(0xB00C + i as u64);
            let mut page = generate_page(&site, &PageStructure::default(), &mut ctx);
            // An overlay on every page puts occlusion on the probed path.
            apply_scenario(&mut page, ScenarioKind::CookieBanner);
            page
        })
        .collect()
}

fn bench_generation(config: &BenchConfig) -> (Section, u64) {
    // Warm (page-in, branch predictors) with a few pages.
    black_box(generate_corpus(config.pages.min(8)));
    measure("page_generation", "pages", config.pages as u64, || {
        generate_corpus(config.pages)
            .iter()
            .map(|p| p.doc.len() as u64)
            .sum::<u64>()
    })
}

/// Probe lattice: 32×32 points per page, spanning the page box.
fn probe_points(doc: &Document) -> Vec<Point> {
    let mut points = Vec::with_capacity(32 * 32);
    for i in 0..32u32 {
        for j in 0..32u32 {
            points.push(Point::new(
                f64::from(i) / 31.0 * (doc.page_width - 1.0),
                f64::from(j) / 31.0 * (doc.page_height - 1.0),
            ));
        }
    }
    points
}

fn bench_hit_test(config: &BenchConfig, corpus: &[GeneratedPage]) -> Section {
    let pages: Vec<(&Document, Vec<Point>)> = corpus
        .iter()
        .map(|p| {
            // Prime each grid so index construction is not on the timed
            // path (a session builds it once, queries it thousands of
            // times).
            let _ = p.doc.hit_test(Point::new(0.0, 0.0));
            let pts = probe_points(&p.doc);
            (&p.doc, pts)
        })
        .collect();
    let ops =
        u64::from(config.hit_passes) * pages.iter().map(|(_, pts)| pts.len() as u64).sum::<u64>();
    let (section, a, b) = compare(
        "layered_hit_test",
        "probes",
        ops,
        || {
            let mut acc = 0u64;
            for _ in 0..config.hit_passes {
                for (doc, pts) in &pages {
                    for p in pts {
                        acc += doc
                            .hit_test_linear(black_box(*p))
                            .map_or(0, |id| id.index() as u64 + 1);
                    }
                }
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for _ in 0..config.hit_passes {
                for (doc, pts) in &pages {
                    for p in pts {
                        acc += doc
                            .hit_test(black_box(*p))
                            .map_or(0, |id| id.index() as u64 + 1);
                    }
                }
            }
            acc
        },
    );
    assert_eq!(a, b, "hit-test sides disagree");
    section
}

/// One SPA-style burst: restyle `k` leaf blocks (alternating hide/show),
/// through either one `mutate` call per change (baseline: a reflow each)
/// or a single batch (optimized: one reflow at the end).
fn mutation_targets(doc: &Document, k: usize) -> Vec<hlisa_browser::NodeId> {
    doc.ids()
        .filter(|&id| doc.element(id).tag == "p")
        .take(k)
        .collect()
}

fn bench_mutation(config: &BenchConfig, corpus: &[GeneratedPage]) -> Section {
    let template = &corpus[0].doc;
    let targets = mutation_targets(template, config.muts_per_burst);
    assert!(!targets.is_empty(), "corpus page has no leaf paragraphs");
    let burst = |doc: &mut Document, batched: bool, flip: bool| {
        let display = |j: usize| {
            if (j % 2 == 0) ^ flip {
                Display::None
            } else {
                Display::Block {
                    height: 40.0,
                    width_frac: 1.0,
                    margin: 4.0,
                    padding: 2.0,
                }
            }
        };
        if batched {
            doc.mutate(|m| {
                for (j, &id) in targets.iter().enumerate() {
                    m.set_display(id, display(j));
                }
            });
        } else {
            for (j, &id) in targets.iter().enumerate() {
                doc.mutate(|m| m.set_display(id, display(j)));
            }
        }
    };
    let ops = u64::from(config.mutate_bursts) * targets.len() as u64;
    let mut doc_a = template.clone();
    let mut doc_b = template.clone();
    let (section, (), ()) = compare(
        "dom_mutation",
        "changes",
        ops,
        || {
            for i in 0..config.mutate_bursts {
                burst(&mut doc_a, false, i % 2 == 0);
            }
        },
        || {
            for i in 0..config.mutate_bursts {
                burst(&mut doc_b, true, i % 2 == 0);
            }
        },
    );
    assert_eq!(doc_a, doc_b, "mutation sides disagree");
    section
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let mut report = Report::new(
        "hlisa layered page model (generation/hit test/mutation)",
        vec![
            ("pages", config.pages as u64),
            ("hit_passes", u64::from(config.hit_passes)),
            ("mutate_bursts", u64::from(config.mutate_bursts)),
            ("muts_per_burst", config.muts_per_burst as u64),
        ],
    );
    let (generation, corpus_nodes) = bench_generation(&config);
    let corpus = generate_corpus(config.pages);
    report.sections = vec![
        generation,
        bench_hit_test(&config, &corpus),
        bench_mutation(&config, &corpus),
    ];
    report.fact("corpus_nodes", corpus_nodes as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let cfg = BenchConfig {
            pages: 4,
            hit_passes: 1,
            mutate_bursts: 2,
            muts_per_burst: 4,
        };
        let report = run(cfg);
        let nodes = report.get_fact("corpus_nodes").unwrap();
        assert!(nodes > 100.0, "{nodes} nodes");
        assert!(report.section("page_generation").is_some());
        for name in ["layered_hit_test", "dom_mutation"] {
            let section = report.section(name).expect(name);
            assert!(section.speedup().is_some(), "{name} has no baseline");
        }
        assert!(report.render_human().contains("layered_hit_test"));
    }

    #[test]
    fn corpus_pages_carry_overlays_and_nested_structure() {
        let corpus = generate_corpus(3);
        for p in &corpus {
            assert!(p.doc.by_id("cookie-banner").is_some());
            let max_depth = p.doc.ids().map(|id| p.doc.depth(id)).max().unwrap_or(0);
            assert!(max_depth >= 2, "flat page in corpus");
        }
    }
}

//! Layered page-model benchmark: tree generation, scenario-page set-up,
//! layered hit testing, and batched DOM mutation.
//!
//! Four sections, emitted as `BENCH_web.json`:
//!
//! 1. **Page generation** — what opening a scenario page costs:
//!    [`generate_page`] (nested DOM tree construction plus the RNG-free
//!    flow layout), [`apply_scenario`] and the first query-index build.
//!    A worker pays this once per (site, machine) and caches the page, so
//!    every later visit to the site shares it. A plain rate (there is no
//!    slow side to compare against — the flat model could not build these
//!    pages at all), so a timed run makes [`PAGE_PASSES`] passes over
//!    the corpus to last long enough to read.
//! 2. **Scenario-page set-up** — everything a (site, machine) pays before
//!    its drives share the cached page: the page generation above plus
//!    the first run of the page's program, which a drive applies through
//!    a [`DocumentMemo`]. That run misses the empty memo, so it copies the
//!    tree, reflows it and builds the output's index. Each corpus page
//!    gets a scenario kind in turn and runs that kind's program. A plain
//!    rate, timed over the same number of passes.
//! 3. **Layered hit testing** — the from-scratch linear reference
//!    ([`Document::hit_test_linear`], which recomputes effective layers
//!    and pre-order per probe) vs the row-band index
//!    ([`Document::hit_test`]) over generated pages carrying a
//!    cookie-banner overlay, so occlusion and z-order are on the probed
//!    path.
//! 4. **DOM mutation** — one reflow per change (the naive `mutate` call
//!    per operation) vs one [`DocumentMutator`](hlisa_browser::DocumentMutator) batch that reflows once
//!    at the end, over SPA-style detach/restyle bursts.

use crate::harness::{compare, measure, Report, Section};
use hlisa_browser::{Browser, BrowserConfig, Display, Document, DocumentMemo, Point};
use hlisa_sim::SimContext;
use hlisa_web::dynamics::{self, apply_scenario, ScenarioKind};
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

/// Passes over the page corpus per timed run of the two plain-rate rows
/// (page generation, scenario-page set-up). One pass of the full run's
/// 400 pages takes 3–10 ms on a 2-vCPU host, short enough for scheduling
/// noise to decide the rate; 48 passes make a run last over 100 ms.
pub const PAGE_PASSES: u32 = 48;

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

/// The corpus, each page built as a scenario drive first opens it:
/// generated, its scenario applied, its query index built.
fn generate_corpus(pages: usize) -> Vec<GeneratedPage> {
    (0..pages)
        .map(|i| {
            let site = bench_site(i);
            let mut ctx = SimContext::new(0xB00C + i as u64);
            let mut page = generate_page(&site, &PageStructure::default(), &mut ctx);
            // An overlay on every page puts occlusion on the probed path.
            apply_scenario(&mut page, ScenarioKind::CookieBanner);
            page.doc.build_index();
            page
        })
        .collect()
}

fn bench_generation(config: &BenchConfig) -> (Section, u64) {
    // Warm (page-in, branch predictors) with a few pages.
    black_box(generate_corpus(config.pages.min(8)));
    let ops = config.pages as u64 * u64::from(PAGE_PASSES);
    // Every pass builds the same corpus; the run returns its node count.
    measure("page_generation", "pages", ops, || {
        let mut nodes = 0;
        for _ in 0..PAGE_PASSES {
            nodes = black_box(
                generate_corpus(config.pages)
                    .iter()
                    .map(|p| p.doc.len() as u64)
                    .sum::<u64>(),
            );
        }
        nodes
    })
}

/// Runs the page program of `kind` once on `doc` through a fresh memo,
/// in `browser`, as the first drive of a cached page does. Returns the
/// node count of the document it leaves.
fn first_program_run(browser: &mut Browser, doc: Document, kind: ScenarioKind) -> usize {
    browser.reopen(doc);
    match kind {
        ScenarioKind::CookieBanner => {
            browser.mutate_document_memo(&mut DocumentMemo::new(dynamics::dismiss_banner));
        }
        ScenarioKind::LazyContent => {
            browser.mutate_document_memo(&mut DocumentMemo::new(dynamics::reveal_lazy));
        }
        ScenarioKind::SpaMutation => {
            browser.mutate_document_memo(&mut DocumentMemo::new(dynamics::spa_rerender));
        }
    }
    browser.document().len()
}

fn bench_scenario_setup(config: &BenchConfig) -> Section {
    let sites: Vec<Site> = (0..config.pages).map(bench_site).collect();
    let setup = |browser: &mut Browser, i: usize| {
        let kind = ScenarioKind::ALL[i % ScenarioKind::ALL.len()];
        let mut ctx = SimContext::new(0xB00C + i as u64);
        let mut page = generate_page(&sites[i], &PageStructure::default(), &mut ctx);
        apply_scenario(&mut page, kind);
        page.doc.build_index();
        first_program_run(browser, page.doc, kind) as u64
    };
    let bconfig = BrowserConfig::webdriver();
    let world = bconfig.pristine_world();
    let blank = Document::new("about:blank", 1280.0, 720.0);
    let mut browser = Browser::open_with_world(bconfig, blank, world);
    // Warm (page-in, branch predictors) with a few pages.
    for i in 0..config.pages.min(8) {
        black_box(setup(&mut browser, i));
    }
    let ops = config.pages as u64 * u64::from(PAGE_PASSES);
    let (section, nodes) = measure("scenario_page_setup", "pages", ops, || {
        (0..PAGE_PASSES)
            .flat_map(|_| 0..config.pages)
            .map(|i| setup(&mut browser, i))
            .sum::<u64>()
    });
    assert!(nodes > 0, "empty scenario pages");
    section
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
        // Every corpus page has its index built already, so index
        // construction is not on the timed path (a session builds it
        // once, queries it thousands of times).
        .map(|p| (&p.doc, probe_points(&p.doc)))
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
        "hlisa layered page model (generation/set-up/hit test/mutation)",
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
        bench_scenario_setup(&config),
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
        for name in ["page_generation", "scenario_page_setup"] {
            let section = report.section(name).expect(name);
            assert!(section.speedup().is_none(), "{name} has a baseline");
        }
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

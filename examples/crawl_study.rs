//! Crawl study: a miniature §3.2 field experiment.
//!
//! Crawls a 300-site synthetic Tranco sample with two machines — stock
//! OpenWPM and OpenWPM with the spoofing extension — and reports the
//! screenshot evaluation and first-party error statistics.
//!
//! Run with: `cargo run --example crawl_study`

use hlisa_crawler::{analyze_http, run_campaign, screenshot_table, CampaignConfig};
use hlisa_web::{judge_traversal, traverse, PageGraph, PopulationConfig, TraversalStrategy};

fn main() {
    let config = CampaignConfig {
        seed: 2021,
        population: PopulationConfig {
            n_sites: 300,
            unreachable_sites: 24,
            ..PopulationConfig::default()
        },
        visits_per_site: 8,
        instances: 8,
        ..CampaignConfig::default()
    };
    println!(
        "crawling {} sites x {} visits with {} parallel instances per machine...\n",
        config.population.n_sites, config.visits_per_site, config.instances
    );
    let campaign = run_campaign(&config);

    let table = screenshot_table(&campaign);
    println!("Screenshot evaluation (sites with outcome, machine 1 / machine 2):");
    for row in &table.rows {
        println!(
            "  {:<26} {:>4} / {:<4}   (visits {:>4} / {:<4})",
            row.label, row.sites.0, row.sites.1, row.visits.0, row.visits.1
        );
    }

    let http = analyze_http(&campaign);
    println!("\nFirst-party error responses (code: OpenWPM / +extension):");
    for code in http.frequent_codes(&http.first_party, 20, true) {
        let (a, b) = http.first_party[&code];
        println!("  {code}: {a} / {b}");
    }
    if let Some(w) = &http.wilcoxon_first_party {
        println!(
            "\nWilcoxon matched-pairs on per-site first-party errors: p = {:.4} ({})",
            w.p_value,
            if w.significant_at(0.05) {
                "significant decrease with the extension"
            } else {
                "not significant at this scale"
            }
        );
    }

    // The third detection vector: no interaction API fixes an exhaustive
    // itinerary (§1 — traversal "cannot be solved generically").
    println!("\nTraversal check on a 24-page site:");
    let graph = PageGraph::generate(99, 24);
    let crawl = traverse(
        &graph,
        TraversalStrategy::ExhaustiveBfs { dwell_ms: 1_500.0 },
        1,
    );
    let v = judge_traversal(&graph, &crawl);
    println!(
        "  exhaustive crawler: coverage {:.0}%, flagged = {} ({})",
        crawl.coverage(&graph) * 100.0,
        v.is_bot,
        v.signals.join("; "),
    );
    let human = traverse(&graph, TraversalStrategy::HumanBrowse, 1);
    let vh = judge_traversal(&graph, &human);
    println!(
        "  human browse:       coverage {:.0}%, flagged = {}",
        human.coverage(&graph) * 100.0,
        vh.is_bot,
    );
}

//! Crawl study: a miniature §3.2 field experiment.
//!
//! Crawls a 300-site synthetic Tranco sample with two machines — stock
//! OpenWPM and OpenWPM with the spoofing extension — tallying each shard
//! as it is crawled, and prints Table 2 and Figure 4 as the paper-scale
//! regenerators do.
//!
//! Run with: `cargo run --example crawl_study`

use hlisa_crawler::{figure4_report, table2_report, CampaignConfig, FieldTally};
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
    let tally = FieldTally::crawl(&config);
    println!("{}", table2_report(&tally.table2()));
    println!("{}", figure4_report(&tally.http()));

    // The third detection vector: no interaction API fixes an exhaustive
    // itinerary (§1 — traversal "cannot be solved generically").
    println!("Traversal check on a 24-page site:");
    let graph = PageGraph::generate(99, 24);
    let bfs = TraversalStrategy::ExhaustiveBfs { dwell_ms: 1_500.0 };
    let crawl = traverse(&graph, bfs, 1);
    let v = judge_traversal(&graph, &crawl);
    let coverage = crawl.coverage(&graph) * 100.0;
    let (flagged, signals) = (v.is_bot, v.signals.join("; "));
    println!("  exhaustive crawler: coverage {coverage:.0}%, flagged = {flagged} ({signals})");
    let human = traverse(&graph, TraversalStrategy::HumanBrowse, 1);
    let flagged = judge_traversal(&graph, &human).is_bot;
    let coverage = human.coverage(&graph) * 100.0;
    println!("  human browse:       coverage {coverage:.0}%, flagged = {flagged}");
}

//! Regenerates Figure 4 / Appendix B (HTTP errors + Wilcoxon test).
use hlisa_crawler::{figure4_report, CampaignConfig, FieldTally};
fn main() {
    eprintln!("running the paper-scale campaign (1,000 sites x 8 visits x 2 machines)...");
    let tally = FieldTally::crawl(&CampaignConfig::default());
    println!("{}", figure4_report(&tally.http()));
}

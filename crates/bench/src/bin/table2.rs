//! Regenerates Table 2 (screenshot evaluation of the 1,000-site crawl).
use hlisa_crawler::{table2_report, CampaignConfig, FieldTally};
fn main() {
    eprintln!("running the paper-scale campaign (1,000 sites x 8 visits x 2 machines)...");
    let tally = FieldTally::crawl(&CampaignConfig::default());
    println!("{}", table2_report(&tally.table2()));
}

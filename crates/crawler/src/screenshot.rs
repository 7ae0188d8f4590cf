//! Screenshot evaluation — Table 2.
//!
//! §3.2: "we review screenshots and count the occurrence of blocking pages,
//! CAPTCHAs, visible error messages ... In addition, we evaluate if there
//! is missing content (such as ads)." Counts are reported separately for
//! *sites* (a site counts once if any visit shows the outcome) and
//! *visits*, per machine, over successful visits. The table is read off
//! a [`FieldTally`], the one pass that also feeds Figure 4.

use crate::campaign::Campaign;
use crate::field::FieldTally;
use hlisa_web::VisualOutcome as V;

/// One Table 2 row: (sites machine 1, sites machine 2, visits machine 1,
/// visits machine 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Row label as in the paper.
    pub label: String,
    /// Sites with the outcome, per machine.
    pub sites: (usize, usize),
    /// Visits with the outcome, per machine.
    pub visits: (usize, usize),
}

/// The full screenshot-evaluation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2 {
    /// Rows in the paper's order.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Looks a row up by label.
    pub fn row(&self, label: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

/// Table 2's outcome rows below "total", in the paper's order: each
/// label with the screenshot outcomes that count towards it.
pub const ROWS: [(&str, &[V]); 8] = [
    ("missing ads", &[V::NoAds, V::FewerAds]),
    ("- no ads", &[V::NoAds]),
    ("- less ads", &[V::FewerAds]),
    ("blocking/CAPTCHAs", &[V::BlockPage, V::Captcha]),
    ("frozen video element(s)", &[V::FrozenVideo]),
    // Dynamic-page rows: interaction failures a screenshot review
    // attributes to the drive, not the site's detector.
    ("stuck on consent overlay", &[V::StuckOnOverlay]),
    ("missing lazy-loaded content", &[V::MissingLazyContent]),
    ("stale-element interaction", &[V::StaleElement]),
];

/// Builds Table 2 from a campaign.
pub fn screenshot_table(campaign: &Campaign) -> Table2 {
    FieldTally::of(campaign).table2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use hlisa_web::PopulationConfig;

    fn campaign() -> Campaign {
        run_campaign(&CampaignConfig {
            seed: 99,
            population: PopulationConfig {
                n_sites: 120,
                unreachable_sites: 10,
                ..PopulationConfig::default()
            },
            visits_per_site: 6,
            instances: 4,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn table_has_paper_rows() {
        let t = screenshot_table(&campaign());
        for label in [
            "total",
            "missing ads",
            "- no ads",
            "- less ads",
            "blocking/CAPTCHAs",
            "frozen video element(s)",
        ] {
            assert!(t.row(label).is_some(), "missing row {label}");
        }
    }

    #[test]
    fn totals_exclude_unreachable() {
        let t = screenshot_table(&campaign());
        let total = t.row("total").unwrap();
        assert_eq!(total.sites.0, 110);
        assert_eq!(total.sites.1, 110);
        assert!(total.visits.0 <= 110 * 6);
        assert!(total.visits.0 > 100 * 6, "too many failed visits");
    }

    #[test]
    fn spoofing_reduces_visible_detection() {
        let t = screenshot_table(&campaign());
        let blocking = t.row("blocking/CAPTCHAs").unwrap();
        assert!(
            blocking.sites.0 > blocking.sites.1,
            "blocking sites {} -> {}",
            blocking.sites.0,
            blocking.sites.1
        );
        let ads = t.row("missing ads").unwrap();
        assert!(ads.sites.0 >= ads.sites.1);
    }

    #[test]
    fn scenario_rows_split_by_drive() {
        use hlisa_web::ScenarioMix;
        let c = run_campaign(&CampaignConfig {
            seed: 99,
            population: PopulationConfig {
                n_sites: 120,
                unreachable_sites: 10,
                scenarios: ScenarioMix {
                    cookie_banner: 3,
                    lazy_content: 3,
                    spa_mutation: 3,
                },
                ..PopulationConfig::default()
            },
            visits_per_site: 6,
            instances: 4,
            ..CampaignConfig::default()
        });
        let t = screenshot_table(&c);
        // Each scenario class fills its own row on machine (1): every
        // assigned site fails there on (almost) every successful visit,
        // while the HLISA-style drive on machine (2) recovers all of them.
        for label in [
            "stuck on consent overlay",
            "missing lazy-loaded content",
            "stale-element interaction",
        ] {
            let row = t.row(label).unwrap();
            assert!(row.sites.0 >= 2, "{label}: only {} sites", row.sites.0);
            assert!(row.visits.0 > row.sites.0, "{label}: visits too few");
            assert_eq!(row.sites.1, 0, "{label} leaked onto the HLISA machine");
            assert_eq!(row.visits.1, 0, "{label} leaked onto the HLISA machine");
        }
        // A scenario-free campaign reports empty rows (and is otherwise
        // untouched by the feature — the golden test pins that bitwise).
        let t0 = screenshot_table(&campaign());
        for label in [
            "stuck on consent overlay",
            "missing lazy-loaded content",
            "stale-element interaction",
        ] {
            let row = t0.row(label).unwrap();
            assert_eq!((row.sites, row.visits), ((0, 0), (0, 0)), "{label}");
        }
    }

    #[test]
    fn subtotals_add_up() {
        let t = screenshot_table(&campaign());
        let all = t.row("missing ads").unwrap();
        let none = t.row("- no ads").unwrap();
        let less = t.row("- less ads").unwrap();
        assert_eq!(all.visits.0, none.visits.0 + less.visits.0);
        assert_eq!(all.visits.1, none.visits.1 + less.visits.1);
    }
}

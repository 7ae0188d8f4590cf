//! Fixed-seed golden test over generated scenario pages.
//!
//! A scenario page is generated once per (site, machine) and then
//! driven many times, so how it is built — node by node with a reflow
//! per insertion, or in one batch with a single reflow — must not show
//! in the page. The hash below was captured from the node-by-node
//! builder: every node's element, tree links and laid-out box, the page
//! extent and the drive handles of 240 pages (80 sites, all three
//! scenario kinds, two campaign seeds) feed it.

use hlisa_sim::SimContext;
use hlisa_stats::rngutil::derive_seed;
use hlisa_web::dynamics::ScenarioKind;
use hlisa_web::{apply_scenario, generate_page, generate_population, PageStructure};
use hlisa_web::{GeneratedPage, PopulationConfig, Site};

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The crawler's scenario page: structure keyed on the campaign seed and
/// the site's identity.
fn scenario_page(site: &Site, kind: ScenarioKind, campaign_seed: u64) -> GeneratedPage {
    let mut ctx = SimContext::new(derive_seed(
        campaign_seed,
        &site.domain,
        u64::from(site.rank),
    ));
    let mut page = generate_page(site, &PageStructure::default(), &mut ctx);
    apply_scenario(&mut page, kind);
    page
}

const SCENARIO_PAGES_HASH: u64 = 11_615_156_079_101_673_337;

#[test]
fn scenario_pages_are_bit_identical_to_the_node_by_node_build() {
    let sites = generate_population(&PopulationConfig {
        n_sites: 80,
        ..PopulationConfig::default()
    });
    let mut rendered = String::new();
    let mut pages = 0;
    for campaign_seed in [0x5EED_u64, 0x00C0_FFEE] {
        for site in &sites {
            for kind in ScenarioKind::ALL {
                let page = scenario_page(site, kind, campaign_seed);
                rendered.push_str(&format!("{kind:?} {page:?}\n"));
                pages += 1;
            }
        }
    }
    assert!(pages >= 200, "{pages} pages");
    assert_eq!(fnv1a(&rendered), SCENARIO_PAGES_HASH);
}

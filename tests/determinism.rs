//! Reproducibility guarantees: every experiment is a pure function of its
//! seed, independent of thread scheduling.

use hlisa_armsrace::{run_tournament, TournamentConfig};
use hlisa_crawler::{run_campaign, CampaignConfig};
use hlisa_web::PopulationConfig;

fn small_campaign(instances: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 99,
        population: PopulationConfig {
            n_sites: 80,
            unreachable_sites: 6,
            ..PopulationConfig::default()
        },
        visits_per_site: 4,
        instances,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_is_schedule_independent() {
    let serial = run_campaign(&small_campaign(1));
    let parallel = run_campaign(&small_campaign(8));
    assert_eq!(serial, parallel);
}

#[test]
fn campaign_changes_with_seed() {
    let a = run_campaign(&small_campaign(4));
    let mut cfg = small_campaign(4);
    cfg.seed = 100;
    let b = run_campaign(&cfg);
    assert_ne!(a, b);
}

#[test]
fn tournament_is_reproducible() {
    let cfg = TournamentConfig {
        seed: 5,
        sessions_per_agent: 2,
        reference_sessions: 2,
        enrollment_sessions: 2,
    };
    assert_eq!(run_tournament(&cfg), run_tournament(&cfg));
}

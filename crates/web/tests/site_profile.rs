//! Differential property test: one reused visit profile against a fresh
//! one per visit.
//!
//! `SiteProfile` holds what is pure in a site (content hash, timeline,
//! every request slot's background status code), so a crawler builds it
//! once and reuses it for all of a site's visits and retries. Over
//! arbitrary sites — every detector method × reaction, 0–255 requests of
//! each party, unreachable, flaky and spoofing-breakage sites — both
//! clients, every injected fault and several deadlines, each visit of a
//! reused profile must return what a fresh `simulate_visit_attempt`
//! returns, leave the context's time where it leaves it, and leave the `"visit"`
//! stream at the same position. On the rng-only path it must match
//! `simulate_visit_with`.

use hlisa_sim::{InjectedFault, SimContext};
use hlisa_web::visit::{simulate_visit_with, DetectorRuntime};
use hlisa_web::{
    simulate_visit_attempt, ClientKind, DetectionMethod, Reaction, Site, SiteDetector, SiteProfile,
    DEFAULT_VISIT_DEADLINE_MS,
};
use proptest::prelude::*;
use rand::Rng;

const REACTIONS: [Reaction; 7] = [
    Reaction::BlockPage,
    Reaction::Captcha,
    Reaction::HideAllAds,
    Reaction::ReduceAds,
    Reaction::Http403,
    Reaction::Http503,
    Reaction::FreezeVideo,
];

const DEADLINES_MS: [f64; 4] = [DEFAULT_VISIT_DEADLINE_MS, 5_000.0, 1_200.0, 100.0];

/// A site: `detector` 0 deploys none, 1..=14 picks a method × reaction;
/// `flaky` is cubed so most sites are rarely flaky yet 0..=1 is covered.
fn arb_site() -> impl Strategy<Value = Site> {
    (
        (1u32..20_000, 0u32..1_000_000),
        0usize..15,
        (0u8..=255, 0u8..=255),
        0u8..4,
        0.0f64..=1.0,
        (0u8..2, 0u8..2),
        0u8..=12,
    )
        .prop_map(
            |((rank, name), detector, (fp, tp), down, flaky, (breaks, video), ad_slots)| Site {
                rank,
                domain: format!("site{name}.test"),
                detector: (detector > 0).then(|| SiteDetector {
                    method: if detector <= 7 {
                        DetectionMethod::WebdriverFlag
                    } else {
                        DetectionMethod::TemplateAttack
                    },
                    reaction: REACTIONS[(detector - 1) % 7],
                }),
                ad_slots,
                has_video: video == 1,
                breaks_under_spoofing: breaks == 1,
                unreachable: down == 0,
                flaky_visit_prob: flaky.powi(3),
                first_party_requests: fp,
                third_party_requests: tp,
                scenario: None,
            },
        )
}

/// `None` or one injected fault, with its chain fraction.
fn fault(pick: u8, at_fraction: f64) -> Option<InjectedFault> {
    match pick {
        0 => None,
        1 => Some(InjectedFault::PageLoadTimeout),
        2 => Some(InjectedFault::MidVisitStall { at_fraction }),
        3 => Some(InjectedFault::RealmCrash { at_fraction }),
        4 => Some(InjectedFault::TransientNetwork),
        _ => Some(InjectedFault::PermanentUnreachable),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reused_profile_matches_a_fresh_visit_every_time(
        site in arb_site(),
        (seed, visits) in (0u64..10_000, 1u64..9),
        (pick, at_fraction) in (0u8..6, 0.0f64..1.0),
        deadline in 0usize..4,
    ) {
        let runtime = DetectorRuntime::new();
        let machine = SimContext::new(seed).fork("m1", 0);
        let injected = fault(pick, at_fraction);
        let deadline_ms = DEADLINES_MS[deadline];
        let profile = SiteProfile::new(&site);
        for v in 0..visits {
            for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
                let mut reused_ctx = machine.fork_visit(&site.domain, v);
                let mut fresh_ctx = machine.fork_visit(&site.domain, v);
                let reused =
                    profile.attempt(client, &runtime, &mut reused_ctx, injected, deadline_ms);
                let fresh = simulate_visit_attempt(
                    &site,
                    client,
                    &runtime,
                    &mut fresh_ctx,
                    injected,
                    deadline_ms,
                );
                prop_assert_eq!(&reused, &fresh, "{:?} visit {} {:?}", site, v, client);
                prop_assert_eq!(reused_ctx.now_ms(), fresh_ctx.now_ms());
                prop_assert_eq!(
                    reused_ctx.stream("visit").gen::<u64>(),
                    fresh_ctx.stream("visit").gen::<u64>(),
                    "visit stream position"
                );

                let mut visit_ctx = machine.fork_visit(&site.domain, v);
                let mut rng_ctx = machine.fork_visit(&site.domain, v);
                let visited = profile.visit(client, &runtime, &mut visit_ctx);
                let rng_only = simulate_visit_with(&site, client, &runtime, rng_ctx.stream("visit"));
                prop_assert_eq!(&visited, &rng_only, "{:?} visit {} {:?}", site, v, client);
                if injected.is_none() && deadline_ms == DEFAULT_VISIT_DEADLINE_MS {
                    prop_assert_eq!(visited, reused.unwrap_or_else(|e| e.to_outcome()));
                }
            }
        }
    }
}

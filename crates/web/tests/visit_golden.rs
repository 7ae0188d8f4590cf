//! Fixed-seed golden test over the visit core.
//!
//! The hash below was captured before the per-site visit profile
//! existed, so it pins absolute outputs: every branch of the core
//! (detected 403/503 responders, partial and full ad suppression, block
//! pages, spoofing breakage, flaky and unreachable sites) and every
//! injected fault must keep producing the same outcome, error, clock
//! reading and draw sequence. The population uses a detector-dense role
//! mix so the rare branches run hundreds of times, not a handful.

use hlisa_sim::{InjectedFault, SimContext};
use hlisa_web::visit::{simulate_visit_with, DetectorRuntime};
use hlisa_web::{
    generate_population, simulate_visit, simulate_visit_attempt, ClientKind, PopulationConfig,
    Reaction, VisualOutcome, DEFAULT_VISIT_DEADLINE_MS,
};
use rand::Rng;
use std::fmt::Write;

/// FNV-1a over everything written into it, so outcomes hash through
/// their `Debug` output without an intermediate string.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// 2,000 sites with 919 detector sites per 1,000, 38% of them template
/// attacks, every reaction present.
fn detector_dense_population() -> PopulationConfig {
    PopulationConfig {
        seed: 0x601d,
        n_sites: 2_000,
        unreachable_sites: 158,
        webdriver_visible: (228, 92, 182, 46),
        template_visible: (174, 174, 350),
        silent_http: (410, 182),
        breakage_sites: 4,
        ..PopulationConfig::default()
    }
}

const VISITS_PER_SITE: u64 = 4;

/// `None` and every injected fault variant.
const FAULTS: [Option<InjectedFault>; 6] = [
    None,
    Some(InjectedFault::PageLoadTimeout),
    Some(InjectedFault::MidVisitStall { at_fraction: 0.4 }),
    Some(InjectedFault::RealmCrash { at_fraction: 0.7 }),
    Some(InjectedFault::TransientNetwork),
    Some(InjectedFault::PermanentUnreachable),
];

const VISIT_CORE_HASH: u64 = 12_299_338_106_868_688_569;

#[test]
fn visit_core_outputs_are_bit_identical_to_the_pre_profile_capture() {
    let sites = generate_population(&detector_dense_population());
    let runtime = DetectorRuntime::new();
    let machine = SimContext::new(0x601d).fork("m1", 0);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut seen = [false; 4];
    for site in &sites {
        for v in 0..VISITS_PER_SITE {
            for client in [ClientKind::OpenWpm, ClientKind::OpenWpmSpoofed] {
                let mut ctx = machine.fork_visit(&site.domain, v);
                let outcome = simulate_visit(site, client, &runtime, &mut ctx);
                write!(hash, "{outcome:?}").unwrap();
                let mut rng = machine.fork_visit(&site.domain, v);
                let rng_only = simulate_visit_with(site, client, &runtime, rng.stream("visit"));
                assert_eq!(rng_only, outcome, "{}: rng-only path diverged", site.domain);

                let reaction = site.detector.map(|d| d.reaction);
                if outcome.detected {
                    seen[0] |=
                        reaction == Some(Reaction::Http403) && outcome.first_party.contains(&403);
                    seen[1] |=
                        reaction == Some(Reaction::Http503) && outcome.first_party.contains(&503);
                }
                seen[2] |= outcome.visual == VisualOutcome::FewerAds;
                seen[3] |= outcome.visual == VisualOutcome::BlockPage;

                for fault in FAULTS {
                    for deadline_ms in [DEFAULT_VISIT_DEADLINE_MS, 2_500.0] {
                        let mut ctx = machine.fork_visit(&site.domain, v);
                        let result = simulate_visit_attempt(
                            site,
                            client,
                            &runtime,
                            &mut ctx,
                            fault,
                            deadline_ms,
                        );
                        let now_ms = ctx.now_ms();
                        let next_draw: u64 = ctx.stream("visit").gen();
                        write!(hash, "{result:?} {now_ms:?} {next_draw}").unwrap();
                    }
                }
            }
        }
    }
    assert_eq!(
        seen, [true; 4],
        "403, 503, partial-suppression and block-page branches must all run"
    );
    assert_eq!(hash.0, VISIT_CORE_HASH, "visit core outputs drifted");
}

//! The planner gate: the linter's self-check against the repo's own
//! interaction planners.
//!
//! Fig. 3's simulator ladder predicts exactly how the rungs should fare
//! against a static Table 1 linter: stock Selenium and the naive
//! improver trip multiple rules, the HLISA planner trips none. This
//! module drives each planner through the same Appendix-E-shaped task
//! (move, click, type a pangram, scroll a viewport-and-a-half) on the
//! standard test page with a [`ChainLinter`] installed as the session
//! auditor, and returns the resulting report. `hlisa-lint` (and a test
//! below) require the split to hold — a regression in either the linter
//! or a planner flips the gate.
//!
//! This is deliberately not the Fig. 3 ladder's task driver
//! (`hlisa_armsrace::simulators`), which lints the full three Appendix E
//! tasks per rung for the `lintreport` table. The gate is a one-page
//! self-check that runs inside the `hlisa-lint` binary as a CI gate, and
//! `hlisa-lint` cannot depend on `hlisa-armsrace`, which depends on it.

use crate::chain::ChainLinter;
use crate::diag::Report;
use hlisa::chains::HlisaActionChains;
use hlisa::naive::NaiveActionChains;
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_webdriver::{By, SeleniumActionChains, Session};

/// The typing payload: a pangram with a capital (Shift behaviour) and
/// word spacing, like the paper's Appendix E typing task.
pub const GATE_TEXT: &str = "The quick brown fox jumps over the lazy dog";

/// How far the gate task scrolls (px): far enough that a human needs
/// many flicks and a script scroll is an unmistakable teleport.
const GATE_SCROLL_PX: f64 = 3_000.0;

fn audited_session() -> Session {
    let mut s = Session::new(Browser::open(
        BrowserConfig::webdriver(),
        standard_test_page("https://lint.test/", 30_000.0),
    ));
    s.install_auditor(Box::new(ChainLinter::new()));
    s
}

fn elements(
    s: &mut Session,
) -> (
    hlisa_webdriver::ElementHandle,
    hlisa_webdriver::ElementHandle,
    hlisa_webdriver::ElementHandle,
) {
    // The gate page literal in this module defines all three ids; a
    // missing element is a broken fixture, not a recoverable crawl state.
    let jump = s.find_element(By::Id("jump".into())).expect("jump"); // lint: allow(no-panic)
    let submit = s.find_element(By::Id("submit".into())).expect("submit"); // lint: allow(no-panic)
    let text = s
        .find_element(By::Id("text_area".into()))
        .expect("text_area"); // lint: allow(no-panic)
    (jump, submit, text)
}

/// Runs the gate task through stock Selenium `ActionChains` (plus its
/// script-scroll idiom — Selenium has no scrolling API, §4.1).
pub fn selenium_report() -> Report {
    let mut s = audited_session();
    let (jump, submit, text) = elements(&mut s);
    SeleniumActionChains::new()
        .move_to_element(jump)
        .click(Some(submit))
        .send_keys_to_element(text, GATE_TEXT)
        .perform(&mut s)
        // the simulated gate session cannot fail. lint: allow(no-panic)
        .expect("selenium gate task");
    s.scroll_by_script(GATE_SCROLL_PX);
    Report::from_findings(&s.finish_audit())
}

/// Runs the gate task through the naive §4.1 improver.
pub fn naive_report(seed: u64) -> Report {
    let mut s = audited_session();
    let (jump, submit, text) = elements(&mut s);
    NaiveActionChains::new(seed)
        .move_to_element(jump)
        .click(Some(submit))
        .send_keys_to_element(text, GATE_TEXT)
        .scroll_by(GATE_SCROLL_PX)
        .perform(&mut s)
        // the simulated gate session cannot fail. lint: allow(no-panic)
        .expect("naive gate task");
    Report::from_findings(&s.finish_audit())
}

/// Runs the gate task through the HLISA planner.
pub fn hlisa_report(seed: u64) -> Report {
    let mut s = audited_session();
    let (jump, submit, text) = elements(&mut s);
    HlisaActionChains::new(seed)
        .move_to_element(jump)
        .click(Some(submit))
        .send_keys_to_element(text, GATE_TEXT)
        .scroll_by(0.0, GATE_SCROLL_PX)
        .perform(&mut s)
        // the simulated gate session cannot fail. lint: allow(no-panic)
        .expect("hlisa gate task");
    Report::from_findings(&s.finish_audit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selenium_trips_at_least_three_distinct_rules() {
        let r = selenium_report();
        let ids = r.rule_ids();
        assert!(ids.len() >= 3, "only {ids:?}");
        // The signature tells of §4.1 are all present.
        for rule in [
            "sub-min-move",
            "zero-dwell-click",
            "superhuman-typing-cadence",
            "capitals-without-shift",
            "scroll-teleport",
        ] {
            assert!(ids.contains(&rule), "{rule} missing from {ids:?}");
        }
    }

    #[test]
    fn the_naive_improver_still_trips_at_least_three_rules() {
        for seed in [1, 7, 42] {
            let ids = naive_report(seed).rule_ids();
            assert!(ids.len() >= 3, "seed {seed}: only {ids:?}");
            // Fixed limits, wrong distributions (Fig. 1 C / §4.1).
            for rule in [
                "uniform-speed-gesture",
                "metronomic-typing",
                "no-finger-breaks",
            ] {
                assert!(
                    ids.contains(&rule),
                    "seed {seed}: {rule} missing from {ids:?}"
                );
            }
        }
    }

    #[test]
    fn hlisa_chains_lint_clean() {
        for seed in [0, 1, 7, 42, 1337] {
            let r = hlisa_report(seed);
            assert!(r.is_clean(), "seed {seed} flagged:\n{}", r.render_human());
        }
    }
}

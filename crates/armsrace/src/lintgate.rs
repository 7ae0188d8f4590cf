//! Static detectability per simulator rung: the arms-race ladder seen
//! through the `hlisa-lint` chain linter instead of the trace detectors.
//!
//! Each scripted rung drives its three Appendix E tasks through the same
//! driver as [`Simulator::run_session`], but each task's [`Session`]
//! carries a [`ChainLinter`] auditor, so every tell is caught *before*
//! dispatch — the Fig. 3 ladder judged statically, on the very sessions
//! the trace detectors read. Human rungs return `None`: real visitors
//! produce traces, not action programs, so there is nothing for a static
//! linter to read.

use crate::simulators::Simulator;
use hlisa_browser::Browser;
use hlisa_lint::{ChainLinter, Report};
use hlisa_webdriver::Session;

fn audited(browser: Browser) -> Session {
    let mut s = Session::new(browser);
    s.install_auditor(Box::new(ChainLinter::new()));
    s
}

/// Lints one rung's session: the three tasks through an audited session.
/// `None` for the human reference rows.
pub fn lint_simulator(sim: &Simulator, seed: u64) -> Option<Report> {
    let mut report = Report::new();
    sim.run_tasks(seed, audited, |mut s| {
        report.merge(Report::from_findings(&s.finish_audit()));
    })
    .then_some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlisa_human::HumanParams;

    #[test]
    fn the_static_ladder_matches_fig3() {
        let selenium = lint_simulator(&Simulator::Selenium, 11).unwrap();
        assert!(selenium.rule_ids().len() >= 3, "{:?}", selenium.rule_ids());

        let naive = lint_simulator(&Simulator::Naive, 11).unwrap();
        assert!(naive.rule_ids().len() >= 3, "{:?}", naive.rule_ids());

        for sim in [Simulator::Hlisa, Simulator::ConsistentHlisa] {
            let r = lint_simulator(&sim, 11).unwrap();
            assert!(
                r.is_clean(),
                "{} flagged:\n{}",
                sim.label(),
                r.render_human()
            );
        }
    }

    #[test]
    fn human_rungs_have_no_action_program_to_lint() {
        assert!(lint_simulator(&Simulator::Human, 1).is_none());
        let enrolled = HumanParams::individual(1);
        assert!(lint_simulator(&Simulator::EnrolledHuman(enrolled), 1).is_none());
    }
}

//! Static-detectability report: the Fig. 3 simulator ladder judged by
//! the `hlisa-lint` chain linter instead of the runtime detectors.
//!
//! Where Figure 3 measures detection *rates* over recorded traces, this
//! table shows which Table 1 tells are decidable from the interaction
//! program alone — before a single event reaches a page. The split is
//! the same: rules pile up on the lower rungs and vanish at HLISA.

use hlisa_armsrace::tournament::pick_identifiable_individual;
use hlisa_armsrace::{lint_simulator, Simulator};
use hlisa_lint::Report;
use hlisa_stats::ascii::format_table;

/// One ladder rung's static verdict.
#[derive(Debug, Clone)]
pub struct RungLint {
    /// Fig. 3 rung label.
    pub label: &'static str,
    /// The linter's report, or `None` for human reference rows.
    pub report: Option<Report>,
}

/// Lints every scriptable rung (plus the human rows for contrast): the
/// whole Fig. 3 ladder, fitted to the individual the tournament at `seed`
/// enrols.
pub fn run(seed: u64) -> Vec<RungLint> {
    Simulator::ladder(pick_identifiable_individual(seed))
        .iter()
        .map(|sim| RungLint {
            label: sim.label(),
            report: lint_simulator(sim, seed),
        })
        .collect()
}

/// Renders the rung × findings table.
pub fn report(rungs: &[RungLint]) -> String {
    let mut out = String::from(
        "Static detectability by simulator rung (hlisa-lint chain linter).\n\
         Rules fired while replaying the three Appendix E tasks symbolically.\n\n",
    );
    let rows: Vec<Vec<String>> = rungs
        .iter()
        .map(|r| {
            let verdict = match &r.report {
                None => "(no action program: human input)".to_string(),
                Some(rep) if rep.is_clean() => "clean".to_string(),
                Some(rep) => rep.rule_ids().join(", "),
            };
            let count = match &r.report {
                None => "-".to_string(),
                Some(rep) => rep.rule_ids().len().to_string(),
            };
            vec![r.label.to_string(), count, verdict]
        })
        .collect();
    out.push_str(&format_table(&["Simulator", "Rules", "Findings"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_static_split_holds() {
        let rungs = run(5);
        let by_label: Vec<(&str, Option<usize>)> = rungs
            .iter()
            .map(|r| (r.label, r.report.as_ref().map(|rep| rep.rule_ids().len())))
            .collect();
        for (label, rules) in &by_label {
            match *rules {
                Some(n) if label.contains("Selenium") || label.contains("naive") => {
                    assert!(n >= 3, "{label}: {n} rules")
                }
                Some(n) if label.contains("HLISA") => assert_eq!(n, 0, "{label} flagged"),
                Some(_) => {}
                None => assert!(label.contains("Human"), "{label} should be lintable"),
            }
        }
    }

    #[test]
    fn the_table_renders_every_rung() {
        let rungs = run(5);
        let text = report(&rungs);
        for r in &rungs {
            assert!(text.contains(r.label), "missing {}", r.label);
        }
        assert!(text.contains("clean"));
    }
}

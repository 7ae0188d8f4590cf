//! HTTP status-code analysis — Figure 4 / Appendix B.
//!
//! §3.2: "To identify blocking at HTTP level, we look at status codes in
//! HTTP responses. We separated these by first and third-party responses.
//! We further use Wilcoxon Matched-Pairs signed-Rank Test with a confidence
//! interval of 95% to test for significance." The paper finds a significant
//! decrease in first-party errors with the extension (p = 0.004), driven by
//! 403 and 503.
//!
//! Only successful visits count: a failed visit is web dynamics, not
//! detection. The test pairs each site's errors per successful visit on
//! both machines, fair when they completed different numbers of visits.
//! The report is read off a [`FieldTally`], the pass that feeds Table 2.

use crate::campaign::Campaign;
use crate::field::FieldTally;
use hlisa_stats::WilcoxonResult;
use std::collections::BTreeMap;

/// Per-code counts for one traffic class: code → (machine 1, machine 2).
pub type CodeCounts = BTreeMap<u16, (u64, u64)>;

/// The full HTTP report.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpReport {
    /// First-party response counts by status code.
    pub first_party: CodeCounts,
    /// Third-party response counts by status code.
    pub third_party: CodeCounts,
    /// Wilcoxon matched-pairs test on per-site first-party error rates,
    /// errors per successful visit (machine 1 vs machine 2). `None` when
    /// every pair ties.
    pub wilcoxon_first_party: Option<WilcoxonResult>,
    /// Same for third-party errors.
    pub wilcoxon_third_party: Option<WilcoxonResult>,
}

impl HttpReport {
    /// Codes with more than `min` total occurrences (Fig. 4 charts codes
    /// "with more than 100 occurrences"), restricted to errors when
    /// `errors_only`.
    pub fn frequent_codes(&self, counts: &CodeCounts, min: u64, errors_only: bool) -> Vec<u16> {
        counts
            .iter()
            .filter(|(code, (a, b))| a + b > min && (!errors_only || **code >= 400))
            .map(|(code, _)| *code)
            .collect()
    }
}

/// Builds the HTTP report from a campaign.
pub fn analyze_http(campaign: &Campaign) -> HttpReport {
    FieldTally::of(campaign).http()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use hlisa_web::PopulationConfig;

    fn campaign() -> Campaign {
        run_campaign(&CampaignConfig {
            seed: 5,
            population: PopulationConfig {
                n_sites: 200,
                unreachable_sites: 15,
                ..PopulationConfig::default()
            },
            visits_per_site: 8,
            instances: 8,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn first_party_errors_drop_significantly_with_spoofing() {
        let r = analyze_http(&campaign());
        let w = r.wilcoxon_first_party.expect("differences exist");
        assert!(w.significant_at(0.05), "p = {}", w.p_value);
        // Direction: machine 1 (OpenWPM) has more errors.
        let err1: u64 = r
            .first_party
            .iter()
            .filter(|(c, _)| **c >= 400)
            .map(|(_, (a, _))| *a)
            .sum();
        let err2: u64 = r
            .first_party
            .iter()
            .filter(|(c, _)| **c >= 400)
            .map(|(_, (_, b))| *b)
            .sum();
        assert!(err1 > err2, "errors {err1} vs {err2}");
    }

    #[test]
    fn decrease_is_driven_by_403_and_503() {
        let r = analyze_http(&campaign());
        let (a403, b403) = r.first_party.get(&403).copied().unwrap_or((0, 0));
        let (a503, b503) = r.first_party.get(&503).copied().unwrap_or((0, 0));
        assert!(a403 > b403 * 2, "403: {a403} vs {b403}");
        assert!(a503 > b503 * 2, "503: {a503} vs {b503}");
    }

    #[test]
    fn third_party_shows_no_notable_difference() {
        let r = analyze_http(&campaign());
        if let Some(w) = r.wilcoxon_third_party {
            // Paper: "only a notable difference in first-party errors".
            // (Ad hiding removes *successful* third-party traffic, so
            // error counts stay comparable.)
            assert!(w.p_value > 0.01, "p = {}", w.p_value);
        }
    }

    #[test]
    fn frequent_code_filter_works() {
        let r = analyze_http(&campaign());
        let freq = r.frequent_codes(&r.first_party, 100, false);
        assert!(freq.contains(&200));
        let errors = r.frequent_codes(&r.first_party, 100, true);
        assert!(errors.iter().all(|c| *c >= 400));
        assert!(errors.contains(&404), "{errors:?}");
    }
}

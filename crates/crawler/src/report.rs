//! Campaign results as CSV and as the paper's terminal tables.
//!
//! OpenWPM studies end in dataframes; this module renders the campaign's
//! three analysis surfaces — per-visit outcomes, the Table 2 aggregation,
//! and the Figure 4 status-code counts — as RFC-4180-style CSV strings a
//! downstream analysis (pandas, R) can ingest directly.
//! [`table2_report`] and [`figure4_report`] render a [`Table2`] and an
//! [`HttpReport`] as the `table2` and `figure4` regenerators print them.

use crate::campaign::Campaign;
use crate::http_analysis::{analyze_http, HttpReport};
use crate::screenshot::{screenshot_table, Table2, Table2Row};
use hlisa_stats::ascii::{bar_chart, format_table};
use hlisa_stats::WilcoxonResult;
use hlisa_web::{ClientKind, VisualOutcome};
use std::iter::once;

/// Escapes one CSV field.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn client_name(c: ClientKind) -> &'static str {
    match c {
        ClientKind::OpenWpm => "openwpm",
        ClientKind::OpenWpmSpoofed => "openwpm_spoofed",
    }
}

fn visual_name(v: VisualOutcome) -> &'static str {
    match v {
        VisualOutcome::Normal => "normal",
        VisualOutcome::BlockPage => "block_page",
        VisualOutcome::Captcha => "captcha",
        VisualOutcome::NoAds => "no_ads",
        VisualOutcome::FewerAds => "fewer_ads",
        VisualOutcome::FrozenVideo => "frozen_video",
        VisualOutcome::DeformedLayout => "deformed_layout",
        VisualOutcome::Unreachable => "unreachable",
        VisualOutcome::TransientError => "transient_error",
        VisualOutcome::Timeout => "timeout",
        VisualOutcome::Stalled => "stalled",
        VisualOutcome::Crashed => "crashed",
        VisualOutcome::StuckOnOverlay => "stuck_on_overlay",
        VisualOutcome::MissingLazyContent => "missing_lazy_content",
        VisualOutcome::StaleElement => "stale_element",
    }
}

/// One row per visit: machine, domain, rank, visit index, outcome flags,
/// and per-visit HTTP error counts.
pub fn visits_csv(campaign: &Campaign) -> String {
    let mut out = String::from(
        "machine,domain,rank,visit,reached,successful,visual,detected,\
         fp_requests,fp_errors,tp_requests,tp_errors\n",
    );
    for run in [&campaign.openwpm, &campaign.spoofed] {
        for site in &run.sites {
            for (i, o) in site.outcomes.iter().enumerate() {
                let fp_err = o.first_party.iter().filter(|c| **c >= 400).count();
                let tp_err = o.third_party.iter().filter(|c| **c >= 400).count();
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    client_name(run.client),
                    field(&site.domain),
                    site.rank,
                    i,
                    o.reached,
                    o.successful,
                    visual_name(o.visual),
                    o.detected,
                    o.first_party.len(),
                    fp_err,
                    o.third_party.len(),
                    tp_err,
                ));
            }
        }
    }
    out
}

/// Table 2 as CSV.
pub fn table2_csv(campaign: &Campaign) -> String {
    let t = screenshot_table(campaign);
    let mut out =
        String::from("response,sites_openwpm,sites_spoofed,visits_openwpm,visits_spoofed\n");
    for r in &t.rows {
        out.push_str(&format!("{},{}\n", field(&r.label), counts(r).join(",")));
    }
    out
}

/// A Table 2 row's four counts: sites, then visits, each per machine.
fn counts(r: &Table2Row) -> [String; 4] {
    [r.sites.0, r.sites.1, r.visits.0, r.visits.1].map(|n| n.to_string())
}

/// Figure 4 series as CSV: one row per (traffic class, status code).
pub fn status_codes_csv(campaign: &Campaign) -> String {
    let r = analyze_http(campaign);
    let mut out = String::from("party,status,openwpm,spoofed\n");
    for (name, counts) in [("first", &r.first_party), ("third", &r.third_party)] {
        for (code, (a, b)) in counts {
            out.push_str(&format!("{name},{code},{a},{b}\n"));
        }
    }
    out
}

/// Table 2 as in the paper, with the share of reached sites that show
/// visible signs of bot detection.
pub fn table2_report(t: &Table2) -> String {
    let header = [
        "Response",
        "sites (1)",
        "sites (2)",
        "visits (1)",
        "visits (2)",
    ];
    let row = |r: &Table2Row| once(r.label.clone()).chain(counts(r)).collect();
    let rows: Vec<Vec<String>> = t.rows.iter().map(row).collect();
    let mut out = format!(
        "Table 2: Results from the screenshot evaluation.\n\n{}\n(1) = OpenWPM   (2) = OpenWPM+extension\n",
        format_table(&header, &rows)
    );
    if let (Some(total), Some(block)) = (t.row("total"), t.row("blocking/CAPTCHAs")) {
        // Every row but the total and the two ad subtotals.
        let shown = |r: &&Table2Row| r.label != "total" && !r.label.starts_with('-');
        let visible: usize = t.rows.iter().filter(shown).map(|r| r.sites.0).sum();
        let share = 100.0 * visible as f64 / total.sites.0.max(1) as f64;
        out.push_str(&format!(
            "\nVisible signs of bot detection affect {visible} of {} reached sites ({share:.1}%) for OpenWPM;\n\
             blocking persists on {} site(s) with the extension.\n",
            total.sites.0, block.sites.1,
        ));
    }
    out
}

/// Figure 4 (error codes with more than 100 occurrences, charted per
/// party, and the Wilcoxon tests) as a terminal report.
pub fn figure4_report(r: &HttpReport) -> String {
    let mut out = String::from("Figure 4: HTTP (error) responses listed by status code with more than 100 occurrences.\n\n");
    for (name, counts) in [("First", &r.first_party), ("Third", &r.third_party)] {
        let mut bars = Vec::new();
        for code in r.frequent_codes(counts, 100, true) {
            let (a, b) = counts[&code];
            for (machine, n) in [("OpenWPM    ", a), ("+extension ", b)] {
                bars.push((format!("{code} {machine}"), n));
            }
        }
        let chart = bar_chart(&bars, 50);
        out.push_str(&format!("{name}-party responses (errors only):\n{chart}\n"));
    }
    let verdict = |w: &WilcoxonResult, yes, no| if w.significant_at(0.05) { yes } else { no };
    if let Some(w) = &r.wilcoxon_first_party {
        out.push_str(&format!(
            "Wilcoxon matched-pairs signed-rank on per-site first-party errors: W = {}, n = {}, p = {:.4} ({})\n",
            w.w, w.n_used, w.p_value, verdict(w, "significant decrease", "not significant"),
        ));
    }
    if let Some(w) = &r.wilcoxon_third_party {
        let p = w.p_value;
        let verdict = verdict(w, "significant", "no notable difference");
        out.push_str(&format!("Third-party errors: p = {p:.3} ({verdict})\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use hlisa_web::PopulationConfig;

    fn campaign() -> Campaign {
        run_campaign(&CampaignConfig {
            seed: 12,
            population: PopulationConfig {
                n_sites: 40,
                unreachable_sites: 3,
                ..PopulationConfig::default()
            },
            visits_per_site: 3,
            instances: 4,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn visits_csv_has_one_row_per_visit_plus_header() {
        let c = campaign();
        let csv = visits_csv(&c);
        let rows = csv.lines().count();
        assert_eq!(rows, 1 + 2 * 40 * 3);
        assert!(csv.starts_with("machine,domain"));
        assert!(csv.contains("openwpm_spoofed"));
    }

    #[test]
    fn csv_fields_are_consistent_width() {
        let csv = visits_csv(&campaign());
        let cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
    }

    #[test]
    fn table2_csv_round_trips_labels() {
        let csv = table2_csv(&campaign());
        assert!(csv.contains("blocking/CAPTCHAs"));
        assert!(csv.contains("stuck on consent overlay"));
        assert_eq!(csv.lines().count(), 10);
    }

    #[test]
    fn status_codes_csv_covers_both_parties() {
        let csv = status_codes_csv(&campaign());
        assert!(csv.lines().any(|l| l.starts_with("first,200")));
        assert!(csv.lines().any(|l| l.starts_with("third,200")));
    }

    #[test]
    fn field_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }
}

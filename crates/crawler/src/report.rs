//! CSV exports of campaign results.
//!
//! OpenWPM studies end in dataframes; this module renders the campaign's
//! three analysis surfaces — per-visit outcomes, the Table 2 aggregation,
//! and the Figure 4 status-code counts — as RFC-4180-style CSV strings a
//! downstream analysis (pandas, R) can ingest directly.

use crate::campaign::Campaign;
use crate::http_analysis::analyze_http;
use crate::screenshot::screenshot_table;
use hlisa_web::{ClientKind, VisualOutcome};

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
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            field(&r.label),
            r.sites.0,
            r.sites.1,
            r.visits.0,
            r.visits.1
        ));
    }
    out
}

/// Chaos-campaign recovery telemetry as CSV: one row per (machine, site)
/// with attempt/fault/breaker columns, followed by the merged counter
/// family as `counter,<name>,<value>,` rows (same column count so the
/// file stays rectangular).
pub fn recovery_csv(chaos: &crate::chaos::ChaosCampaign) -> String {
    let mut out = String::from("machine,domain,visits,attempts,faults,backoff_ms,breaker_open\n");
    for rec in [&chaos.openwpm_recovery, &chaos.spoofed_recovery] {
        for site in &rec.sites {
            let faults: usize = site.visits.iter().map(|v| v.faults.len()).sum();
            let backoff: f64 = site.visits.iter().map(|v| v.backoff_ms).sum();
            out.push_str(&format!(
                "{},{},{},{},{},{:.0},{}\n",
                client_name(rec.client),
                field(&site.domain),
                site.visits.len(),
                site.total_attempts(),
                faults,
                backoff,
                site.breaker_open,
            ));
        }
    }
    for (name, value) in chaos.counters().entries() {
        out.push_str(&format!("counter,{},{},,,,\n", field(name), value));
    }
    out
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

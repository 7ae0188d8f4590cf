//! The field-study fold: Table 2 and Figure 4 from one pass over both
//! machines' site rows. Both read per-site state of both machines (a
//! site's outcome rows; Figure 4's Wilcoxon test pairs its error rates).
//! Shard tallies [`merge`](FieldTally::merge) in shard order, so
//! [`FieldTally::of_shard`] is a [`run`] fold over a paired shard, and
//! [`FieldTally::crawl`] tallies a campaign without keeping a row.

use crate::campaign::{
    run, Campaign, CampaignConfig, MachineShard, Pipeline, SiteResult, SiteSource, MACHINES,
};
use crate::http_analysis::{CodeCounts, HttpReport};
use crate::screenshot::{Table2, Table2Row, ROWS};
use hlisa_stats::wilcoxon::{wilcoxon_signed_rank, Alternative};
use hlisa_web::PopulationShards;
use std::iter::once;

/// One machine's share of a [`FieldTally`].
#[derive(Debug, Clone, Default, PartialEq)]
struct MachineTally {
    /// Table 2's (sites, visits) per row: "total" (sites any visit
    /// reached, successful visits), then each [`ROWS`] entry.
    rows: [(usize, usize); ROWS.len() + 1],
    /// First- then third-party responses, indexed by status code.
    codes: [Vec<u64>; 2],
    /// First- then third-party errors per successful visit, per site.
    error_rates: [Vec<f64>; 2],
}

/// Adds `n` responses with status `code` to a code-indexed table.
fn add_code(codes: &mut Vec<u64>, code: usize, n: u64) {
    if codes.len() <= code {
        codes.resize(code + 1, 0);
    }
    codes[code] += n;
}

fn add_rows(rows: &mut [(usize, usize)], more: impl IntoIterator<Item = (usize, usize)>) {
    for (row, (sites, visits)) in rows.iter_mut().zip(more) {
        *row = (row.0 + sites, row.1 + visits);
    }
}

impl MachineTally {
    fn add_site(&mut self, site: &SiteResult) {
        let (mut ok, mut hits, mut errors) = (0, [0; ROWS.len()], [0; 2]);
        for o in site.outcomes.iter().filter(|o| o.successful) {
            ok += 1;
            for (hit, (_, outcomes)) in hits.iter_mut().zip(ROWS) {
                *hit += usize::from(outcomes.contains(&o.visual));
            }
            let parties: [&[u16]; 2] = [&o.first_party, &o.third_party];
            for ((codes, errors), party) in self.codes.iter_mut().zip(&mut errors).zip(parties) {
                for &code in party {
                    add_code(codes, usize::from(code), 1);
                    *errors += usize::from(code >= 400);
                }
            }
        }
        let total = (usize::from(site.reached()), ok);
        let hits = hits.map(|hit| (usize::from(hit > 0), hit));
        add_rows(&mut self.rows, once(total).chain(hits));
        // A site with no successful visit has no errors: its rate is 0.
        for (rates, errors) in self.error_rates.iter_mut().zip(errors) {
            rates.push(errors as f64 / ok.max(1) as f64);
        }
    }
}

/// Both machines' Table 2 and Figure 4 tallies over a run of sites, in
/// [`MACHINES`] order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FieldTally([MachineTally; 2]);

impl FieldTally {
    /// Tallies each machine's rows of the same sites, in site order.
    fn of_sites(sites: [&[SiteResult]; 2]) -> Self {
        Self(sites.map(|sites| {
            let mut tally = MachineTally::default();
            sites.iter().for_each(|site| tally.add_site(site));
            tally
        }))
    }

    /// Tallies a whole campaign.
    pub fn of(campaign: &Campaign) -> Self {
        Self::of_sites([&campaign.openwpm.sites, &campaign.spoofed.sites])
    }

    /// A [`run`] fold over [`MACHINES`]: tallies each machine's first
    /// record of shard `_k`.
    pub fn of_shard(_k: usize, [a, b]: [MachineShard; 2]) -> Self {
        Self::of_sites([&a.records[0], &b.records[0]])
    }

    /// Appends the tally of the sites that follow this one's.
    pub fn merge(&mut self, later: FieldTally) {
        for (m, later) in self.0.iter_mut().zip(later.0) {
            add_rows(&mut m.rows, later.rows);
            for (codes, later) in m.codes.iter_mut().zip(later.codes) {
                for (code, n) in later.into_iter().enumerate() {
                    add_code(codes, code, n);
                }
            }
            for (rates, later) in m.error_rates.iter_mut().zip(later.error_rates) {
                rates.extend(later);
            }
        }
    }

    /// Crawls `config`'s population with both [`MACHINES`] over the lazy
    /// shard layer, tallying each shard in the worker that crawled it.
    pub fn crawl(config: &CampaignConfig) -> Self {
        let shards = PopulationShards::new(&config.population);
        let source = SiteSource::Lazy(&shards);
        let pipeline = Pipeline::default();
        let out = run(config, &source, MACHINES, &pipeline, &Self::of_shard);
        let mut tally = Self::default();
        out.shards.into_iter().for_each(|shard| tally.merge(shard));
        tally
    }

    /// Table 2: the "total" row, then one row per [`ROWS`] entry.
    pub fn table2(&self) -> Table2 {
        let labels = once("total").chain(ROWS.iter().map(|(label, _)| *label));
        let cells = labels.zip(self.0[0].rows).zip(self.0[1].rows);
        let rows = cells.map(|((label, (s1, v1)), (s2, v2))| Table2Row {
            label: label.to_string(),
            sites: (s1, s2),
            visits: (v1, v2),
        });
        let rows = rows.collect();
        Table2 { rows }
    }

    /// Figure 4: status-code counts per party and the matched-pairs tests.
    pub fn http(&self) -> HttpReport {
        let [a, b] = &self.0;
        let counts = |party: usize| -> CodeCounts {
            let count = |codes: &[u64], code: usize| codes.get(code).copied().unwrap_or(0);
            let (x, y) = (&a.codes[party], &b.codes[party]);
            let all = (0..x.len().max(y.len())).map(|c| (c as u16, (count(x, c), count(y, c))));
            all.filter(|(_, (n1, n2))| n1 + n2 > 0).collect()
        };
        let test = |party: usize| {
            let (x, y) = (&a.error_rates[party], &b.error_rates[party]);
            wilcoxon_signed_rank(x, y, Alternative::TwoSided)
        };
        HttpReport {
            first_party: counts(0),
            third_party: counts(1),
            wilcoxon_first_party: test(0),
            wilcoxon_third_party: test(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::report::{figure4_report, table2_report};
    use hlisa_web::{PopulationConfig, ScenarioMix};

    fn config(seed: u64, n_sites: usize, scenarios: ScenarioMix) -> CampaignConfig {
        CampaignConfig {
            seed,
            population: PopulationConfig {
                n_sites,
                unreachable_sites: n_sites * 79 / 1_000,
                scenarios,
                ..PopulationConfig::default()
            },
            ..CampaignConfig::default()
        }
    }

    /// The tally folded shard by shard over the lazy layer equals the
    /// tally of the whole campaign, for any shard size and worker count.
    #[test]
    fn shard_fold_equals_whole_campaign_tally() {
        let mix = ScenarioMix {
            cookie_banner: 2,
            lazy_content: 2,
            spa_mutation: 2,
        };
        for config in [config(7, 60, ScenarioMix::default()), config(8, 60, mix)] {
            let whole = FieldTally::of(&run_campaign(&config));
            assert_eq!(FieldTally::crawl(&config), whole);
            for shard_size in [1, 7, 256] {
                for instances in [1, 3] {
                    let config = CampaignConfig {
                        instances,
                        ..config.clone()
                    };
                    let shards = PopulationShards::with_shard_size(&config.population, shard_size);
                    let source = SiteSource::Lazy(&shards);
                    let pipeline = Pipeline::default();
                    let out = run(&config, &source, MACHINES, &pipeline, &FieldTally::of_shard);
                    let mut folded = FieldTally::default();
                    out.shards.into_iter().for_each(|s| folded.merge(s));
                    assert_eq!(
                        folded, whole,
                        "shard size {shard_size}, {instances} workers"
                    );
                }
            }
        }
        // The scenario population fills the three scenario rows.
        let t = FieldTally::crawl(&config(8, 60, mix)).table2();
        for (label, _) in &ROWS[5..] {
            assert!(t.row(label).unwrap().sites.0 > 0, "{label} is empty");
        }
    }

    #[test]
    fn small_campaign_shows_paper_shape() {
        let tally = FieldTally::crawl(&config(11, 250, ScenarioMix::default()));
        let t = tally.table2();
        let block = t.row("blocking/CAPTCHAs").unwrap();
        assert!(block.sites.0 > block.sites.1);
        let report = table2_report(&t);
        assert!(report.contains("OpenWPM+extension"));
        let fig4 = figure4_report(&tally.http());
        assert!(fig4.contains("Wilcoxon"));
    }

    #[test]
    fn reports_are_deterministic() {
        let report = || {
            let tally = FieldTally::crawl(&config(3, 120, ScenarioMix::default()));
            table2_report(&tally.table2())
        };
        assert_eq!(report(), report());
    }
}

//! OpenWPM-style crawl harness for the §3.2 field evaluation.
//!
//! The paper runs two machines simultaneously — stock OpenWPM and
//! OpenWPM+extension — each with 8 parallel browser instances over the same
//! 1,000-site sample, then compares screenshots (Table 2) and HTTP status
//! codes (Figure 4 / Appendix B, with a Wilcoxon matched-pairs signed-rank
//! test on first-party errors).
//!
//! [`campaign`] reproduces the harness: one engine entry, [`run`] (real
//! parallelism across shard-claiming worker threads, deterministic
//! per-visit seeding so results are schedule-independent), runs one
//! visit pipeline — fork, attempt, scenario drive, planner, capture —
//! whose optional stages are picked by a [`Pipeline`]. One shard claim
//! runs every listed machine and hands their crawls of the shard
//! ([`MachineShard`]s) to the caller's fold inside the worker; the
//! claimed shard is what a panic degrades, and [`CrawlOutput`] lists the
//! degraded shards. Every runner is [`run`] plus output shaping:
//! [`run_campaign`], [`run_chaos_campaign`] (fault stage, [`chaos`] +
//! [`recovery`]), [`run_captured_campaign`] and [`run_reliability_study`]
//! (capture stage, [`reliability`]) keep every shard of both machines;
//! [`run_machine_shard_summaries`] folds each of one machine's shards
//! into a summary, which a fold may also journal to a
//! [`ShardSummarySink`].
//! [`screenshot`] is Table 2 and [`http_analysis`] Figure 4 with its
//! significance test; both are read off a [`FieldTally`] ([`field`]),
//! one pass over the two machines' site rows, which is also a [`run`]
//! fold: [`FieldTally::crawl`] tallies a campaign shard by shard without
//! keeping its rows. [`report`] renders both as CSV and as the paper's
//! terminal tables.

pub mod campaign;
pub mod chaos;
pub mod field;
pub mod http_analysis;
pub mod recovery;
pub mod reliability;
pub mod report;
pub mod scenario;
pub mod screenshot;
pub mod sink;

pub use campaign::{
    run, run_campaign, run_machine_shard_summaries, Campaign, CampaignConfig, CrawlOutput,
    MachineRun, MachineShard, MachineTelemetry, Pipeline, SiteResult, SiteSource, MACHINES,
};
pub use chaos::{run_chaos_campaign, ChaosCampaign, ChaosConfig, MachineRecovery, SiteRecovery};
pub use field::FieldTally;
pub use http_analysis::{analyze_http, HttpReport};
pub use recovery::{BreakerConfig, CircuitBreaker, RetryPolicy, VisitRecovery};
pub use reliability::{
    drift_report, run_captured_campaign, run_reliability_study, CaptureMode, CapturedCampaign,
    DriftReport, MetricDrift, ReliabilityStudy,
};
pub use report::{
    figure4_report, recovery_csv, status_codes_csv, table2_csv, table2_report, visits_csv,
};
pub use scenario::ScenarioScratch;
pub use screenshot::{screenshot_table, Table2, Table2Row};
pub use sink::{ShardRecord, ShardSummarySink};

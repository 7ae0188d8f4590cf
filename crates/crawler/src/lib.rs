//! OpenWPM-style crawl harness for the §3.2 field evaluation.
//!
//! The paper runs two machines simultaneously — stock OpenWPM and
//! OpenWPM+extension — each with 8 parallel browser instances over the same
//! 1,000-site sample, then compares screenshots (Table 2) and HTTP status
//! codes (Figure 4 / Appendix B, with a Wilcoxon matched-pairs signed-rank
//! test on first-party errors).
//!
//! [`campaign`] reproduces the harness: one engine (real parallelism
//! across shard-claiming worker threads, deterministic per-visit seeding
//! so results are schedule-independent) runs one visit pipeline — fork,
//! attempt, scenario drive, planner, capture — whose optional stages are
//! picked by a [`Pipeline`]. One shard claim runs every machine, and the
//! claimed shard is what a panic degrades. [`run_campaign`],
//! [`run_chaos_campaign`] (fault stage, [`chaos`] + [`recovery`]),
//! [`run_captured_campaign`] and [`run_reliability_study`] (capture stage,
//! [`reliability`]) are each one two-machine pass; [`run_machine`] and the
//! shard-summary runners are one-machine passes.
//! [`screenshot`] is the Table 2 aggregation and [`http_analysis`] the
//! Figure 4 aggregation and significance test.

pub mod campaign;
pub mod chaos;
pub mod http_analysis;
pub mod recovery;
pub mod reliability;
pub mod report;
pub mod scenario;
pub mod screenshot;
pub mod sink;

pub use campaign::{
    run_campaign, run_machine, run_machine_shard_summaries, run_machine_shard_summaries_persistent,
    Campaign, CampaignConfig, MachineOutput, MachineRun, Pipeline, SiteResult, SiteSource,
};
pub use chaos::{run_chaos_campaign, ChaosCampaign, ChaosConfig, MachineRecovery, SiteRecovery};
pub use http_analysis::{analyze_http, HttpReport};
pub use recovery::{BreakerConfig, CircuitBreaker, RetryPolicy, VisitRecovery};
pub use reliability::{
    drift_report, run_captured_campaign, run_reliability_study, CaptureMode, CapturedCampaign,
    DriftReport, MetricDrift, ReliabilityStudy,
};
pub use report::{recovery_csv, status_codes_csv, table2_csv, visits_csv};
pub use scenario::ScenarioScratch;
pub use screenshot::{screenshot_table, Table2, Table2Row};
pub use sink::{ShardRecord, ShardSummarySink};

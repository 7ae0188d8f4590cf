//! Experiment harness: one regenerator per table and figure of the paper,
//! and the bench suites behind the committed `BENCH_*.json` files.
//!
//! Each `pub fn` returns a structured result *and* a formatted report; the
//! thin binaries in `src/bin/` print the reports. Mapping:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (spoofing side effects) | [`table1`] | `table1` |
//! | Table 2 (screenshot evaluation) | [`hlisa_crawler::field`], [`hlisa_crawler::report`] | `table2` |
//! | Figure 4 / Appendix B (HTTP errors) | [`hlisa_crawler::field`], [`hlisa_crawler::report`] | `figure4` |
//! | Figure 1 (cursor trajectories) | [`figures`] | `figure1` |
//! | Figure 2 (click distributions) | [`figures`] | `figure2` |
//! | Figure 3 (arms race) | [`hlisa_armsrace::tournament`] | `figure3` |
//! | Table 3 (the HLISA API) | [`table3`] | `table3` |
//! | Table 4 / Appendix G (tool comparison) | [`table4`] | `table4` |
//! | Appendix C/D (events & granularity) | [`appendix_d`] | `appendix_d` |
//! | Design-choice ablations | [`ablations`] | `ablations` |
//! | Detectability lint report | [`lintreport`] | `lintreport` |
//!
//! The bench suites all run through the one `bench` binary
//! (`bench <suite> [--smoke] [--out PATH]`, default out
//! `BENCH_<suite>.json`) and write the one file format of [`harness`];
//! `bench guard FILE[:skip,...]...` is the perf-regression guard.
//!
//! | Suite | Module | What it pins |
//! |---|---|---|
//! | `campaign` | [`campaign_bench`] | snapshot stamp vs world build, shapes vs `LinearObject`, world cache vs rebuild |
//! | `interaction` | [`interaction_bench`] | banded vs linear hit test, stroke kernel vs reference, batch planner, pointer injection |
//! | `web` | [`web_bench`] | page generation rate, layered hit test, batched DOM mutation |
//! | `lint` | [`lint_bench`] | AST parse and rule-pass rates over the workspace |
//! | `parallel` | [`parallel_bench`] | worker-count sweep, lazy shard set-up, planner cost |
//! | `reliability` | [`reliability_bench`] | drift-vs-loss-rate curve (facts); `partial_capture` (lane-batched loss hash vs scalar `blame`) |

pub mod ablations;
pub mod appendix_d;
pub mod campaign_bench;
pub mod figures;
pub mod harness;
pub mod interaction_bench;
pub mod lint_bench;
pub mod lintreport;
pub mod parallel_bench;
pub mod reliability_bench;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod web_bench;

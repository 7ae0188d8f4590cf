//! Statistical substrate for the HLISA reproduction.
//!
//! The paper's evaluation relies on a handful of statistical tools that are
//! usually imported from SciPy or R: matched-pairs Wilcoxon signed-rank tests
//! (§3.2), normal/truncated-normal noise models for HLISA's interaction
//! parameters (§4.1), and descriptive statistics over recorded interaction
//! traces (Appendix E). This crate implements them from scratch on top of
//! [`rand`], keeping the rest of the workspace free of numerics code.
//!
//! Modules:
//! * [`dist`] — sampling distributions (normal, truncated normal, log-normal).
//! * [`descriptive`] — summary statistics over slices.
//! * [`wilcoxon`] — Wilcoxon matched-pairs signed-rank test.
//! * [`ks`] — two-sample Kolmogorov–Smirnov test.
//! * [`hist`] — the 2-D histogram behind Fig. 2's click densities.
//! * [`ascii`] — terminal renderings used by the figure regenerators.
//! * [`rngutil`] — deterministic seeding helpers shared by all experiments.

pub mod ascii;
pub mod descriptive;
pub mod dist;
pub mod hist;
pub mod ks;
pub mod rngutil;
pub mod wilcoxon;

pub use descriptive::Summary;
pub use dist::{LogNormal, Normal, TruncatedNormal};
pub use ks::KsResult;
pub use wilcoxon::WilcoxonResult;

//! Lint-throughput benchmark: how fast the AST-grade determinism
//! analysis covers the workspace.
//!
//! Two sections, each in covered lines per second, emitted as
//! `BENCH_lint.json`:
//!
//! 1. **Parse** — lexing, tree building, recursive-descent parsing and
//!    the test mask ([`hlisa_lint::AstAnalysis`] construction) over every
//!    file a `hlisa-lint` run parses: the linted files and the
//!    reader-only trees (`examples/`, `bench_e2e/src/`).
//! 2. **Analyze** — every rule pass over pre-built analyses: the
//!    per-file passes ([`hlisa_lint::analyze_file`], with each file's
//!    real exemptions and pass configuration) and the workspace-wide
//!    `unread-pub-item` pass ([`hlisa_lint::surface::Surface`]), so the
//!    split shows where a `hlisa-lint` run spends its time
//!    (`analyze_share`).

use crate::harness::{measure, Report};
use hlisa_lint::surface::Surface;
use hlisa_lint::{
    analyze_file, exemptions_for, find_workspace_root, reader_files, workspace_files, AstAnalysis,
    Exemptions, RulePasses,
};
use std::hint::black_box;
use std::path::Path;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Full workspace sweeps per timed run.
    pub iters: u32,
}

impl BenchConfig {
    /// The default run: big enough for stable rates.
    pub fn full() -> Self {
        Self { iters: 8 }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self { iters: 1 }
    }
}

/// One loaded workspace file; `passes` is `None` for a reader-only file.
struct Loaded {
    rel: String,
    text: String,
    exempt: Exemptions,
    passes: Option<RulePasses>,
}

fn load_workspace(root: &Path) -> Vec<Loaded> {
    let linted = workspace_files(root)
        .expect("walk workspace")
        .into_iter()
        .map(|(rel, path, passes)| (rel, path, Some(passes)));
    let read = reader_files(root)
        .expect("walk reader trees")
        .into_iter()
        .map(|(rel, path)| (rel, path, None));
    linted
        .chain(read)
        .map(|(rel, path, passes)| {
            let text = std::fs::read_to_string(&path).expect("read source");
            let exempt = exemptions_for(&rel);
            Loaded {
                rel,
                text,
                exempt,
                passes,
            }
        })
        .collect()
}

/// Runs the benchmark against the enclosing workspace.
pub fn run(config: BenchConfig) -> Report {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench must run inside the workspace");
    let files = load_workspace(&root);
    let lines = files
        .iter()
        .map(|f| f.text.lines().count() as u64)
        .sum::<u64>();
    let ops = lines * u64::from(config.iters);

    // Parse: AstAnalysis construction only.
    let (parse, analyses) = measure("parse", "lines", ops, || {
        let mut last = Vec::new();
        for _ in 0..config.iters {
            last = files
                .iter()
                .map(|f| black_box(AstAnalysis::of(&f.text)))
                .collect();
        }
        last
    });

    // Analyze: every rule pass over the pre-built analyses.
    let (analyze, findings) = measure("analyze", "lines", ops, || {
        let mut n = 0usize;
        for _ in 0..config.iters {
            let mut surface = Surface::default();
            n = 0;
            for (f, a) in files.iter().zip(&analyses) {
                if let Some(passes) = f.passes {
                    n += black_box(analyze_file(&f.rel, a, f.exempt, passes)).len();
                }
                surface.add(&f.rel, &f.text, a);
            }
            n += black_box(surface.finish()).len();
        }
        n
    });

    let ast_s = parse.time.median_s + analyze.time.median_s;
    let mut report = Report::new(
        "hlisa-lint AST analysis over the workspace",
        vec![("iters", u64::from(config.iters))],
    );
    report.fact("files", files.len() as f64);
    report.fact("lines", lines as f64);
    // The post-suppression diagnostic count per sweep: a sanity anchor
    // that the timed work is the real analysis.
    report.fact("findings", findings as f64);
    // Fraction of the AST pass spent past the parser.
    report.fact("analyze_share", analyze.time.median_s / ast_s.max(1e-12));
    report.sections = vec![parse, analyze];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let report = run(BenchConfig { iters: 1 });
        let files = report.get_fact("files").unwrap();
        let lines = report.get_fact("lines").unwrap();
        assert!(files > 100.0, "{files} files");
        assert!(lines > 10_000.0, "{lines} lines");
        // The workspace gate holds, so a sweep with the real exemptions
        // finds nothing.
        assert_eq!(report.get_fact("findings"), Some(0.0));
        for name in ["parse", "analyze"] {
            assert!(report.section(name).is_some(), "missing {name}");
        }
        assert!(report.render_human().contains("hlisa-lint"));
    }
}

//! Runs one bench suite and writes its `BENCH_<suite>.json`, or checks
//! fresh smoke runs against the committed baselines.
//!
//! Usage:
//!
//! ```text
//! bench <suite> [--smoke] [--out PATH]
//! bench guard FILE[:skip,...]...
//! ```
//!
//! `<suite>` is one of `campaign`, `interaction`, `web`, `lint`,
//! `parallel`, `reliability`. `--smoke` uses the seconds-scale CI sizing;
//! the default sizing matches the numbers committed at the repository
//! root.
//!
//! `guard` compares each fresh `BENCH_x.smoke.json` with the committed
//! `BENCH_x.json` and fails on a speedup drop over 30% (both sides
//! clamped at 30×) or a missing fresh file or section. A file with no
//! committed baseline is skipped. Sections whose speedup only reaches
//! its full-run value at full-run sizes are exempted by name after the
//! colon, so the exemption stays visible at the call site.
use hlisa_bench::harness::{self, Report};
use hlisa_bench::{
    campaign_bench as campaign, interaction_bench as interaction, lint_bench as lint,
    parallel_bench as parallel, reliability_bench as reliability, web_bench as web,
};
use std::process::exit;

const USAGE: &str = "usage: bench <campaign|interaction|web|lint|parallel|reliability> \
                     [--smoke] [--out PATH]\n       bench guard FILE[:skip,...]...";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((suite, rest)) = args.split_first() else {
        fail("missing suite");
    };
    if suite == "guard" {
        exit(guard(rest));
    }
    let mut smoke = false;
    let mut out_path = format!("BENCH_{suite}.json");
    let mut argv = rest.iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = argv
                    .next()
                    .unwrap_or_else(|| fail("--out needs a path"))
                    .clone();
            }
            other => fail(&format!("unknown argument: {other}")),
        }
    }
    eprintln!(
        "benchmarking {suite} ({} mode)...",
        if smoke { "smoke" } else { "full" }
    );
    let report: Report = match suite.as_str() {
        "campaign" => campaign::run(sized(
            smoke,
            campaign::BenchConfig::smoke,
            campaign::BenchConfig::full,
        )),
        "interaction" => interaction::run(sized(
            smoke,
            interaction::BenchConfig::smoke,
            interaction::BenchConfig::full,
        )),
        "web" => web::run(sized(
            smoke,
            web::BenchConfig::smoke,
            web::BenchConfig::full,
        )),
        "lint" => lint::run(sized(
            smoke,
            lint::BenchConfig::smoke,
            lint::BenchConfig::full,
        )),
        "parallel" => parallel::run(sized(
            smoke,
            parallel::BenchConfig::smoke,
            parallel::BenchConfig::full,
        )),
        "reliability" => reliability::run(sized(
            smoke,
            reliability::BenchConfig::smoke,
            reliability::BenchConfig::full,
        )),
        other => fail(&format!("unknown suite: {other}")),
    };
    print!("{}", report.render_human());
    std::fs::write(&out_path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        exit(1);
    });
    eprintln!("wrote {out_path}");
}

/// A suite's smoke or full sizing.
fn sized<T>(smoke: bool, small: fn() -> T, full: fn() -> T) -> T {
    if smoke {
        small()
    } else {
        full()
    }
}

/// Runs the perf guard over every argument; returns the exit status.
fn guard(args: &[String]) -> i32 {
    if args.is_empty() {
        fail("guard needs at least one FILE");
    }
    let mut pass = true;
    for arg in args {
        let (ok, lines) = harness::guard(arg);
        for line in lines {
            println!("{line}");
        }
        pass &= ok;
    }
    if pass {
        println!("perf-guard: all guarded sections within 30% of committed baselines");
        0
    } else {
        eprintln!("perf-guard: FAILED (speedup dropped >30% vs committed baseline)");
        1
    }
}

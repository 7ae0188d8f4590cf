//! `bench_e2e`: the end-to-end campaign benchmark.
//!
//! ```text
//! bench_e2e --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1]
//!           [--workers N] [--repeat N]
//! ```
//!
//! One run generates its workload's inputs from `--seed`, runs a warm-up
//! round, then repeats a few set-ups and a fixed-size round of the
//! workload through the public crawler runners until `--seconds` have
//! passed; each metric is the median over the run's rounds. It prints
//! one `workload metric value unit` line per metric and, as its last line,
//! the same data as one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` the run alternates untraced rounds with
//! rounds of the traced drivers (`mirror.rs`) and reports the per-layer
//! metrics instead. `--repeat N` runs N child runs with seeds `seed`,
//! `seed + 1`, … and prints each end-to-end metric's median and quartiles,
//! flagging any whose quartile spread exceeds its bound.
//!
//! The load is a closed loop: `--workers` (default 2) claiming workers in
//! one process, each taking its next shard only after finishing the last.
//!
//! Correctness is checked on every run: every round's simulated
//! statistics must fold to the same digest, the traced digest must equal
//! the untraced one, strengthened capture must not drift, every planned
//! visit must produce an outcome, and for the seeds in
//! [`workload::EXPECTED`] the digest must equal the committed one. The
//! process exits non-zero when a check fails.
//!
//! Wall-clock reads are the point of this program: it times the crawler,
//! and no timing feeds back into a simulated value.

mod metrics;
mod mirror;
mod stats;
mod trace;
mod workload;

use metrics::{median, quartiles, END_TO_END};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

/// Fewest timed rounds (of each kind, in a traced run) whatever the time box.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed before each timed round. The first after a round pays
/// for re-faulting memory the round freed; the median over a run's blocks
/// reports the steady cost.
const SETUPS_PER_ROUND: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        workers: 2,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v.parse().map_err(|_| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                parsed.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--workers" => {
                let v = value()?;
                parsed.workers = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(v))?;
            }
            "--repeat" => {
                let v = value()?;
                parsed.repeat = Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(v))?);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if parsed.workloads.len() > 1 && parsed.repeat.is_none() {
        return Err("--workload all needs --repeat".into());
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(parsed)
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
struct Report {
    workload: Workload,
    /// `(metric, value)` in dictionary order.
    metrics: Vec<(&'static str, f64)>,
    /// Every failed correctness check, described.
    errors: Vec<String>,
    /// Visits planned across the measured rounds.
    attempted: u64,
    /// Planned visits that produced no outcome.
    failed: u64,
    /// The round digest.
    digest: u64,
    /// Timed rounds.
    rounds: usize,
}

/// Resets this process's peak resident set (`VmHWM`) to its current one.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process (`VmHWM`) since the last reset, in
/// MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One run of one workload.
fn run(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_path: Option<&std::path::Path>,
) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut errors = Vec::new();

    let (_, mut shards) = inputs.setup();
    // A warm-up round fixes the reference statistics every timed round
    // must reproduce.
    let reference = inputs.round(shards.as_ref());
    let digest = reference.digest();
    if reference.planned() != inputs.visits_per_round() {
        errors.push(format!(
            "a round planned {} visits, not sites x visits x machines = {}",
            reference.planned(),
            inputs.visits_per_round()
        ));
    }
    if reference.strengthened_drifted {
        errors.push("strengthened capture drifted from pristine".into());
    }
    if let Some(want) = workload::expected_digest(inputs, seed) {
        if want != digest {
            errors.push(format!("digest {digest:#018x}, expected {want:#018x}"));
        }
    }
    let mut check = |stats: &stats::RoundStats, what: &str| {
        if stats.digest() != digest {
            errors.push(format!(
                "a {what} round's digest differs from the warm-up's"
            ));
        }
    };

    let visits = inputs.visits_per_round() as f64;
    let start = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let metrics;
    let rounds;
    if trace {
        let epoch = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut traces = Vec::new();
        while traced.len() < MIN_ROUNDS || start.elapsed() < budget {
            let t = Instant::now();
            let untraced = inputs.round(shards.as_ref());
            plain.push(t.elapsed().as_secs_f64());
            let (stats, round_trace) =
                mirror::round(inputs, shards.as_ref(), epoch, traces.is_empty());
            traced.push(round_trace.wall.as_secs_f64());
            for (s, what) in [(&untraced, "untraced"), (&stats, "traced")] {
                check(s, what);
                attempted += s.planned();
                failed += s.failed();
            }
            traces.push(round_trace);
        }
        if let (Some(path), Some(first)) = (trace_path, traces.first()) {
            first
                .write_records(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let overhead = median(&traced) / median(&plain) - 1.0;
        metrics = metrics::per_layer(inputs, &reference, &traces, overhead);
        rounds = traced.len();
    } else {
        // Each timed round runs on a skeleton set up just before it, so
        // set-up is timed in the same machine state as the rounds, and
        // each round's memory high-water mark is taken on its own.
        let (mut rates, mut setups, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
        while rates.len() < MIN_ROUNDS || start.elapsed() < budget {
            for _ in 0..SETUPS_PER_ROUND {
                let (setup, fresh) = inputs.setup();
                setups.push(setup.as_secs_f64());
                shards = fresh;
            }
            reset_peak_rss()?;
            let t = Instant::now();
            let stats = inputs.round(shards.as_ref());
            rates.push(visits / t.elapsed().as_secs_f64());
            peaks.push(peak_rss_mib()?);
            check(&stats, "timed");
            attempted += stats.planned();
            failed += stats.failed();
        }
        metrics = vec![
            ("visits_per_s", median(&rates)),
            ("setup_s", median(&setups)),
            ("peak_rss_mib", median(&peaks)),
        ];
        rounds = rates.len();
    }
    if failed > 0 {
        errors.push(format!("{failed} planned visits produced no outcome"));
    }
    Ok(Report {
        workload: inputs.workload,
        metrics,
        errors,
        attempted,
        failed,
        digest,
        rounds,
    })
}

impl Report {
    /// The `workload metric value unit` lines, then the JSON object.
    fn render(&self, workers: usize) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        out.push_str(&format!("{w} host.cores {cores} count\n"));
        out.push_str(&format!("{w} workers {workers} count\n"));
        out.push_str(&format!("{w} rounds {} count\n", self.rounds));
        out.push_str(&format!("{w} digest {:#018x} hex\n", self.digest));
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value) in &self.metrics {
            let unit = metrics::unit(name).expect("every metric is in the dictionary");
            out.push_str(&format!("{w} {name} {value} {unit}\n"));
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("{w} CHECK FAILED: {e}\n"));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        out
    }
}

/// `--repeat N`: N child runs per workload, then each end-to-end metric's
/// median, quartiles and quartile spread against its bound.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    for w in &args.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n as u64 {
            let seed = args.seed.wrapping_add(i);
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .args(["--workers", &args.workers.to_string()])
                .output()
                .map_err(|e| format!("running a child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                all_ok = false;
                eprint!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
                eprintln!("{} seed {seed}: run failed ({})", w.name(), out.status);
                continue;
            }
            for line in stdout.lines() {
                let f: Vec<&str> = line.split_whitespace().collect();
                if let [_, name, value, _] = f[..] {
                    if let Some(i) = END_TO_END.iter().position(|m| m.name == name) {
                        values[i].push(value.parse().map_err(|_| format!("bad line {line:?}"))?);
                    }
                }
            }
        }
        for (m, v) in END_TO_END.iter().zip(&values) {
            if v.len() < 2 {
                println!("{} {} only {} value(s)", w.name(), m.name, v.len());
                continue;
            }
            let [q1, _, q3] = quartiles(v);
            let med = median(v);
            let spread = (q3 - q1) / med;
            let flag = if spread > m.bound {
                "  SPREAD OVER BOUND"
            } else {
                ""
            };
            println!(
                "{} {} median {med:.6} q1 {q1:.6} q3 {q3:.6} spread {spread:.4} bound {} n {}{flag}",
                w.name(),
                m.name,
                m.bound,
                v.len()
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!(
                "usage: bench_e2e --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1] [--workers N] [--repeat N]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.repeat {
        Some(n) => repeat(&args, n),
        None => {
            let w = args.workloads[0];
            let inputs = Inputs::new(w, w.sizing(), args.seed, args.workers);
            let path = std::path::PathBuf::from(format!(
                "target/bench/trace-{}-{}.jsonl",
                w.name(),
                args.seed
            ));
            run(&inputs, args.seed, args.seconds, args.trace, Some(&path)).map(|report| {
                print!("{}", report.render(args.workers));
                report.errors.is_empty()
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at toy size, untraced and traced: the traced drivers
    /// reproduce the runners' statistics exactly, nothing degrades, and
    /// every metric is reported with its unit. No wall-clock assertions.
    #[test]
    fn miniature_runs_agree_traced_and_untraced() {
        for w in Workload::ALL {
            let sizing = workload::Sizing {
                sites: 200,
                study_sites: 100,
                visits: 1,
                shard: 16,
            };
            let inputs = Inputs::new(w, sizing, 7, 2);
            let plain = run(&inputs, 7, 0.0, false, None).expect("untraced run");
            let traced = run(&inputs, 7, 0.0, true, None).expect("traced run");
            // A traced run's rounds come in untraced-traced pairs.
            for (r, kinds) in [(&plain, 1), (&traced, 2)] {
                assert!(r.errors.is_empty(), "{}: {:?}", w.name(), r.errors);
                assert_eq!(r.failed, 0);
                assert_eq!(
                    r.attempted,
                    inputs.visits_per_round() * kinds * r.rounds as u64
                );
            }
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            let names = |r: &Report| r.metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>();
            let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            let layers: Vec<&str> = metrics::PER_LAYER.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names(&plain), e2e);
            assert_eq!(names(&traced), layers);
            for (name, value) in plain.metrics.iter().chain(&traced.metrics) {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name());
                assert!(metrics::unit(name).is_some());
            }
            // The layer shares and the unaccounted share partition the
            // round's worker capacity.
            let shares: f64 = traced
                .metrics
                .iter()
                .filter(|(n, _)| {
                    n.ends_with("self_share")
                        || n.ends_with("unaccounted_share")
                        || [
                            "sim.fault.draw_share",
                            "web.capture.emit_share",
                            "sim.observer.pristine_share",
                            "sim.observer.naive_lossy_share",
                            "sim.observer.strengthened_share",
                            "sim.observer.merge_share",
                            "sim.loss.draw_share",
                            "crawler.reliability.drift_share",
                            "bench.fold_share",
                        ]
                        .contains(n)
                })
                .map(|(_, v)| v)
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{}: shares sum to {shares}",
                w.name()
            );
            let json = plain.render(2);
            let last = json.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload paper_crawl --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::PaperCrawl]);
        assert_eq!((a.seed, a.seconds, a.trace, a.workers), (3, 10.0, true, 2));
        assert!(parse_args(&args("--workload all --seed 1")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --repeat 5")).is_ok());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload paper_crawl --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_crawl --workers 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}

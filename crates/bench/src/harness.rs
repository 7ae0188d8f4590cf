//! The one bench file format: how every suite times, records, writes and
//! renders its measurements, and how the perf guard reads them back.
//!
//! A suite measures into a [`Report`]:
//!
//! * **Sections** — one timed quantity each: `ops` operations of `unit`,
//!   timed [`REPEATS`] times, kept as the median and the spread
//!   `(max − min) / median`. A section that pins an optimisation also
//!   carries its retained reference as a `baseline` of the same shape;
//!   its speedup is `baseline median / median`. Both sides run
//!   interleaved ([`compare`]), so a drift in host speed lands on both.
//! * **Facts** — named non-timing numbers: counts, drift-curve points,
//!   derived ratios of a sweep.
//!
//! Every `BENCH_*.json` also records the `benchmark` it came from, the
//! suite's sizing `config`, the host's `cores` and the `repeats`, so a
//! number never travels without the conditions it was taken under.
//!
//! The perf guard ([`guard`]) compares a fresh smoke file's speedups
//! with the committed full-run baseline file next to it.
//!
//! Timing here reads the *wall clock on purpose*: the suites measure
//! real elapsed cost, and the numbers feed a JSON report, never a
//! simulated observable, so the determinism fence does not apply.

use hlisa_stats::Summary;
use std::time::Instant;

/// Timed repetitions behind every section's median and spread.
pub const REPEATS: usize = 5;

/// The guard's ceiling on both speedups before they are compared.
///
/// Large ratios are unstable between sizings: a section whose optimised
/// side times mostly timer overhead, or whose baseline cost depends on
/// cache scale, swings far more than [`MAX_DROP`] between smoke and full
/// runs while the optimisation is plainly intact. A section at or above
/// the clamp on both sides passes; an optimisation collapsing back
/// toward ×1 still falls through the clamp and trips the drop rule.
pub const CLAMP: f64 = 30.0;

/// The largest relative speedup drop the guard lets through.
pub const MAX_DROP: f64 = 0.30;

/// The median and spread of one side's [`REPEATS`] timed runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median elapsed seconds.
    pub median_s: f64,
    /// `(max − min) / median` of the runs.
    pub spread: f64,
}

impl Timing {
    /// Summarises elapsed-seconds samples.
    pub fn of(samples: &[f64]) -> Self {
        let s = Summary::of(samples);
        Self {
            median_s: s.median,
            spread: (s.max - s.min) / s.median.max(1e-12),
        }
    }
}

/// One timed quantity, optionally against its retained reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name, unique within a file.
    pub name: String,
    /// What one operation is (`"probes"`, `"visits"`, ...).
    pub unit: String,
    /// Operations per timed run.
    pub ops: u64,
    /// The measured (optimised) side.
    pub time: Timing,
    /// The retained reference the optimised side is pinned against.
    pub baseline: Option<Timing>,
}

impl Section {
    /// Operations per second of the measured side.
    pub fn per_sec(&self) -> f64 {
        self.ops as f64 / self.time.median_s.max(1e-12)
    }

    /// Operations per second of the baseline side.
    pub fn baseline_per_sec(&self) -> Option<f64> {
        self.baseline
            .map(|b| self.ops as f64 / b.median_s.max(1e-12))
    }

    /// Throughput ratio (baseline median / measured median).
    pub fn speedup(&self) -> Option<f64> {
        self.baseline
            .map(|b| b.median_s / self.time.median_s.max(1e-12))
    }
}

/// A named non-timing number.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Fact name, unique within a file.
    pub name: String,
    /// Its value (counts are stored exactly up to 2^53).
    pub value: f64,
}

/// Runs `f` once and returns its elapsed seconds and output.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Times [`REPEATS`] rounds over `sides` workloads: each round runs
/// `run(0)`, `run(1)`, ... in turn, so a drift in host speed lands on
/// every side alike. Returns each side's timing and last output.
pub fn rounds<R>(sides: usize, mut run: impl FnMut(usize) -> R) -> Vec<(Timing, R)> {
    let mut samples = vec![Vec::with_capacity(REPEATS); sides];
    let mut last: Vec<Option<R>> = (0..sides).map(|_| None).collect();
    for _ in 0..REPEATS {
        for side in 0..sides {
            let (s, out) = timed(|| run(side));
            samples[side].push(s);
            last[side] = Some(out);
        }
    }
    samples
        .iter()
        .zip(last)
        .map(|(s, out)| (Timing::of(s), out.expect("REPEATS > 0")))
        .collect()
}

/// Times one workload [`REPEATS`] times into a section without baseline;
/// returns the section and the last output.
pub fn measure<R>(name: &str, unit: &str, ops: u64, mut run: impl FnMut() -> R) -> (Section, R) {
    let (time, out) = rounds(1, |_| run()).pop().expect("one side");
    let section = Section {
        name: name.to_string(),
        unit: unit.to_string(),
        ops,
        time,
        baseline: None,
    };
    (section, out)
}

/// Times a retained reference against its optimised path, interleaved;
/// returns the section and both sides' last outputs for the caller's
/// checks (a pinned optimisation asserts them equal: a comparison of
/// different outputs would measure the wrong thing).
pub fn compare<R>(
    name: &str,
    unit: &str,
    ops: u64,
    mut baseline: impl FnMut() -> R,
    mut optimized: impl FnMut() -> R,
) -> (Section, R, R) {
    let mut sides = rounds(2, |side| if side == 0 { baseline() } else { optimized() });
    let (time, opt) = sides.pop().expect("two sides");
    let (base, reference) = sides.pop().expect("two sides");
    let section = Section {
        name: name.to_string(),
        unit: unit.to_string(),
        ops,
        time,
        baseline: Some(base),
    };
    (section, reference, opt)
}

/// The machine's available parallelism (1 if undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One suite's results, ready to write as a `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct Report {
    /// What the suite measures.
    pub benchmark: String,
    /// The suite's sizing, as `(name, value)` pairs.
    pub config: Vec<(&'static str, u64)>,
    /// Available parallelism of the host that took the numbers.
    pub cores: usize,
    /// Timed sections, in measurement order.
    pub sections: Vec<Section>,
    /// Non-timing facts, in measurement order.
    pub facts: Vec<Fact>,
}

impl Report {
    /// An empty report for this host.
    pub fn new(benchmark: &str, config: Vec<(&'static str, u64)>) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            config,
            cores: available_cores(),
            sections: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Records a fact.
    pub fn fact(&mut self, name: impl Into<String>, value: f64) {
        self.facts.push(Fact {
            name: name.into(),
            value,
        });
    }

    /// The section called `name`.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// The value of the fact called `name`.
    #[cfg(test)]
    pub fn get_fact(&self, name: &str) -> Option<f64> {
        self.facts.iter().find(|f| f.name == name).map(|f| f.value)
    }

    /// Serializes the report. Hand-rolled — the workspace vendors no JSON
    /// writer — with one section or fact per line, which is what
    /// `read` relies on.
    pub fn to_json(&self) -> String {
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let facts = self.facts.iter().map(|f| {
            format!(
                "    {{\"fact\": \"{}\", \"value\": {}}}",
                f.name,
                num(f.value)
            )
        });
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"{}\",\n",
                "  \"config\": {{{}}},\n",
                "  \"cores\": {},\n",
                "  \"repeats\": {},\n",
                "  \"sections\": {},\n",
                "  \"facts\": {}\n",
                "}}\n"
            ),
            self.benchmark,
            config.join(", "),
            self.cores,
            REPEATS,
            json_list(self.sections.iter().map(section_json)),
            json_list(facts),
        )
    }

    /// Human-readable summary: one line per section, then the facts.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "{} ({} core(s), median of {REPEATS})\n",
            self.benchmark, self.cores
        );
        for s in &self.sections {
            let rate = s.per_sec();
            let (name, unit, spread) = (&s.name, &s.unit, s.time.spread);
            out.push_str(&match (s.baseline, s.speedup(), s.baseline_per_sec()) {
                (Some(b), Some(x), Some(base)) => format!(
                    "{name:<24} {base:>14.0} -> {rate:>14.0} {unit}/s ({x:.2}x, spread {:.2}/{spread:.2})\n",
                    b.spread
                ),
                _ => format!("{name:<24} {rate:>32.0} {unit}/s (spread {spread:.2})\n"),
            });
        }
        for f in &self.facts {
            out.push_str(&format!("  {:<40} {}\n", f.name, f.value));
        }
        out
    }
}

/// The one JSON number formatter: shortest round-trip decimal, `null`
/// for non-finite values.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON array with one item per line.
fn json_list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.collect();
    if items.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", items.join(",\n"))
    }
}

fn section_json(s: &Section) -> String {
    let mut line = format!(
        "    {{\"section\": \"{}\", \"unit\": \"{}\", \"ops\": {}, \"median_s\": {}, \"spread\": {}, \"per_sec\": {}",
        s.name,
        s.unit,
        s.ops,
        num(s.time.median_s),
        num(s.time.spread),
        num(s.per_sec()),
    );
    if let (Some(b), Some(rate), Some(x)) = (s.baseline, s.baseline_per_sec(), s.speedup()) {
        line.push_str(&format!(
            ", \"baseline_median_s\": {}, \"baseline_spread\": {}, \"baseline_per_sec\": {}, \"speedup\": {}",
            num(b.median_s),
            num(b.spread),
            num(rate),
            num(x),
        ));
    }
    line.push('}');
    line
}

/// Reads the sections and facts back out of a file [`Report::to_json`]
/// wrote.
fn read(text: &str) -> Result<(Vec<Section>, Vec<Fact>), String> {
    let mut sections = Vec::new();
    let mut facts = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(body) = line.strip_prefix('{').and_then(|l| l.strip_suffix('}')) else {
            continue;
        };
        let fields: Vec<(&str, &str)> = body
            .split(", ")
            .filter_map(|kv| kv.split_once(": "))
            .map(|(k, v)| (k.trim_matches('"'), v.trim_matches('"')))
            .collect();
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let number = |key: &str| -> Result<f64, String> {
            match get(key) {
                Some("null") => Ok(f64::NAN),
                Some(v) => v.parse().map_err(|_| format!("bad {key} in {line}")),
                None => Err(format!("no {key} in {line}")),
            }
        };
        if let Some(name) = get("section") {
            let baseline = match get("baseline_median_s") {
                Some(_) => Some(Timing {
                    median_s: number("baseline_median_s")?,
                    spread: number("baseline_spread")?,
                }),
                None => None,
            };
            sections.push(Section {
                name: name.to_string(),
                unit: get("unit").unwrap_or_default().to_string(),
                ops: get("ops")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad ops in {line}"))?,
                time: Timing {
                    median_s: number("median_s")?,
                    spread: number("spread")?,
                },
                baseline,
            });
        } else if let Some(name) = get("fact") {
            facts.push(Fact {
                name: name.to_string(),
                value: number("value")?,
            });
        }
    }
    Ok((sections, facts))
}

/// Compares a fresh run's speedups with a baseline file's: every
/// baseline section that has a speedup must be in the fresh run (unless
/// named in `skips`) and, with both sides clamped at [`CLAMP`], must not
/// have dropped by more than [`MAX_DROP`]. Returns whether the file
/// passed and one report line per section.
fn guard_sections(
    file: &str,
    baseline: &[Section],
    fresh: &[Section],
    skips: &[&str],
) -> (bool, Vec<String>) {
    let mut pass = true;
    let mut lines = Vec::new();
    for reference in baseline {
        let (name, Some(old)) = (&reference.name, reference.speedup()) else {
            continue;
        };
        if skips.contains(&name.as_str()) {
            lines.push(format!(
                "perf-guard: skip {file}/{name} (scale-dependent at smoke size)"
            ));
            continue;
        }
        let Some(new) = fresh
            .iter()
            .find(|s| &s.name == name)
            .and_then(Section::speedup)
        else {
            lines.push(format!(
                "perf-guard: FAIL {file}/{name}: section missing from fresh run"
            ));
            pass = false;
            continue;
        };
        if new.min(CLAMP) < (1.0 - MAX_DROP) * old.min(CLAMP) {
            lines.push(format!(
                "perf-guard: FAIL {file}/{name}: speedup {old:.3} -> {new:.3} (>30% drop)"
            ));
            pass = false;
        } else {
            lines.push(format!(
                "perf-guard: ok   {file}/{name}: speedup {old:.3} -> {new:.3}"
            ));
        }
    }
    (pass, lines)
}

/// Checks one `FILE[:skip,...]` guard argument: `FILE` is a fresh smoke
/// run `BENCH_x.smoke.json`, compared with the committed `BENCH_x.json`.
/// A missing fresh file fails; a missing committed file is skipped.
pub fn guard(arg: &str) -> (bool, Vec<String>) {
    let (fresh_path, skips) = match arg.split_once(':') {
        Some((path, skips)) => (path, skips.split(',').collect()),
        None => (arg, Vec::new()),
    };
    let baseline_path = format!(
        "{}.json",
        fresh_path.strip_suffix(".smoke.json").unwrap_or(fresh_path)
    );
    let Ok(fresh) = std::fs::read_to_string(fresh_path) else {
        return (
            false,
            vec![format!("perf-guard: {fresh_path}: fresh smoke run missing")],
        );
    };
    let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
        return (
            true,
            vec![format!(
                "perf-guard: {baseline_path}: no committed baseline, skipping"
            )],
        );
    };
    match (read(&baseline), read(&fresh)) {
        (Ok((baseline, _)), Ok((fresh, _))) => {
            guard_sections(fresh_path, &baseline, &fresh, &skips)
        }
        (Err(e), _) | (_, Err(e)) => (false, vec![format!("perf-guard: {arg}: {e}")]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(name: &str, speedup: Option<f64>) -> Section {
        Section {
            name: name.to_string(),
            unit: "ops".to_string(),
            ops: 100,
            time: Timing {
                median_s: 1.0,
                spread: 0.1,
            },
            baseline: speedup.map(|x| Timing {
                median_s: x,
                spread: 0.2,
            }),
        }
    }

    fn guard_one(old: f64, new: f64, skips: &[&str]) -> bool {
        guard_sections(
            "f",
            &[section("s", Some(old))],
            &[section("s", Some(new))],
            skips,
        )
        .0
    }

    #[test]
    fn section_rates_and_speedup() {
        let s = Section {
            ops: 100,
            time: Timing {
                median_s: 2.0,
                spread: 0.0,
            },
            ..section("s", Some(10.0))
        };
        assert!((s.per_sec() - 50.0).abs() < 1e-9);
        assert!((s.baseline_per_sec().unwrap() - 10.0).abs() < 1e-9);
        assert!((s.speedup().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(section("t", None).speedup(), None);
    }

    #[test]
    fn timing_is_median_and_relative_range() {
        let t = Timing::of(&[3.0, 1.0, 2.0, 2.0, 4.0]);
        assert_eq!(t.median_s, 2.0);
        assert!((t.spread - 1.5).abs() < 1e-12);
    }

    #[test]
    fn compare_times_both_sides_repeats_times_each() {
        let mut calls = [0usize; 2];
        let (s, a, b) = compare(
            "c",
            "ops",
            7,
            || {
                calls[0] += 1;
                1u8
            },
            || 2u8,
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(calls[0], REPEATS);
        assert_eq!(s.ops, 7);
        assert!(s.baseline.is_some() && s.speedup().is_some());
    }

    #[test]
    fn writer_output_reads_back_to_the_same_sections_and_facts() {
        let mut report = Report::new("round trip", vec![("iters", 3)]);
        report.sections = vec![
            section("paired", Some(12.345_678_901)),
            Section {
                time: Timing {
                    median_s: 0.000_001_234_567_89,
                    spread: 0.031_25,
                },
                ..section("single", None)
            },
        ];
        report.fact("count", 2568.0);
        report.fact("drift.rate_0.05.max_rel_error", 0.25);
        report.fact("tiny", 1.0e-9);
        let json = report.to_json();
        assert!(json.contains("\"cores\": "), "{json}");
        assert!(json.contains(&format!("\"repeats\": {REPEATS}")), "{json}");
        let (sections, facts) = read(&json).unwrap();
        assert_eq!(sections, report.sections);
        assert_eq!(facts, report.facts);
        assert!(report.render_human().contains("paired"));
    }

    #[test]
    fn guard_clamps_both_speedups() {
        // 100x -> 40x is a 60% drop, but both sit above the clamp.
        assert!(guard_one(100.0, 40.0, &[]));
        // 100x -> 20x falls through the clamp: 20 < 0.7 * 30.
        assert!(!guard_one(100.0, 20.0, &[]));
    }

    #[test]
    fn guard_fails_a_drop_over_thirty_percent() {
        assert!(guard_one(2.0, 1.5, &[]));
        assert!(!guard_one(2.0, 1.3, &[]));
    }

    #[test]
    fn guard_fails_a_missing_section_unless_skipped() {
        let baseline = [section("kept", Some(2.0)), section("gone", Some(2.0))];
        let fresh = [section("kept", Some(2.0))];
        let (pass, lines) = guard_sections("f", &baseline, &fresh, &[]);
        assert!(!pass);
        assert!(lines[1].contains("missing"), "{lines:?}");
        assert!(guard_sections("f", &baseline, &fresh, &["gone"]).0);
    }

    #[test]
    fn guard_honours_an_explicit_skip() {
        let (pass, lines) = guard_sections(
            "f",
            &[section("s", Some(20.0))],
            &[section("s", Some(1.0))],
            &["s"],
        );
        assert!(pass);
        assert!(lines[0].contains("skip"), "{lines:?}");
    }

    #[test]
    fn guard_ignores_sections_without_a_speedup() {
        assert!(guard_sections("f", &[section("rate", None)], &[], &[]).0);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hlisa_bench_guard_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn guard_fails_a_missing_fresh_file() {
        let dir = scratch_dir("missing");
        let fresh = dir.join("BENCH_x.smoke.json");
        let (pass, lines) = guard(fresh.to_str().unwrap());
        assert!(!pass);
        assert!(lines[0].contains("fresh smoke run missing"), "{lines:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn guard_skips_a_file_with_no_committed_baseline() {
        let dir = scratch_dir("nobase");
        let fresh = dir.join("BENCH_x.smoke.json");
        let mut report = Report::new("fresh only", Vec::new());
        report.sections.push(section("s", Some(1.0)));
        std::fs::write(&fresh, report.to_json()).unwrap();
        let (pass, lines) = guard(fresh.to_str().unwrap());
        assert!(pass);
        assert!(lines[0].contains("no committed baseline"), "{lines:?}");
        // With the committed file next to it, the comparison runs.
        report.sections[0] = section("s", Some(10.0));
        std::fs::write(dir.join("BENCH_x.json"), report.to_json()).unwrap();
        let (pass, lines) = guard(fresh.to_str().unwrap());
        assert!(!pass, "{lines:?}");
        let arg = format!("{}:s", fresh.to_str().unwrap());
        assert!(guard(&arg).0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

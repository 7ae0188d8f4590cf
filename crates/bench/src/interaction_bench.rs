//! Interaction fast-path benchmark: hit testing, trajectory synthesis,
//! batch visit planning, and pointer injection.
//!
//! Four sections, emitted as `BENCH_interaction.json`; the first three
//! each time a retained reference against its optimised path:
//!
//! 1. **Hit testing** — the linear reverse scan
//!    ([`Document::hit_test_linear`]) vs the row-band index
//!    ([`Document::hit_test`]), probed over a deterministic point lattice
//!    on a listing-sized page (hundreds of boxes).
//! 2. **Trajectory synthesis** — the seed-era eager planner
//!    ([`cursor::reference::generate_with`]: fresh `Vec`, per-sample
//!    basis evaluation, one Marsaglia-polar draw call per sample) vs the
//!    fixed-capacity kernel ([`cursor::synthesize_into`]: shared basis
//!    table, split-phase batched tremor fill, inline scratch, reused
//!    output arena). Both sides draw the identical RNG sequence and must
//!    produce bit-identical samples. The speedup ceiling is set by the
//!    irreducible per-sample draw + `ln` cost the determinism contract
//!    pins (see EXPERIMENTS.md for the floor decomposition).
//! 3. **Batch planning** — a full visit's action chain planned the
//!    per-action way ([`plan_visit_unbatched`]: fresh buffers per action)
//!    vs the one-arena [`VisitPlanner`], which lays every movement, key
//!    stroke, and wheel tick of the visit into reused arenas — zero
//!    allocations per visit in steady state, asserted via capacity
//!    stability and reported as a fact.
//! 4. **Pointer injection** — one recorded HLISA movement injected as
//!    one [`Browser::input_timed`] batch into a browser re-opened
//!    ([`Browser::reopen`]) on a fresh copy of the page each time, the
//!    way a scenario drive reuses its worker's browser. No baseline: the
//!    per-item advance-then-input loop it replaced survives only as the
//!    test-local reference of the browser's timed-input differential
//!    test.

use crate::harness::{compare, measure, Report, Section};
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{
    Browser, BrowserConfig, Document, ElementBuilder, Point, RawInput, Rect, TimedInput,
};
use hlisa_human::cursor;
use hlisa_human::plan::{plan_visit_unbatched, visit_script_into, ScriptStep};
use hlisa_human::{HumanParams, VisitPlanner};
use hlisa_sim::SimContext;
use hlisa_stats::rngutil::splitmix64;
use std::hint::black_box;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Elements on the synthetic hit-test page.
    pub hit_elements: usize,
    /// Full passes over the probe lattice per timed run.
    pub hit_passes: u32,
    /// Cursor movements synthesized per timed run.
    pub traj_moves: u32,
    /// Whole visits planned per timed run.
    pub plan_visits: u32,
    /// Recorded movements injected per timed run.
    pub inject_moves: u32,
}

impl BenchConfig {
    /// The default run: big enough for stable ratios.
    pub fn full() -> Self {
        Self {
            hit_elements: 400,
            hit_passes: 60,
            traj_moves: 20_000,
            plan_visits: 4_000,
            inject_moves: 50_000,
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            hit_elements: 200,
            hit_passes: 20,
            traj_moves: 100,
            plan_visits: 60,
            inject_moves: 500,
        }
    }
}

/// A listing-like page: a full-page body plus a lattice of row boxes, the
/// shape a search-result or article-index page presents to hit testing.
fn listing_page(n_elements: usize) -> Document {
    const PAGE_W: f64 = 1280.0;
    const PAGE_H: f64 = 30_000.0;
    let mut doc = Document::new("https://bench.test/listing", PAGE_W, PAGE_H);
    ElementBuilder::new("body", Rect::new(0.0, 0.0, PAGE_W, PAGE_H)).insert(&mut doc);
    let cols = 8usize;
    let rows = n_elements.div_ceil(cols);
    // Card-sized boxes filling a good fraction of each lattice cell, so
    // the probe lattice lands on cards and bare body alike.
    let card_h = ((PAGE_H - 80.0) / rows as f64 * 0.45).clamp(24.0, 400.0);
    for i in 0..n_elements {
        let (col, row) = (i % cols, i / cols);
        let x = 20.0 + col as f64 * (PAGE_W - 40.0) / cols as f64;
        let y = 40.0 + row as f64 * (PAGE_H - 80.0) / rows as f64;
        ElementBuilder::new("div", Rect::new(x, y, 120.0, card_h)).insert(&mut doc);
    }
    doc
}

/// Probe lattice: 64×64 points spanning the page, hitting a mix of row
/// boxes and bare body.
fn probe_points(doc: &Document) -> Vec<Point> {
    let mut points = Vec::with_capacity(64 * 64);
    for i in 0..64u32 {
        for j in 0..64u32 {
            points.push(Point::new(
                f64::from(i) / 63.0 * (doc.page_width - 1.0),
                f64::from(j) / 63.0 * (doc.page_height - 1.0),
            ));
        }
    }
    points
}

fn bench_hit_test(config: &BenchConfig) -> Section {
    let doc = listing_page(config.hit_elements);
    let points = probe_points(&doc);
    // Build the index first so its construction is not on the timed path
    // (a real session builds it once and queries it thousands of times).
    let _ = doc.hit_test(points[0]);
    let ops = u64::from(config.hit_passes) * points.len() as u64;
    let (section, a, b) = compare(
        "hit_test",
        "probes",
        ops,
        || {
            let mut acc = 0u64;
            for _ in 0..config.hit_passes {
                for p in &points {
                    acc += doc
                        .hit_test_linear(black_box(*p))
                        .map_or(0, |id| id.index() as u64 + 1);
                }
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for _ in 0..config.hit_passes {
                for p in &points {
                    acc += doc
                        .hit_test(black_box(*p))
                        .map_or(0, |id| id.index() as u64 + 1);
                }
            }
            acc
        },
    );
    assert_eq!(a, b, "hit-test sides disagree");
    section
}

/// Deterministic movement endpoints: varied distances (short in-paragraph
/// hops through full-viewport crossings) so both code paths exercise the
/// single-stroke and two-phase planners.
fn move_endpoints(i: u32) -> (Point, Point, f64) {
    let from = Point::new(
        40.0 + f64::from(i % 13) * 30.0,
        60.0 + f64::from(i % 7) * 80.0,
    );
    let to = Point::new(
        1240.0 - f64::from(i % 11) * 90.0,
        660.0 - f64::from(i % 5) * 120.0,
    );
    let target_w = 20.0 + f64::from(i % 4) * 15.0;
    (from, to, target_w)
}

fn bench_trajectory(config: &BenchConfig) -> Section {
    let params = HumanParams::paper_baseline();
    let checksum = |s: &cursor::TrajectorySample| s.x + s.y + s.t_ms;
    let mut scratch = cursor::StrokeScratch::new();
    let mut buf: Vec<cursor::TrajectorySample> = Vec::new();
    // Warm both paths (page-in, branch predictors, basis tables, scratch
    // high-water marks) before timing, and pin bit-equality of every
    // warmed movement: the kernel must reproduce the reference exactly.
    for i in 0..config.traj_moves.min(200) {
        let (from, to, w) = move_endpoints(i);
        let mut ctx = SimContext::new(u64::from(i));
        let reference =
            cursor::reference::generate_with(&params, ctx.stream("cursor"), from, to, w);
        let mut ctx = SimContext::new(u64::from(i));
        buf.clear();
        cursor::synthesize_into(
            &params,
            ctx.stream("cursor"),
            from,
            to,
            w,
            &mut scratch,
            &mut buf,
        );
        assert_eq!(reference, buf, "kernel diverges from reference on move {i}");
    }
    let (section, a, b) = compare(
        "trajectory_synthesis",
        "movements",
        u64::from(config.traj_moves),
        || {
            let mut acc = 0.0f64;
            let mut samples = 0u64;
            for i in 0..config.traj_moves {
                let mut ctx = SimContext::new(u64::from(i));
                let (from, to, w) = move_endpoints(i);
                let v =
                    cursor::reference::generate_with(&params, ctx.stream("cursor"), from, to, w);
                samples += v.len() as u64;
                acc += v.iter().map(checksum).sum::<f64>();
                black_box(&v);
            }
            (acc, samples)
        },
        || {
            let mut acc = 0.0f64;
            let mut samples = 0u64;
            for i in 0..config.traj_moves {
                let mut ctx = SimContext::new(u64::from(i));
                let (from, to, w) = move_endpoints(i);
                buf.clear();
                cursor::synthesize_into(
                    &params,
                    ctx.stream("cursor"),
                    from,
                    to,
                    w,
                    &mut scratch,
                    &mut buf,
                );
                samples += buf.len() as u64;
                acc += buf.iter().map(checksum).sum::<f64>();
                black_box(&buf);
            }
            (acc, samples)
        },
    );
    assert_eq!(a, b, "trajectory sides disagree");
    section
}

/// Per-visit `(seed, content hash, planned steps)` for the batch-planning
/// row, mirroring the step-count spread [`VisitTimeline`] derives from the
/// site content hash (3–8 actions).
fn plan_visit_shape(i: u32) -> (u64, u64, usize) {
    let seed = splitmix64(0x706c_616e ^ u64::from(i));
    let content_hash = splitmix64(seed);
    let steps = 3 + ((content_hash >> 16) % 6) as usize;
    (seed, content_hash, steps)
}

fn bench_batch_plan(config: &BenchConfig) -> (Section, u64) {
    let params = HumanParams::paper_baseline();
    let visits = config.plan_visits;
    let mut planner = VisitPlanner::new();
    let mut script: Vec<ScriptStep> = Vec::new();
    // Differential anchor outside the timed loops: the batched planner
    // must reproduce the per-action reference plan bit for bit.
    for i in 0..visits.min(48) {
        let (seed, hash, steps) = plan_visit_shape(i);
        visit_script_into(hash, steps, &mut script);
        let mut ctx = SimContext::new(seed);
        let reference = plan_visit_unbatched(&params, &mut ctx, &script);
        let mut ctx = SimContext::new(seed);
        let batched = planner.plan_site_visit(&params, &mut ctx, hash, steps);
        assert_eq!(&reference, batched, "planners disagree on visit {i}");
    }
    // Warm the arenas over every visit shape in the workload so the timed
    // loop below runs at the steady-state high-water mark.
    for i in 0..visits {
        let (seed, hash, steps) = plan_visit_shape(i);
        let mut ctx = SimContext::new(seed);
        black_box(
            planner
                .plan_site_visit(&params, &mut ctx, hash, steps)
                .total_ms(),
        );
    }
    let frozen = planner.capacities();
    let (section, a, b) = compare(
        "batch_plan",
        "visits",
        u64::from(visits),
        || {
            let mut acc = 0.0f64;
            for i in 0..visits {
                let (seed, hash, steps) = plan_visit_shape(i);
                let mut step_buf = Vec::new();
                visit_script_into(hash, steps, &mut step_buf);
                let mut ctx = SimContext::new(seed);
                let plan = plan_visit_unbatched(&params, &mut ctx, &step_buf);
                acc += plan.total_ms();
                black_box(&plan);
            }
            acc
        },
        || {
            let mut acc = 0.0f64;
            for i in 0..visits {
                let (seed, hash, steps) = plan_visit_shape(i);
                let mut ctx = SimContext::new(seed);
                acc += planner
                    .plan_site_visit(&params, &mut ctx, hash, steps)
                    .total_ms();
            }
            acc
        },
    );
    assert_eq!(a, b, "batch-plan sides disagree");
    let arenas_grown = frozen
        .iter()
        .zip(planner.capacities().iter())
        .filter(|(before, after)| before != after)
        .count() as u64;
    (section, arenas_grown)
}

/// One recorded HLISA movement from the cursor origin a fresh window
/// hands out, as the timed batch [`HumanAgent::move_cursor_to`] injects.
fn recorded_movement() -> Vec<TimedInput> {
    let mut ctx = SimContext::new(1_117);
    let mut samples = Vec::new();
    cursor::synthesize_into(
        &HumanParams::paper_baseline(),
        ctx.stream("cursor"),
        Point::new(0.0, 0.0),
        Point::new(900.0, 300.0),
        40.0,
        &mut cursor::StrokeScratch::new(),
        &mut samples,
    );
    let mut prev_t = 0.0;
    samples
        .iter()
        .map(|s| {
            let delay = (s.t_ms - prev_t).max(0.0);
            prev_t = s.t_ms;
            TimedInput::after(delay, RawInput::MouseMove { x: s.x, y: s.y })
        })
        .collect()
}

/// Returns the section, the movement's sample count and the events one
/// injection dispatches.
fn bench_pointer_injection(config: &BenchConfig) -> (Section, u64, u64) {
    let movement = recorded_movement();
    let page = standard_test_page("https://bench.test/", 30_000.0);
    // Every re-opened copy shares the index built here, as scenario
    // pages do.
    page.build_index();
    let mut browser = Browser::open(BrowserConfig::webdriver(), page.clone());
    let inject = |browser: &mut Browser| {
        browser.reopen(page.clone());
        browser.input_timed(movement.iter().cloned());
        browser.recorder.len() as u64
    };
    let per_move = inject(&mut browser);
    let (section, events) = measure(
        "pointer_injection",
        "movements",
        u64::from(config.inject_moves),
        || {
            let mut events = 0u64;
            for _ in 0..config.inject_moves {
                events += inject(black_box(&mut browser));
            }
            events
        },
    );
    assert_eq!(
        events,
        per_move * u64::from(config.inject_moves),
        "a re-opened browser dispatched a different trace"
    );
    (section, movement.len() as u64, per_move)
}

/// Runs the whole suite.
pub fn run(config: BenchConfig) -> Report {
    let mut report = Report::new(
        "hlisa interaction fast path (hit test/trajectory/batch plan/injection)",
        vec![
            ("hit_elements", config.hit_elements as u64),
            ("hit_passes", u64::from(config.hit_passes)),
            ("traj_moves", u64::from(config.traj_moves)),
            ("plan_visits", u64::from(config.plan_visits)),
            ("inject_moves", u64::from(config.inject_moves)),
        ],
    );
    let hit_test = bench_hit_test(&config);
    let trajectory = bench_trajectory(&config);
    let (batch_plan, plan_arenas_grown) = bench_batch_plan(&config);
    let (injection, movement_samples, movement_events) = bench_pointer_injection(&config);
    report.sections = vec![hit_test, trajectory, batch_plan, injection];
    // Arenas that still grew during the timed batch-planning runs
    // (0 = zero steady-state allocations, the planner's contract).
    report.fact("plan_arenas_grown", plan_arenas_grown as f64);
    report.fact("movement_samples", movement_samples as f64);
    report.fact("movement_events", movement_events as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed() {
        let mut cfg = BenchConfig::smoke();
        // Keep the test fast; rates are not asserted here.
        cfg.hit_elements = 50;
        cfg.hit_passes = 1;
        cfg.traj_moves = 5;
        cfg.plan_visits = 4;
        cfg.inject_moves = 3;
        let report = run(cfg);
        assert_eq!(
            report.get_fact("plan_arenas_grown"),
            Some(0.0),
            "batch planner allocated in steady state"
        );
        for name in ["hit_test", "trajectory_synthesis", "batch_plan"] {
            let section = report.section(name).expect(name);
            assert!(section.speedup().is_some(), "{name} has no baseline");
        }
        let injection = report.section("pointer_injection").expect("injection row");
        assert!(injection.speedup().is_none(), "injection has no baseline");
        let samples = report.get_fact("movement_samples").unwrap();
        let events = report.get_fact("movement_events").unwrap();
        assert!(
            samples > 10.0 && events > 0.0,
            "{samples} samples, {events} events"
        );
        let human = report.render_human();
        assert!(human.contains("pointer_injection"));
        assert!(human.contains("batch_plan"));
    }

    #[test]
    fn listing_page_probe_mix_hits_rows_and_body() {
        let doc = listing_page(200);
        let points = probe_points(&doc);
        let rows = points
            .iter()
            .filter(|p| doc.hit_test(**p).is_some_and(|id| id.index() > 0))
            .count();
        assert!(rows > 0, "lattice never lands on a row box");
        assert!(rows < points.len(), "lattice never lands on bare body");
    }
}

//! Criterion benches for the interaction half: trajectory synthesis,
//! action-chain execution, the browser event pipeline, typing/scroll
//! planners, and the statistical detectors.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hlisa::motion::{plan_motion, MotionStyle};
use hlisa::scrolling::plan_hlisa_scroll;
use hlisa::typing::plan_hlisa_typing;
use hlisa::HlisaActionChains;
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig, Point, RawInput};
use hlisa_detect::reference::TYPING_TASK_TEXT;
use hlisa_human::HumanParams;
use hlisa_sim::SimContext;
use hlisa_stats::ks::ks_two_sample;
use hlisa_stats::rngutil::rng_from_seed;
use hlisa_stats::wilcoxon::{wilcoxon_signed_rank, Alternative};
use hlisa_stats::Normal;
use hlisa_webdriver::{By, SeleniumActionChains, Session};
use rand::Rng;

fn bench_motion(c: &mut Criterion) {
    let params = HumanParams::paper_baseline();
    let mut group = c.benchmark_group("motion/plan");
    for (name, style) in [
        ("hlisa", MotionStyle::hlisa()),
        ("naive_bezier", MotionStyle::naive_bezier()),
    ] {
        group.bench_function(name, |b| {
            let mut ctx = SimContext::new(1);
            b.iter(|| {
                plan_motion(
                    style,
                    &params,
                    &mut ctx,
                    Point::new(100.0, 500.0),
                    Point::new(900.0, 300.0),
                    40.0,
                )
            })
        });
    }
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    let params = HumanParams::paper_baseline();
    c.bench_function("typing/plan_hlisa_100_chars", |b| {
        let mut ctx = SimContext::new(2);
        b.iter(|| plan_hlisa_typing(&params, &mut ctx, TYPING_TASK_TEXT))
    });
    c.bench_function("scroll/plan_hlisa_30000px", |b| {
        let mut ctx = SimContext::new(3);
        b.iter(|| plan_hlisa_scroll(&params, &mut ctx, 30_000.0))
    });
}

fn bench_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("chains/full_form_fill");
    group.sample_size(30);
    group.bench_function("hlisa", |b| {
        b.iter_batched(
            || {
                Session::new(Browser::open(
                    BrowserConfig::webdriver(),
                    standard_test_page("https://bench.test/", 5_000.0),
                ))
            },
            |mut s| {
                let el = s.find_element(By::Id("text_area".into())).unwrap();
                HlisaActionChains::new(1)
                    .send_keys_to_element(el, "benchmark input")
                    .perform(&mut s)
                    .unwrap();
                s
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("selenium", |b| {
        b.iter_batched(
            || {
                Session::new(Browser::open(
                    BrowserConfig::webdriver(),
                    standard_test_page("https://bench.test/", 5_000.0),
                ))
            },
            |mut s| {
                let el = s.find_element(By::Id("text_area".into())).unwrap();
                SeleniumActionChains::new()
                    .send_keys_to_element(el, "benchmark input")
                    .perform(&mut s)
                    .unwrap();
                s
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_event_pipeline(c: &mut Criterion) {
    c.bench_function("browser/1000_raw_pointer_events", |b| {
        b.iter_batched(
            || {
                Browser::open(
                    BrowserConfig::regular(),
                    standard_test_page("https://bench.test/", 5_000.0),
                )
            },
            |mut browser| {
                for i in 0..1_000 {
                    browser.input_after(
                        1.0,
                        RawInput::MouseMove {
                            x: f64::from(i % 1_000),
                            y: f64::from(i % 600),
                        },
                    );
                }
                browser
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_stats(c: &mut Criterion) {
    let mut rng = rng_from_seed(9);
    let d = Normal::new(100.0, 20.0);
    let a: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
    let b2: Vec<f64> = (0..500)
        .map(|_| d.sample(&mut rng) + rng.gen_range(-1.0..1.0))
        .collect();
    c.bench_function("stats/ks_two_sample_500", |b| {
        b.iter(|| ks_two_sample(&a, &b2))
    });
    c.bench_function("stats/wilcoxon_500_pairs", |b| {
        b.iter(|| wilcoxon_signed_rank(&a, &b2, Alternative::TwoSided))
    });
}

criterion_group!(
    benches,
    bench_motion,
    bench_planners,
    bench_chains,
    bench_event_pipeline,
    bench_stats
);
criterion_main!(benches);

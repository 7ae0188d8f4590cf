//! Core-scaling benchmark for the sharded campaign engine.
//!
//! Sweeps the worker count over a large lazily-sharded population and
//! emits `BENCH_parallel.json` with, per `instances` value:
//!
//! * visits/sec and elapsed wall time, the median of [`SWEEP_REPEATS`]
//!   runs, with the runs' spread (`(max - min) / median`);
//! * speedup vs the 1-worker run, parallel efficiency
//!   (`speedup / instances`) and efficiency normalised to the physical
//!   core count (`speedup / min(instances, cores)` — oversubscribed
//!   workers beyond the cores can't speed anything up);
//! * the peak-RSS proxy: bytes of population materialised at once
//!   (`peak resident shards × shard bytes`), against the bytes an eager
//!   `generate_population` would pin for the whole campaign.
//!
//! A final `batch_plan` section runs the same campaign at the core-count
//! worker level with the batch interaction planner off and on: the two
//! outcome tables must be bit-identical (the plan draws from a forked
//! context), and the throughput delta is the cost of synthesising every
//! successful visit's full interaction plan at campaign pace.
//!
//! Every sweep entry must also produce identical per-shard summaries —
//! the benchmark doubles as a scale check of the bit-identical-for-any-
//! `instances` property on a population far larger than the test suite's.
//!
//! Timing here reads the *wall clock on purpose*: the benchmark measures
//! real elapsed cost, and its numbers feed a JSON report, never a
//! simulated observable, so the determinism fence does not apply. The
//! residency high-water mark is a measurement too: it records how much
//! thread overlap the OS actually scheduled, so like elapsed time it can
//! vary run to run — only its bound (`peak <= workers`) is guaranteed.

use hlisa_crawler::campaign::{
    run_machine, run_machine_shard_summaries, CampaignConfig, Pipeline, SiteSource,
};
use hlisa_stats::Summary;
use hlisa_web::{generate_population, sites_bytes, ClientKind, PopulationConfig, PopulationShards};
use std::time::Duration;

/// Benchmark sizing.
#[derive(Debug, Clone)]
pub struct ParallelBenchConfig {
    /// Sites in the campaign population.
    pub n_sites: usize,
    /// Visits per site (1 at scale: the sweep measures scheduling, not
    /// per-site repetition).
    pub visits_per_site: usize,
    /// Shard granularity for claiming and lazy materialisation.
    pub shard_size: usize,
    /// Worker counts to sweep (deduplicated, in order).
    pub instance_sweep: Vec<usize>,
}

/// Timed runs per worker count. Each repetition sweeps every count in
/// turn, so a drift in host speed lands on all counts alike.
pub const SWEEP_REPEATS: usize = 5;

/// Worker counts the sweep always probes, plus the machine's core count.
fn sweep_with_max() -> Vec<usize> {
    dedup_sweep(vec![1, 2, 4, 8, available_cores()])
}

/// A worker-count sweep in ascending order with each count once — the
/// machine's core count often coincides with a fixed probe.
fn dedup_sweep(mut sweep: Vec<usize>) -> Vec<usize> {
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// The machine's available parallelism (1 if undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ParallelBenchConfig {
    /// The default run: a 100K-site campaign.
    pub fn full() -> Self {
        Self {
            n_sites: 100_000,
            visits_per_site: 1,
            shard_size: 256,
            instance_sweep: sweep_with_max(),
        }
    }

    /// A seconds-scale smoke run for CI.
    pub fn smoke() -> Self {
        Self {
            n_sites: 2_000,
            visits_per_site: 1,
            shard_size: 128,
            instance_sweep: sweep_with_max(),
        }
    }
}

/// What one worker-count run measured.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Workers requested.
    pub instances: usize,
    /// Median elapsed wall time over the repetitions.
    pub elapsed_s: f64,
    /// `(max - min) / median` of the repetitions' elapsed times.
    pub spread: f64,
    /// Visits completed per second.
    pub visits_per_sec: f64,
    /// Throughput ratio vs the 1-worker entry.
    pub speedup_vs_1: f64,
    /// `speedup / instances`.
    pub efficiency: f64,
    /// `speedup / min(instances, cores)` — what the hardware could give.
    pub efficiency_at_cores: f64,
    /// High-water mark of concurrently materialised shards, over all
    /// repetitions.
    pub peak_resident_shards: usize,
    /// Peak-RSS proxy: peak resident shards × representative shard bytes.
    pub peak_materialised_bytes: usize,
}

/// Campaign throughput with the batch interaction planner off vs on, at
/// the core-count worker level. Planning synthesises every successful
/// visit's full interaction plan (cursor samples, key transitions, wheel
/// ticks) on top of the visit outcome, so the delta between the two rows
/// is the per-visit cost of full-session interaction synthesis at
/// campaign scale.
#[derive(Debug, Clone)]
pub struct PlanThroughput {
    /// Visits driven by each run.
    pub visits: u64,
    /// Elapsed seconds with planning off.
    pub off_s: f64,
    /// Elapsed seconds with planning on.
    pub on_s: f64,
    /// Planned actions across all successful visits.
    pub actions: u64,
    /// Planned cursor samples across all successful visits.
    pub samples: u64,
    /// Planned key transitions across all successful visits.
    pub keys: u64,
    /// Planned wheel ticks across all successful visits.
    pub ticks: u64,
}

impl PlanThroughput {
    /// Visits/sec with planning off.
    pub fn off_rate(&self) -> f64 {
        self.visits as f64 / self.off_s.max(1e-12)
    }

    /// Visits/sec with planning on.
    pub fn on_rate(&self) -> f64 {
        self.visits as f64 / self.on_s.max(1e-12)
    }

    /// Throughput retained with planning on (`on_rate / off_rate`).
    pub fn throughput_ratio(&self) -> f64 {
        self.on_rate() / self.off_rate().max(1e-12)
    }
}

/// One shard's folded results — tiny, so a 1M-site campaign keeps one of
/// these per shard instead of a `SiteResult` per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardSummary {
    sites: usize,
    reached: usize,
    successes: usize,
    detected: usize,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct ParallelBenchReport {
    /// Sizing used.
    pub config: ParallelBenchConfig,
    /// Physical parallelism of the benchmarking machine.
    pub cores: usize,
    /// Bytes an eager population pins for the whole campaign.
    pub eager_population_bytes: usize,
    /// Standing bytes of the lazy layer's bookkeeping.
    pub shard_bookkeeping_bytes: usize,
    /// Seconds to eagerly generate the whole population.
    pub eager_generation_s: f64,
    /// Seconds for the lazy layer's skeleton pass.
    pub shard_setup_s: f64,
    /// One entry per swept worker count.
    pub sweep: Vec<SweepEntry>,
    /// Efficiency of the entry whose `instances` equals the core count.
    pub efficiency_at_max_cores: f64,
    /// Campaign throughput with the batch interaction planner off vs on.
    pub batch_plan: PlanThroughput,
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed(), out)
}

fn campaign_config(bench: &ParallelBenchConfig, instances: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        population: PopulationConfig {
            n_sites: bench.n_sites,
            ..PopulationConfig::default()
        },
        visits_per_site: bench.visits_per_site,
        instances,
        ..CampaignConfig::default()
    }
}

/// Runs the whole sweep, once per distinct worker count.
pub fn run(mut config: ParallelBenchConfig) -> ParallelBenchReport {
    config.instance_sweep = dedup_sweep(std::mem::take(&mut config.instance_sweep));
    let cores = available_cores();
    let population = PopulationConfig {
        n_sites: config.n_sites,
        ..PopulationConfig::default()
    };

    // The memory story: what the eager path pins vs what the lazy layer
    // keeps standing. The eager population is dropped before the sweep —
    // only the shard layer exists while workers run.
    let (eager_t, eager_bytes) = timed(|| {
        let sites = generate_population(&population);
        sites_bytes(&sites)
    });
    let (setup_t, shards) =
        timed(|| PopulationShards::with_shard_size(&population, config.shard_size));
    let shard_bytes = sites_bytes(&shards.generate_shard(0));

    let summarise = |_k: usize, results: Vec<hlisa_crawler::SiteResult>| ShardSummary {
        sites: results.len(),
        reached: results.iter().filter(|r| r.reached()).count(),
        successes: results.iter().map(|r| r.successful_visits()).sum(),
        detected: results
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| o.detected)
            .count(),
    };

    let visits = (config.n_sites * config.visits_per_site) as f64;
    let mut reference: Option<Vec<ShardSummary>> = None;
    let points = config.instance_sweep.len();
    let mut times = vec![Vec::new(); points];
    let mut peaks = vec![0usize; points];
    for _ in 0..SWEEP_REPEATS {
        for (point, &instances) in config.instance_sweep.iter().enumerate() {
            // Fresh shard layer per run so the residency high-water mark
            // is this run's, not the sweep's.
            let shards = PopulationShards::with_shard_size(&population, config.shard_size);
            let cfg = campaign_config(&config, instances);
            let (t, summaries) = timed(|| {
                run_machine_shard_summaries(&cfg, &shards, ClientKind::OpenWpm, &summarise)
            });
            // Scale check: every run folds to the same summaries.
            match &reference {
                None => reference = Some(summaries),
                Some(want) => assert_eq!(
                    &summaries, want,
                    "{instances}-worker run diverged from the first run"
                ),
            }
            times[point].push(t.as_secs_f64());
            peaks[point] = peaks[point].max(shards.peak_resident_shards());
        }
    }

    let stats: Vec<Summary> = times.iter().map(|t| Summary::of(t)).collect();
    let base_s = stats.first().map_or(0.0, |s| s.median);
    let sweep: Vec<SweepEntry> = config
        .instance_sweep
        .iter()
        .zip(stats.iter().zip(peaks))
        .map(|(&instances, (times, peak))| {
            let elapsed_s = times.median;
            let speedup = base_s / elapsed_s.max(1e-12);
            SweepEntry {
                instances,
                elapsed_s,
                spread: (times.max - times.min) / elapsed_s.max(1e-12),
                visits_per_sec: visits / elapsed_s.max(1e-12),
                speedup_vs_1: speedup,
                efficiency: speedup / instances as f64,
                efficiency_at_cores: speedup / instances.min(cores).max(1) as f64,
                peak_resident_shards: peak,
                peak_materialised_bytes: peak * shard_bytes,
            }
        })
        .collect();

    let efficiency_at_max_cores = sweep
        .iter()
        .find(|e| e.instances == cores)
        .map_or(0.0, |e| e.efficiency);

    // Planner off vs on over the same campaign at the core-count worker
    // level. The outcome table must be bit-identical either way — the
    // plan draws from a forked context, never the visit stream.
    let sites = generate_population(&population);
    let source = SiteSource::slice(&sites);
    let off_cfg = campaign_config(&config, cores);
    let on_cfg = CampaignConfig {
        plan_interactions: true,
        ..off_cfg.clone()
    };
    let machine =
        |cfg: &CampaignConfig| run_machine(cfg, &source, ClientKind::OpenWpm, &Pipeline::default());
    let (off_t, baseline) = timed(|| machine(&off_cfg));
    let (on_t, planned) = timed(|| machine(&on_cfg));
    let totals = planned.plan_totals;
    assert_eq!(
        baseline.run, planned.run,
        "planned campaign diverged from the unplanned run"
    );
    let batch_plan = PlanThroughput {
        visits: (config.n_sites * config.visits_per_site) as u64,
        off_s: off_t.as_secs_f64(),
        on_s: on_t.as_secs_f64(),
        actions: totals.actions,
        samples: totals.samples,
        keys: totals.keys,
        ticks: totals.ticks,
    };

    ParallelBenchReport {
        config,
        cores,
        eager_population_bytes: eager_bytes,
        shard_bookkeeping_bytes: shards.bookkeeping_bytes(),
        eager_generation_s: eager_t.as_secs_f64(),
        shard_setup_s: setup_t.as_secs_f64(),
        sweep,
        efficiency_at_max_cores,
        batch_plan,
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

impl ParallelBenchReport {
    /// Serializes the report (hand-rolled: the workspace vendors no JSON
    /// writer and the schema is one flat object plus a sweep array).
    pub fn to_json(&self) -> String {
        let sweep_rows: Vec<String> = self
            .sweep
            .iter()
            .map(|e| {
                format!(
                    concat!(
                        "    {{\"instances\": {}, \"elapsed_s\": {}, \"spread\": {}, ",
                        "\"visits_per_sec\": {}, \"speedup_vs_1\": {}, ",
                        "\"efficiency\": {}, \"efficiency_at_cores\": {}, ",
                        "\"peak_resident_shards\": {}, \"peak_materialised_bytes\": {}}}"
                    ),
                    e.instances,
                    json_num(e.elapsed_s),
                    json_num(e.spread),
                    json_num(e.visits_per_sec),
                    json_num(e.speedup_vs_1),
                    json_num(e.efficiency),
                    json_num(e.efficiency_at_cores),
                    e.peak_resident_shards,
                    e.peak_materialised_bytes,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"hlisa parallel campaign scaling (lazy shards + claiming workers)\",\n",
                "  \"config\": {{\"n_sites\": {}, \"visits_per_site\": {}, \"shard_size\": {}, ",
                "\"repeats\": {}}},\n",
                "  \"cores\": {},\n",
                "  \"population\": {{\"eager_bytes\": {}, \"shard_bookkeeping_bytes\": {}, ",
                "\"eager_generation_s\": {}, \"shard_setup_s\": {}}},\n",
                "  \"sweep\": [\n{}\n  ],\n",
                "  \"parallel_efficiency_at_max_cores\": {},\n",
                "  \"batch_plan\": {{\"visits\": {}, \"plan_off_s\": {}, \"plan_on_s\": {}, ",
                "\"plan_off_visits_per_sec\": {}, \"plan_on_visits_per_sec\": {}, ",
                "\"throughput_ratio\": {}, \"actions\": {}, \"samples\": {}, ",
                "\"keys\": {}, \"ticks\": {}}}\n",
                "}}\n"
            ),
            self.config.n_sites,
            self.config.visits_per_site,
            self.config.shard_size,
            SWEEP_REPEATS,
            self.cores,
            self.eager_population_bytes,
            self.shard_bookkeeping_bytes,
            json_num(self.eager_generation_s),
            json_num(self.shard_setup_s),
            sweep_rows.join(",\n"),
            json_num(self.efficiency_at_max_cores),
            self.batch_plan.visits,
            json_num(self.batch_plan.off_s),
            json_num(self.batch_plan.on_s),
            json_num(self.batch_plan.off_rate()),
            json_num(self.batch_plan.on_rate()),
            json_num(self.batch_plan.throughput_ratio()),
            self.batch_plan.actions,
            self.batch_plan.samples,
            self.batch_plan.keys,
            self.batch_plan.ticks,
        )
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            concat!(
                "parallel campaign scaling ({} sites, shard {}, {} core(s))\n",
                "population: eager {} KiB pinned vs {} KiB shard bookkeeping\n"
            ),
            self.config.n_sites,
            self.config.shard_size,
            self.cores,
            self.eager_population_bytes / 1024,
            self.shard_bookkeeping_bytes / 1024,
        );
        for e in &self.sweep {
            out.push_str(&format!(
                concat!(
                    "  instances {:>3}: {:>10.0} visits/s (spread {:>4.2})  speedup {:>5.2}x  ",
                    "eff {:>5.2}  eff@cores {:>5.2}  peak {} shard(s) ({} KiB)\n"
                ),
                e.instances,
                e.visits_per_sec,
                e.spread,
                e.speedup_vs_1,
                e.efficiency,
                e.efficiency_at_cores,
                e.peak_resident_shards,
                e.peak_materialised_bytes / 1024,
            ));
        }
        out.push_str(&format!(
            "efficiency at max cores: {:.2}\n",
            self.efficiency_at_max_cores
        ));
        out.push_str(&format!(
            concat!(
                "batch planner: {:.0} visits/s off -> {:.0} visits/s on ",
                "({:.0}% retained; {} actions, {} samples planned)\n"
            ),
            self.batch_plan.off_rate(),
            self.batch_plan.on_rate(),
            self.batch_plan.throughput_ratio() * 100.0,
            self.batch_plan.actions,
            self.batch_plan.samples,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed_and_efficient_at_max_cores() {
        // On a 1- or 2-core host the core count repeats a fixed probe;
        // the sweep runs each distinct count once whatever the host.
        let cfg = ParallelBenchConfig {
            n_sites: 300,
            visits_per_site: 1,
            shard_size: 32,
            instance_sweep: vec![1, 2, available_cores()],
        };
        let report = run(cfg);
        let want = dedup_sweep(vec![1, 2, available_cores()]);
        let ran: Vec<usize> = report.sweep.iter().map(|e| e.instances).collect();
        assert_eq!(ran, want);
        // The 1-worker entry is its own baseline.
        let first = &report.sweep[0];
        assert!((first.speedup_vs_1 - 1.0).abs() < 1e-9);
        assert!((first.efficiency - 1.0).abs() < 1e-9);
        // Laziness: no run ever materialised more shards than workers.
        for e in &report.sweep {
            assert!(
                e.peak_resident_shards <= e.instances,
                "instances {}: {} shards resident",
                e.instances,
                e.peak_resident_shards
            );
            assert!(e.peak_resident_shards >= 1);
            assert!(e.spread >= 0.0);
            assert!(e.peak_materialised_bytes < report.eager_population_bytes);
        }
        // The planner drove real visits and synthesised real interaction.
        assert!(report.batch_plan.actions > 0);
        assert!(report.batch_plan.samples > report.batch_plan.actions);
        let json = report.to_json();
        for field in [
            "\"sweep\"",
            "\"repeats\": 5",
            "\"spread\"",
            "\"parallel_efficiency_at_max_cores\"",
            "\"peak_resident_shards\"",
            "\"eager_bytes\"",
            "\"batch_plan\"",
            "\"throughput_ratio\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let human = report.render_human();
        assert!(human.contains("efficiency at max cores"));
        assert!(human.contains("batch planner"));
    }
}

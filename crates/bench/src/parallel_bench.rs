//! Core-scaling benchmark for the sharded campaign engine.
//!
//! Sweeps the worker count over a large lazily-sharded population and
//! emits `BENCH_parallel.json` with:
//!
//! * one `instances_N` section per worker count: visits/sec over the
//!   [`REPEATS`] runs, where each repetition sweeps every count in turn
//!   so a drift in host speed lands on all counts alike;
//! * per count, the facts `speedup_vs_1`, parallel `efficiency`
//!   (`speedup / instances`), `efficiency_at_cores` (`speedup /
//!   min(instances, cores)` — oversubscribed workers beyond the cores
//!   can't speed anything up), and the peak-RSS proxy: bytes of
//!   population materialised at once (`peak resident shards × shard
//!   bytes`), against the `eager_bytes` an eager `generate_population`
//!   would pin for the whole campaign;
//! * `population_setup`: eager generation (baseline) vs the lazy layer's
//!   skeleton pass over the same population.
//!
//! A final `batch_plan` section runs the same campaign at the core-count
//! worker level with the batch interaction planner off (baseline) and on:
//! the two outcome tables must be bit-identical (the plan draws from a
//! forked context), and the throughput ratio is the cost of synthesising
//! every successful visit's full interaction plan at campaign pace.
//!
//! Every sweep run must also produce identical per-shard summaries — the
//! benchmark doubles as a scale check of the bit-identical-for-any-
//! `instances` property on a population far larger than the test suite's.
//!
//! The residency high-water mark is a measurement too: it records how
//! much thread overlap the OS actually scheduled, so like elapsed time it
//! can vary run to run — only its bound (`peak <= workers`) is
//! guaranteed.

use crate::harness::{available_cores, compare, rounds, Report, Section, REPEATS};
use hlisa_crawler::campaign::{
    run_machine, run_machine_shard_summaries, CampaignConfig, Pipeline, SiteSource,
};
use hlisa_web::{generate_population, sites_bytes, ClientKind, PopulationConfig, PopulationShards};

/// Benchmark sizing.
#[derive(Debug, Clone)]
pub struct BenchConfig {
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

impl BenchConfig {
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

/// One shard's folded results — tiny, so a 1M-site campaign keeps one of
/// these per shard instead of a `SiteResult` per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardSummary {
    sites: usize,
    reached: usize,
    successes: usize,
    detected: usize,
}

fn campaign_config(bench: &BenchConfig, instances: usize) -> CampaignConfig {
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
pub fn run(mut config: BenchConfig) -> Report {
    config.instance_sweep = dedup_sweep(std::mem::take(&mut config.instance_sweep));
    let cores = available_cores();
    let population = PopulationConfig {
        n_sites: config.n_sites,
        ..PopulationConfig::default()
    };
    let mut report = Report::new(
        "hlisa parallel campaign scaling (lazy shards + claiming workers)",
        vec![
            ("n_sites", config.n_sites as u64),
            ("visits_per_site", config.visits_per_site as u64),
            ("shard_size", config.shard_size as u64),
        ],
    );

    // The memory story: what the eager path pins vs what the lazy layer
    // keeps standing. The eager population is dropped before the sweep —
    // only the shard layer exists while workers run.
    let (setup, eager_bytes, bookkeeping_bytes) = compare(
        "population_setup",
        "sites",
        config.n_sites as u64,
        || sites_bytes(&generate_population(&population)),
        || PopulationShards::with_shard_size(&population, config.shard_size).bookkeeping_bytes(),
    );
    let shard_bytes = sites_bytes(
        &PopulationShards::with_shard_size(&population, config.shard_size).generate_shard(0),
    );

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

    let visits = (config.n_sites * config.visits_per_site) as u64;
    let sweep = &config.instance_sweep;
    // A fresh shard layer per run, built off the clock, so each
    // residency high-water mark is that run's, not the sweep's.
    let mut layers = (0..REPEATS * sweep.len())
        .map(|_| PopulationShards::with_shard_size(&population, config.shard_size))
        .collect::<Vec<_>>()
        .into_iter();
    let mut reference: Option<Vec<ShardSummary>> = None;
    let mut peaks = vec![0usize; sweep.len()];
    let timings = rounds(sweep.len(), |point| {
        let shards = layers.next().expect("one shard layer per run");
        let cfg = campaign_config(&config, sweep[point]);
        let summaries = run_machine_shard_summaries(&cfg, &shards, ClientKind::OpenWpm, &summarise);
        // Scale check: every run folds to the same summaries.
        match &reference {
            None => reference = Some(summaries),
            Some(want) => assert_eq!(
                &summaries, want,
                "{}-worker run diverged from the first run",
                sweep[point]
            ),
        }
        peaks[point] = peaks[point].max(shards.peak_resident_shards());
    });

    let base_s = timings.first().map_or(0.0, |(t, ())| t.median_s);
    for ((&instances, (time, ())), peak) in sweep.iter().zip(timings).zip(peaks) {
        let name = format!("instances_{instances}");
        let speedup = base_s / time.median_s.max(1e-12);
        report.fact(format!("{name}.speedup_vs_1"), speedup);
        report.fact(format!("{name}.efficiency"), speedup / instances as f64);
        report.fact(
            format!("{name}.efficiency_at_cores"),
            speedup / instances.min(cores).max(1) as f64,
        );
        report.fact(format!("{name}.peak_resident_shards"), peak as f64);
        report.fact(
            format!("{name}.peak_materialised_bytes"),
            (peak * shard_bytes) as f64,
        );
        report.sections.push(Section {
            name,
            unit: "visits".to_string(),
            ops: visits,
            time,
            baseline: None,
        });
    }
    report.fact("eager_bytes", eager_bytes as f64);
    report.fact("shard_bookkeeping_bytes", bookkeeping_bytes as f64);
    report.sections.push(setup);

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
    let (batch_plan, baseline, planned) = compare(
        "batch_plan",
        "visits",
        visits,
        || machine(&off_cfg),
        || machine(&on_cfg),
    );
    assert_eq!(
        baseline.run, planned.run,
        "planned campaign diverged from the unplanned run"
    );
    let totals = planned.plan_totals;
    report.fact("plan_actions", totals.actions as f64);
    report.fact("plan_samples", totals.samples as f64);
    report.fact("plan_keys", totals.keys as f64);
    report.fact("plan_ticks", totals.ticks as f64);
    report.sections.push(batch_plan);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_well_formed_and_efficient_at_max_cores() {
        // On a 1- or 2-core host the core count repeats a fixed probe;
        // the sweep runs each distinct count once whatever the host.
        let cfg = BenchConfig {
            n_sites: 300,
            visits_per_site: 1,
            shard_size: 32,
            instance_sweep: vec![1, 2, available_cores()],
        };
        let report = run(cfg);
        let want: Vec<String> = dedup_sweep(vec![1, 2, available_cores()])
            .iter()
            .map(|n| format!("instances_{n}"))
            .collect();
        let ran: Vec<&str> = report
            .sections
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("instances_"))
            .collect();
        assert_eq!(ran, want);
        // The 1-worker entry is its own baseline.
        let fact = |name: &str| report.get_fact(name).expect(name);
        assert!((fact("instances_1.speedup_vs_1") - 1.0).abs() < 1e-9);
        assert!((fact("instances_1.efficiency") - 1.0).abs() < 1e-9);
        // Laziness: no run ever materialised more shards than workers.
        for name in &want {
            let instances: f64 = name["instances_".len()..].parse().unwrap();
            let peak = fact(&format!("{name}.peak_resident_shards"));
            assert!(peak <= instances, "{name}: {peak} shards resident");
            assert!(peak >= 1.0);
            assert!(report.section(name).unwrap().time.spread >= 0.0);
            assert!(fact(&format!("{name}.peak_materialised_bytes")) < fact("eager_bytes"));
        }
        // The planner drove real visits and synthesised real interaction.
        assert!(fact("plan_actions") > 0.0);
        assert!(fact("plan_samples") > fact("plan_actions"));
        for name in ["population_setup", "batch_plan"] {
            assert!(report.section(name).unwrap().speedup().is_some());
        }
        assert!(report.render_human().contains("batch_plan"));
    }
}

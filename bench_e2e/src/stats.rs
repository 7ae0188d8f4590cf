//! What a round simulated, folded into counts and one digest.
//!
//! Every statistic here is simulated, not timed: for a fixed seed and
//! workload it repeats exactly, whatever the schedule, the worker count or
//! whether the round ran through the public runners or the traced mirror.
//! A change that only makes the program faster must leave the digest
//! unchanged.

use hlisa_crawler::{ChaosCampaign, MachineRun, ReliabilityStudy, SiteResult};
use hlisa_sim::CounterSet;

/// Slots in the visual-outcome histogram (`VisualOutcome as usize`; the
/// enum has 15 fieldless variants).
const VISUAL_SLOTS: usize = 16;
/// HTTP status codes are three-digit.
const STATUS_SPACE: usize = 1_000;

/// One machine's (or one machine-and-capture-mode's) simulated totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Sites crawled.
    pub sites: u64,
    /// Visits planned: sites × visits per site.
    pub planned: u64,
    /// Visit outcomes produced. Fewer than `planned` only when a worker
    /// died and its shard degraded to zero-outcome rows.
    pub produced: u64,
    /// Visits that reached their site.
    pub reached: u64,
    /// Visits that completed.
    pub successful: u64,
    /// Visits on which the site's detector fired.
    pub detected: u64,
    /// Visual-outcome histogram.
    pub visual: [u64; VISUAL_SLOTS],
    /// HTTP status counts keyed by `third_party << 16 | status`, sorted.
    pub codes: Vec<(u32, u64)>,
}

impl MachineStats {
    /// Folds a batch of site results (a shard, or a whole machine run).
    pub fn of_sites(results: &[SiteResult], visits_per_site: usize) -> Self {
        let mut stats = MachineStats::default();
        // Status counts go to a flat table first: a visit carries dozens
        // of codes, and the fold runs inside the measured workers.
        let mut codes = [0u64; 2 * STATUS_SPACE];
        for site in results {
            stats.sites += 1;
            stats.planned += visits_per_site as u64;
            for o in &site.outcomes {
                stats.produced += 1;
                stats.reached += u64::from(o.reached);
                stats.successful += u64::from(o.successful);
                stats.detected += u64::from(o.detected);
                stats.visual[o.visual as usize] += 1;
                for &status in &o.first_party {
                    codes[usize::from(status)] += 1;
                }
                for &status in &o.third_party {
                    codes[STATUS_SPACE + usize::from(status)] += 1;
                }
            }
        }
        stats.codes = (0..2 * STATUS_SPACE)
            .filter(|&i| codes[i] > 0)
            .map(|i| {
                let (party, status) = (i / STATUS_SPACE, i % STATUS_SPACE);
                ((party as u32) << 16 | status as u32, codes[i])
            })
            .collect();
        stats
    }

    fn add_code(&mut self, key: u32, n: u64) {
        match self.codes.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.codes[i].1 += n,
            Err(i) => self.codes.insert(i, (key, n)),
        }
    }

    /// Adds another batch's totals.
    pub fn merge(&mut self, other: &MachineStats) {
        self.sites += other.sites;
        self.planned += other.planned;
        self.produced += other.produced;
        self.reached += other.reached;
        self.successful += other.successful;
        self.detected += other.detected;
        for (a, b) in self.visual.iter_mut().zip(&other.visual) {
            *a += b;
        }
        for &(key, n) in &other.codes {
            self.add_code(key, n);
        }
    }
}

/// Everything one round simulated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundStats {
    /// Per-machine totals, labelled (`m1`, `chaos.m2`, `naive_lossy.m1`…).
    pub machines: Vec<(String, MachineStats)>,
    /// Recovery and capture counters, labelled and in canonical order.
    pub counters: Vec<(String, u64)>,
    /// Naive-capture drift: `(metric, pristine, observed, relative error)`.
    pub drift: Vec<(String, f64, f64, f64)>,
    /// Naive-capture conclusion flips.
    pub flips: Vec<String>,
    /// Whether strengthened capture drifted from pristine (it must not).
    pub strengthened_drifted: bool,
}

impl RoundStats {
    /// Visits planned across all machines and capture modes.
    pub fn planned(&self) -> u64 {
        self.machines.iter().map(|(_, m)| m.planned).sum()
    }

    /// Planned visits that produced no outcome (degraded rows).
    pub fn failed(&self) -> u64 {
        self.machines
            .iter()
            .map(|(_, m)| m.planned - m.produced)
            .sum()
    }

    /// A counter's value (0 when it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Adds one lazily-crawled machine's shard summaries.
    pub fn add_machine(&mut self, label: &str, shards: &[MachineStats]) {
        let mut total = MachineStats::default();
        for shard in shards {
            total.merge(shard);
        }
        self.machines.push((label.to_string(), total));
    }

    fn add_run(&mut self, label: &str, run: &MachineRun, visits_per_site: usize) {
        self.machines.push((
            label.to_string(),
            MachineStats::of_sites(&run.sites, visits_per_site),
        ));
    }

    fn add_counters(&mut self, prefix: &str, counters: &CounterSet) {
        for (name, value) in counters.sorted().entries() {
            self.counters.push((format!("{prefix}.{name}"), *value));
        }
    }

    /// Adds a chaos campaign: both machines, the merged `fault.*` /
    /// `retry.*` / `breaker.*` counters, and the recovery records' totals.
    pub fn add_chaos(&mut self, chaos: &ChaosCampaign, visits_per_site: usize) {
        self.add_run("chaos.m1", &chaos.campaign.openwpm, visits_per_site);
        self.add_run("chaos.m2", &chaos.campaign.spoofed, visits_per_site);
        self.add_counters("chaos", &chaos.counters());
        let recoveries = [&chaos.openwpm_recovery, &chaos.spoofed_recovery];
        let sites = recoveries.iter().flat_map(|r| &r.sites);
        let (mut attempts, mut open) = (0u64, 0u64);
        for site in sites {
            attempts += u64::from(site.total_attempts());
            open += u64::from(site.breaker_open);
        }
        self.counters
            .push(("chaos.recovery.attempts".into(), attempts));
        self.counters
            .push(("chaos.recovery.breaker_open_sites".into(), open));
    }

    /// Adds a reliability study: all three capture modes, their capture
    /// analytics and the naive-vs-pristine drift.
    pub fn add_study(&mut self, study: &ReliabilityStudy, visits_per_site: usize) {
        for captured in [&study.pristine, &study.naive, &study.strengthened] {
            let mode = captured.mode.name();
            self.add_run(
                &format!("{mode}.m1"),
                &captured.campaign.openwpm,
                visits_per_site,
            );
            self.add_run(
                &format!("{mode}.m2"),
                &captured.campaign.spoofed,
                visits_per_site,
            );
            self.add_counters(mode, &captured.analytics);
        }
        for m in &study.naive_drift.metrics {
            self.drift
                .push((m.metric.clone(), m.pristine, m.observed, m.rel_error));
        }
        self.flips = study.naive_drift.conclusion_flips.clone();
        self.strengthened_drifted |= !study.strengthened_drift.is_zero();
    }

    /// FNV-1a over a canonical rendering of every statistic.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (label, m) in &self.machines {
            h.str(label);
            for v in [
                m.sites,
                m.planned,
                m.produced,
                m.reached,
                m.successful,
                m.detected,
            ] {
                h.u64(v);
            }
            m.visual.iter().for_each(|&v| h.u64(v));
            for &(key, n) in &m.codes {
                h.u64(u64::from(key));
                h.u64(n);
            }
        }
        for (name, v) in &self.counters {
            h.str(name);
            h.u64(*v);
        }
        for (name, p, o, e) in &self.drift {
            h.str(name);
            [p, o, e].iter().for_each(|x| h.u64(x.to_bits()));
        }
        self.flips.iter().for_each(|f| h.str(f));
        h.u64(u64::from(self.strengthened_drifted));
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

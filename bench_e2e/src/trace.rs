//! Benchmark-side tracing: spans around calls into each layer's public
//! functions, recorded only by the traced drivers in `mirror.rs`.
//!
//! Each worker thread owns a [`Tracer`]: per span name a call count, total
//! nanoseconds and a log-linear latency histogram. Spans are of two kinds.
//! A *shard* span covers one worker's claim-to-summary of one shard and is
//! the parent of every span opened while it is open; every other span is a
//! leaf. The campaign layer's self time is therefore its shard spans minus
//! the leaf time inside them, plus its serial spans (runtime construction,
//! result collection).
//!
//! Full span records (name, start, end, parent, trace id = shard, and the
//! round's parallel phase the shard belongs to) are kept for every
//! [`RECORD_EVERY`]th shard of a run's first traced round, held in memory
//! and written as JSON lines when the run ends.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Full span records are kept for shards whose index is a multiple of this.
pub const RECORD_EVERY: usize = 64;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// A span name: one layer call the traced drivers time.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $($variant,)* }

        impl Span {
            /// Every span, in index order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// The span's dotted name.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    Shard => "crawler.campaign.shard",
    CampaignSerial => "crawler.campaign.serial",
    Population => "web.population",
    ForkVisit => "sim.context.fork_visit",
    VisitPlain => "web.visit.plain",
    VisitDetector => "web.visit.detector",
    SeleniumCookieBanner => "crawler.scenario.selenium.cookie_banner",
    SeleniumLazyContent => "crawler.scenario.selenium.lazy_content",
    SeleniumSpaMutation => "crawler.scenario.selenium.spa_mutation",
    HlisaCookieBanner => "crawler.scenario.hlisa.cookie_banner",
    HlisaLazyContent => "crawler.scenario.hlisa.lazy_content",
    HlisaSpaMutation => "crawler.scenario.hlisa.spa_mutation",
    FaultDraw => "sim.fault.draw",
    Recovery => "crawler.recovery",
    LossDraw => "sim.loss.draw",
    CaptureEmit => "web.capture.emit",
    ObserverPristine => "sim.observer.pristine",
    ObserverNaiveLossy => "sim.observer.naive_lossy",
    ObserverStrengthened => "sim.observer.strengthened",
    ObserverMerge => "sim.observer.merge",
    Drift => "crawler.reliability.drift",
    Fold => "bench.fold",
}

const N_SPANS: usize = Span::ALL.len();

/// Outcome tallies the drivers count where the work happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// Visit calls whose outcome was successful.
    VisitSuccess,
    /// Selenium scenario drives on successful, normal-looking visits.
    SeleniumEligible,
    /// ...of which the drive landed (the verdict stayed normal).
    SeleniumLanded,
    /// HLISA scenario drives on successful, normal-looking visits.
    HlisaEligible,
    /// ...of which the drive landed.
    HlisaLanded,
    /// Capture events emitted.
    CaptureEvents,
    /// Sites materialised by the population layer.
    SitesMaterialised,
}

const N_TALLIES: usize = Tally::SitesMaterialised as usize + 1;

/// Log-linear histogram buckets: exact below 16 ns, then 8 per octave.
const SUB: u32 = 8;
const BUCKETS: usize = 16 + 60 * SUB as usize;

fn bucket(ns: u64) -> usize {
    if ns < 16 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - 3)) & u64::from(SUB - 1);
    16 + ((octave - 4) * SUB) as usize + sub as usize
}

/// The `[low, high)` nanosecond range of a bucket.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < 16 {
        return (b as f64, b as f64 + 1.0);
    }
    let octave = (b - 16) as u32 / SUB + 4;
    let sub = (b - 16) as u64 % u64::from(SUB);
    let width = 1u64 << (octave - 3);
    let low = (1u64 << octave) + sub * width;
    (low as f64, (low + width) as f64)
}

/// Per-span totals: call count, nanoseconds and a latency histogram.
#[derive(Debug, Clone)]
pub struct Totals {
    count: [u64; N_SPANS],
    ns: [u64; N_SPANS],
    hist: Vec<[u64; BUCKETS]>,
    /// Leaf nanoseconds spent inside shard spans.
    pub child_ns: u64,
    tallies: [u64; N_TALLIES],
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            count: [0; N_SPANS],
            ns: [0; N_SPANS],
            hist: vec![[0; BUCKETS]; N_SPANS],
            child_ns: 0,
            tallies: [0; N_TALLIES],
        }
    }
}

impl Totals {
    fn add(&mut self, span: Span, ns: u64) {
        let i = span as usize;
        self.count[i] += 1;
        self.ns[i] += ns;
        self.hist[i][bucket(ns).min(BUCKETS - 1)] += 1;
    }

    /// Adds another thread's (or round's) totals.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..N_SPANS {
            self.count[i] += other.count[i];
            self.ns[i] += other.ns[i];
            for (a, b) in self.hist[i].iter_mut().zip(&other.hist[i]) {
                *a += b;
            }
        }
        self.child_ns += other.child_ns;
        for (a, b) in self.tallies.iter_mut().zip(&other.tallies) {
            *a += b;
        }
    }

    /// Calls of a span.
    pub fn count(&self, span: Span) -> u64 {
        self.count[span as usize]
    }

    /// Total nanoseconds in a span.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// A tally's value.
    pub fn tally(&self, tally: Tally) -> u64 {
        self.tallies[tally as usize]
    }

    /// The `q` quantile of a span's latency in nanoseconds, interpolated
    /// linearly inside its histogram bucket (0 when never called).
    pub fn quantile_ns(&self, span: Span, q: f64) -> f64 {
        let hist = &self.hist[span as usize];
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q * total as f64;
        let mut seen = 0u64;
        for (b, &n) in hist.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (low, high) = bucket_range(b);
                let within = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return low + (high - low) * within;
            }
            seen += n;
        }
        bucket_range(BUCKETS - 1).1
    }
}

/// One full span record.
#[derive(Debug, Clone, Copy)]
struct Record {
    phase: u32,
    trace: u32,
    id: u32,
    parent: Option<u32>,
    span: Span,
    start_ns: u64,
    end_ns: u64,
}

/// A worker's (or the main thread's) span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    phase: u32,
    /// Accumulated totals.
    pub totals: Totals,
    in_shard: bool,
    recording: Option<u32>,
    next_id: u32,
    records: Vec<Record>,
    /// When this thread finished its last shard (workers only).
    pub finished: Option<Instant>,
}

impl Tracer {
    /// A tracer whose records belong to parallel phase `phase` and count
    /// their timestamps from `epoch`.
    pub fn new(epoch: Instant, phase: u32) -> Self {
        Tracer {
            epoch,
            phase,
            totals: Totals::default(),
            in_shard: false,
            recording: None,
            next_id: 0,
            records: Vec::new(),
            finished: None,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as one call of `span`.
    #[inline]
    pub fn span<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        self.totals.add(span, ns);
        if self.in_shard {
            self.totals.child_ns += ns;
        }
        if let Some(trace) = self.recording {
            self.next_id += 1;
            self.records.push(Record {
                phase: self.phase,
                trace,
                id: self.next_id,
                parent: Some(0),
                span,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
            });
        }
        out
    }

    /// Opens shard `k`'s span; `record` keeps its full span records if
    /// `k` is a multiple of [`RECORD_EVERY`].
    pub fn begin_shard(&mut self, k: usize, record: bool) {
        self.in_shard = true;
        self.next_id = 0;
        self.recording = (record && k.is_multiple_of(RECORD_EVERY)).then_some(k as u32);
    }

    /// Closes the open shard span, begun at `claimed` (just before the
    /// worker claimed the shard).
    pub fn end_shard(&mut self, claimed: Instant) {
        let end = Instant::now();
        self.totals
            .add(Span::Shard, (end - claimed).as_nanos() as u64);
        if let Some(trace) = self.recording.take() {
            self.records.push(Record {
                phase: self.phase,
                trace,
                id: 0,
                parent: None,
                span: Span::Shard,
                start_ns: self.since_epoch(claimed),
                end_ns: self.since_epoch(end),
            });
        }
        self.in_shard = false;
    }

    /// Counts `n` of a tally.
    pub fn tally(&mut self, tally: Tally, n: u64) {
        self.totals.tallies[tally as usize] += n;
    }
}

/// One parallel phase of a traced round: a worker pool over one machine's
/// shards.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Worker threads.
    pub threads: usize,
    /// Wall time from before the spawn to after the join.
    pub wall: Duration,
    /// How long the last worker ran on after the first one ran out of
    /// shards.
    pub tail_idle: Duration,
}

/// What one traced round measured.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// Every thread's totals, merged.
    pub totals: Totals,
    /// The round's parallel phases.
    pub phases: Vec<Phase>,
    /// The round's wall time.
    pub wall: Duration,
    records: Vec<Record>,
}

impl RoundTrace {
    /// Folds a finished tracer into the round.
    pub fn absorb(&mut self, tracer: Tracer) {
        self.totals.merge(&tracer.totals);
        self.records.extend(tracer.records);
    }

    /// Worker capacity: serial time counts one thread, each parallel phase
    /// its thread count.
    pub fn capacity(&self) -> Duration {
        let parallel: Duration = self.phases.iter().map(|p| p.wall).sum();
        let busy: Duration = self.phases.iter().map(|p| p.wall * p.threads as u32).sum();
        busy + self.wall.saturating_sub(parallel)
    }

    /// Writes the span records as JSON lines.
    pub fn write_records(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut records = self.records.clone();
        records.sort_by_key(|r| (r.phase, r.trace, r.start_ns, r.id));
        for r in &records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"phase\": {}, \"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                r.phase,
                r.trace,
                r.id,
                parent,
                r.span.name(),
                r.start_ns,
                r.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for ns in [0u64, 1, 15, 16, 17, 100, 999, 1_000_000, 123_456_789] {
            let (low, high) = bucket_range(bucket(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns}: [{low}, {high})"
            );
        }
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut t = Totals::default();
        for ns in 1..=1_000u64 {
            t.add(Span::VisitPlain, ns * 100);
        }
        let p50 = t.quantile_ns(Span::VisitPlain, 0.5);
        let p99 = t.quantile_ns(Span::VisitPlain, 0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.07, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99 {p99}");
        assert_eq!(t.quantile_ns(Span::VisitDetector, 0.5), 0.0);
    }

    #[test]
    fn span_names_are_distinct() {
        for (i, a) in Span::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i);
            for b in &Span::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}

//! Human cursor trajectories.
//!
//! §4.1 (Fig. 1 B): human mouse movement "has an initial acceleration,
//! deceleration near the end of the trajectory, and moves in a jitterish
//! curved trajectory". The generator composes four components:
//!
//! * a *minimum-jerk* velocity profile (the standard model of aimed human
//!   movement): position progress `s(τ) = 10τ³ − 15τ⁴ + 6τ⁵`, giving
//!   smooth acceleration and deceleration;
//! * a curved path: a quadratic Bézier whose control point is displaced
//!   perpendicular to the chord by a sampled arc amplitude;
//! * small perpendicular jitter per sample (tremor), low-pass filtered so
//!   consecutive samples stay correlated like real tremor;
//! * for long movements, an aimed *primary stroke* that lands slightly
//!   off target followed by a brief corrective submovement — the
//!   two-phase kinematics Phillips & Triggs (2001) report for mouse
//!   cursor control.

use crate::params::HumanParams;
use hlisa_browser::Point;
use hlisa_sim::SimContext;
use hlisa_stats::Normal;
use rand::Rng;

/// One raw pointer sample of a generated trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Offset from movement start (ms).
    pub t_ms: f64,
    /// Page x.
    pub x: f64,
    /// Page y.
    pub y: f64,
}

/// Minimum-jerk progress function: fraction of path completed at normalised
/// time `tau` ∈ [0, 1].
pub fn min_jerk_progress(tau: f64) -> f64 {
    let tau = tau.clamp(0.0, 1.0);
    10.0 * tau.powi(3) - 15.0 * tau.powi(4) + 6.0 * tau.powi(5)
}

/// The RNG-free factors of one stroke sample: normalised time, minimum-jerk
/// progress, and the tremor envelope. These depend only on `(i, n)`, never
/// on the draw, so strokes with equal sample counts can share one
/// precomputed row instead of re-evaluating the polynomial and the sine per
/// sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BasisSample {
    /// Normalised time `i / n`.
    tau: f64,
    /// [`min_jerk_progress`] at `tau`.
    s: f64,
    /// `sin(π·tau)`, the tremor envelope at `tau`.
    envelope: f64,
}

/// Largest per-stroke sample count served from the shared basis table.
/// With the baseline 8 ms sample interval this covers strokes up to
/// ~1.5 s; longer (rare) strokes evaluate their row into a spill buffer.
const BASIS_SHARED_MAX_N: usize = 192;

static BASIS_ROWS: std::sync::OnceLock<Vec<Vec<BasisSample>>> = std::sync::OnceLock::new();

/// Sample `i` of an `n`-panel stroke's basis row — the exact expressions
/// the seed-era sample loop inlined. The shared table and the spill branch
/// of [`basis_row`] both evaluate this one formula.
fn basis_sample(i: usize, n: usize) -> BasisSample {
    let tau = i as f64 / n as f64;
    BasisSample {
        tau,
        s: min_jerk_progress(tau),
        envelope: (std::f64::consts::PI * tau).sin(),
    }
}

/// The basis row of an `n`-panel stroke (`n + 1` samples) as a contiguous
/// slice, without a per-stroke allocation. Rows within the shared bound
/// come straight from the process-wide table; longer rows are evaluated
/// into `spill`, a caller-retained buffer whose capacity survives across
/// strokes.
fn basis_row(n: usize, spill: &mut Vec<BasisSample>) -> &[BasisSample] {
    if n <= BASIS_SHARED_MAX_N {
        let rows = BASIS_ROWS.get_or_init(|| {
            // Row k is for k-panel strokes; rows 0..3 are unused (the
            // generators clamp n to ≥ 3) but kept so the row index is the
            // sample count itself.
            (0..=BASIS_SHARED_MAX_N)
                .map(|k| (0..=k).map(|i| basis_sample(i, k)).collect())
                .collect()
        });
        &rows[n]
    } else {
        spill.clear();
        spill.extend((0..=n).map(|i| basis_sample(i, n)));
        spill
    }
}

/// Draws a stroke's AR(1)-filtered tremor values in one batched pass:
/// first a tight fill loop of raw jitter draws (front to back, one
/// [`Normal::sample`] per slot — the batched form of the historic
/// per-sample draw), then the in-place recurrence
/// `tremor_i = 0.7·tremor_{i-1} + 0.3·jitter_i` with `tremor_{-1} = 0`,
/// evaluated with exactly the expression the per-sample loop used. Values
/// and post-fill RNG state are therefore bit-identical to drawing one
/// jitter inside the sample loop (pinned by a differential test).
fn fill_tremor<R: Rng + ?Sized>(rng: &mut R, jitter: &Normal, out: &mut [f64]) {
    // Split-phase polar fill: the rejection draws run in a tight RNG-only
    // loop, the ln/sqrt transform runs over the dense accepted block — same
    // draws, same values, same post state as a per-slot `sample` loop.
    jitter.fill_samples(rng, out);
    let mut tremor = 0.0f64;
    for slot in out {
        tremor = 0.7 * tremor + 0.3 * *slot;
        *slot = tremor;
    }
}

/// Generates a human cursor trajectory from `from` to `to` aimed at a
/// target of effective width `target_w`, drawing from the context's
/// `"cursor"` stream.
pub fn generate(
    params: &HumanParams,
    ctx: &mut SimContext,
    from: Point,
    to: Point,
    target_w: f64,
) -> Vec<TrajectorySample> {
    generate_with(params, ctx.stream("cursor"), from, to, target_w)
}

/// Reusable working memory for the fixed-capacity stroke kernel.
///
/// The common case (every stroke the Fitts model can produce at the 8 ms
/// sample interval) runs entirely out of the inline tremor buffer and the
/// shared basis table — no heap traffic at all. Strokes past
/// `BASIS_SHARED_MAX_N` (192) samples spill to the two retained `Vec`s,
/// which allocate once and keep their capacity across calls, so
/// steady-state synthesis performs zero allocations regardless of stroke
/// length.
#[derive(Debug, Clone)]
pub struct StrokeScratch {
    /// Inline tremor buffer covering every shared-basis stroke.
    tremor_inline: [f64; BASIS_SHARED_MAX_N + 1],
    /// Heap spill for tremor values of strokes past the shared bound.
    tremor_spill: Vec<f64>,
    /// Heap spill for basis rows of strokes past the shared bound.
    basis_spill: Vec<BasisSample>,
}

impl StrokeScratch {
    /// A fresh scratch with empty spill buffers.
    pub fn new() -> Self {
        Self {
            tremor_inline: [0.0; BASIS_SHARED_MAX_N + 1],
            tremor_spill: Vec::new(),
            basis_spill: Vec::new(),
        }
    }

    /// Current heap capacities `(tremor spill, basis spill)`. A reused
    /// scratch whose capacities stop changing performs no further
    /// allocations — tests and benches assert steady state through this.
    pub fn spill_capacities(&self) -> (usize, usize) {
        (self.tremor_spill.capacity(), self.basis_spill.capacity())
    }
}

impl Default for StrokeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Like [`generate`], drawing from an explicit RNG stream. For planners
/// that compose several models on a single stream of their own.
///
/// This is a convenience wrapper over [`synthesize_into`] with a fresh
/// scratch and output buffer; hot paths should hold a [`StrokeScratch`]
/// and a reused `Vec` and call the kernel directly.
pub fn generate_with<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    target_w: f64,
) -> Vec<TrajectorySample> {
    let mut out = Vec::new();
    let mut scratch = StrokeScratch::new();
    synthesize_into(params, rng, from, to, target_w, &mut scratch, &mut out);
    out
}

/// The movement kernel: appends a full cursor movement to `out`, reusing
/// `scratch` for all intermediate storage.
///
/// Draw order, sample values, and post-RNG state are bit-identical to the
/// historic eager generator (retained as [`reference::generate_with`] and
/// pinned by differential tests): structural draws (duration factor,
/// two-phase decision, aim error), then per stroke the curve amplitude and
/// the batched tremor fill. Appending (rather than clearing) is what lets a
/// visit-level planner lay every movement of an action chain into one
/// arena.
pub fn synthesize_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    target_w: f64,
    scratch: &mut StrokeScratch,
    out: &mut Vec<TrajectorySample>,
) {
    let dist = from.distance_to(to);
    if dist < 1e-9 {
        out.push(TrajectorySample {
            t_ms: 0.0,
            x: to.x,
            y: to.y,
        });
        return;
    }
    // Duration from Fitts's law, with ±12% natural variation.
    let base = params.fitts_duration_ms(dist, target_w);
    let duration = base * rng.gen_range(0.88..1.12);

    // Long aimed movements land off target first, then correct.
    let two_phase = dist > 250.0 && rng.gen_bool(0.6);
    if !two_phase {
        stroke_into(params, rng, from, to, duration, 0.0, scratch, out, false);
        return;
    }

    // Primary stroke: aim error along the movement axis, a few percent of
    // the distance (undershoot slightly more likely than overshoot).
    let axis = ((to.x - from.x) / dist, (to.y - from.y) / dist);
    let err_mag =
        (Normal::new(-0.01 * dist, 0.035 * dist).sample(rng)).clamp(-0.12 * dist, 0.12 * dist);
    if err_mag.abs() < 6.0 {
        // Landed close enough that no separate correction is made.
        stroke_into(params, rng, from, to, duration, 0.0, scratch, out, false);
        return;
    }
    let aim = Point::new(to.x + axis.0 * err_mag, to.y + axis.1 * err_mag);

    let base_len = out.len();
    stroke_into(
        params,
        rng,
        from,
        aim,
        duration * 0.82,
        0.0,
        scratch,
        out,
        false,
    );
    let landing_t = out[base_len..].last().map(|s| s.t_ms).unwrap_or(0.0);

    // Perceptual pause before the correction.
    let pause = rng.gen_range(30.0..90.0);

    // Corrective submovement: brief and scaled to the residual error. The
    // eager generator dropped the correction's first sample (it coincides
    // with the primary's landing) *after* drawing its jitter; `skip_first`
    // reproduces exactly that.
    let correction_duration = (70.0 + err_mag.abs() * 1.2).clamp(70.0, 180.0);
    stroke_into(
        params,
        rng,
        aim,
        to,
        correction_duration,
        landing_t + pause,
        scratch,
        out,
        true,
    );
}

/// One min-jerk stroke along a jittered Bézier, starting at `t0`.
///
/// Wrapper over [`stroke_into`] kept for the differential tests.
#[cfg(test)]
fn single_stroke<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    duration: f64,
    t0: f64,
) -> Vec<TrajectorySample> {
    let mut out = Vec::new();
    let mut scratch = StrokeScratch::new();
    stroke_into(
        params,
        rng,
        from,
        to,
        duration,
        t0,
        &mut scratch,
        &mut out,
        false,
    );
    out
}

/// The stroke kernel: appends one min-jerk stroke to `out`.
///
/// Draw schedule (identical to the historic inline loop): curve amplitude
/// (one normal + one bool), then the `n + 1` tremor jitters, batched into
/// the scratch buffer by the split-phase fill. Within a stroke nothing else
/// draws, so front-loading the jitter draws preserves both values and
/// post-RNG state; the combine loop below is draw-free and iterates two
/// dense slices (basis row, tremor values) in lockstep — a
/// structure-of-arrays pass the compiler can pipeline.
///
/// `skip_first` drops sample 0 from the output while still drawing its
/// jitter (the eager two-phase composition's `.skip(1)` on the correction
/// stroke).
#[allow(clippy::too_many_arguments)]
fn stroke_into<R: Rng + ?Sized>(
    params: &HumanParams,
    rng: &mut R,
    from: Point,
    to: Point,
    duration: f64,
    t0: f64,
    scratch: &mut StrokeScratch,
    out: &mut Vec<TrajectorySample>,
    skip_first: bool,
) {
    let dist = from.distance_to(to);
    if dist < 1e-9 {
        if !skip_first {
            out.push(TrajectorySample {
                t_ms: t0,
                x: to.x,
                y: to.y,
            });
        }
        return;
    }
    // Curve: perpendicular displacement of the Bézier control point.
    let amp_sigma = params.curve_amplitude_frac * dist;
    let amp = Normal::new(0.0, amp_sigma).sample(rng)
        + amp_sigma * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let (px, py) = perpendicular(from, to);
    let mid = from.lerp(to, 0.5);
    let control = Point::new(mid.x + px * amp, mid.y + py * amp);

    let n = ((duration / params.pointer_sample_interval_ms).ceil() as usize).max(3);
    let jitter_dist = Normal::new(0.0, params.jitter_px);

    let StrokeScratch {
        tremor_inline,
        tremor_spill,
        basis_spill,
    } = scratch;
    // Tremor: AR(1)-filtered perpendicular noise, zero at the endpoints
    // (the hand is anchored at press/landing). All `n + 1` jitter draws
    // batch into one split-phase fill — same draws, same order, same
    // post-RNG state as the historic per-sample loop (the draws were
    // consecutive there too). Strokes within the shared bound use the
    // inline buffer; longer ones the retained spill.
    let tremor: &mut [f64] = if n <= BASIS_SHARED_MAX_N {
        &mut tremor_inline[..=n]
    } else {
        tremor_spill.clear();
        tremor_spill.resize(n + 1, 0.0);
        tremor_spill
    };
    fill_tremor(rng, &jitter_dist, tremor);
    let row = basis_row(n, basis_spill);

    // Draw-free SoA combine. The final sample is emitted separately: the
    // historic loop overwrote its position with the exact endpoint (its
    // timestamp `t0 + 1.0 * duration` is bit-equal to `t0 + duration`).
    out.reserve(n + 1 - usize::from(skip_first));
    let start = usize::from(skip_first);
    for i in start..n {
        let BasisSample { tau, s, envelope } = row[i];
        let p = quad_bezier(from, control, to, s);
        let tremor = tremor[i];
        let (jx, jy) = (px * tremor * envelope, py * tremor * envelope);
        out.push(TrajectorySample {
            t_ms: t0 + tau * duration,
            x: p.x + jx,
            y: p.y + jy,
        });
    }
    out.push(TrajectorySample {
        t_ms: t0 + duration,
        x: to.x,
        y: to.y,
    });
}

fn quad_bezier(a: Point, c: Point, b: Point, t: f64) -> Point {
    let u = 1.0 - t;
    Point::new(
        u * u * a.x + 2.0 * u * t * c.x + t * t * b.x,
        u * u * a.y + 2.0 * u * t * c.y + t * t * b.y,
    )
}

/// Unit vector perpendicular to the chord from `a` to `b`.
fn perpendicular(a: Point, b: Point) -> (f64, f64) {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len = (dx * dx + dy * dy).sqrt().max(1e-12);
    (-dy / len, dx / len)
}

/// The seed-era eager generator, retained verbatim.
///
/// This is the perf baseline for the `trajectory_synthesis` bench row and
/// the differential anchor for the kernel: direct per-sample evaluation of
/// the min-jerk polynomial and the sine envelope, one interleaved jitter
/// draw per sample, and a fresh `Vec` per stroke. The optimized kernel
/// ([`synthesize_into`]) must reproduce its output — samples and post-RNG
/// state — bit for bit; the draw sequence defined here is the contract.
pub mod reference {
    use super::*;

    /// The historic eager generator (seed shape, pre-basis-table,
    /// pre-batching). Same signature as [`super::generate_with`].
    pub fn generate_with<R: Rng + ?Sized>(
        params: &HumanParams,
        rng: &mut R,
        from: Point,
        to: Point,
        target_w: f64,
    ) -> Vec<TrajectorySample> {
        let dist = from.distance_to(to);
        if dist < 1e-9 {
            return vec![TrajectorySample {
                t_ms: 0.0,
                x: to.x,
                y: to.y,
            }];
        }
        let base = params.fitts_duration_ms(dist, target_w);
        let duration = base * rng.gen_range(0.88..1.12);

        let two_phase = dist > 250.0 && rng.gen_bool(0.6);
        if !two_phase {
            return single_stroke(params, rng, from, to, duration, 0.0);
        }

        let axis = ((to.x - from.x) / dist, (to.y - from.y) / dist);
        let err_mag =
            (Normal::new(-0.01 * dist, 0.035 * dist).sample(rng)).clamp(-0.12 * dist, 0.12 * dist);
        if err_mag.abs() < 6.0 {
            return single_stroke(params, rng, from, to, duration, 0.0);
        }
        let aim = Point::new(to.x + axis.0 * err_mag, to.y + axis.1 * err_mag);

        let mut samples = single_stroke(params, rng, from, aim, duration * 0.82, 0.0);
        let landing_t = samples.last().map(|s| s.t_ms).unwrap_or(0.0);
        let pause = rng.gen_range(30.0..90.0);
        let correction_duration = (70.0 + err_mag.abs() * 1.2).clamp(70.0, 180.0);
        let correction =
            single_stroke(params, rng, aim, to, correction_duration, landing_t + pause);
        samples.extend(correction.into_iter().skip(1));
        samples
    }

    /// The historic stroke loop: direct evaluation, per-sample draws.
    pub fn single_stroke<R: Rng + ?Sized>(
        params: &HumanParams,
        rng: &mut R,
        from: Point,
        to: Point,
        duration: f64,
        t0: f64,
    ) -> Vec<TrajectorySample> {
        let dist = from.distance_to(to);
        if dist < 1e-9 {
            return vec![TrajectorySample {
                t_ms: t0,
                x: to.x,
                y: to.y,
            }];
        }
        let amp_sigma = params.curve_amplitude_frac * dist;
        let amp = Normal::new(0.0, amp_sigma).sample(rng)
            + amp_sigma * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let (px, py) = perpendicular(from, to);
        let mid = from.lerp(to, 0.5);
        let control = Point::new(mid.x + px * amp, mid.y + py * amp);

        let n = ((duration / params.pointer_sample_interval_ms).ceil() as usize).max(3);
        let jitter_dist = Normal::new(0.0, params.jitter_px);
        let mut samples = Vec::with_capacity(n + 1);
        let mut tremor = 0.0f64;
        for i in 0..=n {
            let tau = i as f64 / n as f64;
            let s = min_jerk_progress(tau);
            let p = quad_bezier(from, control, to, s);
            tremor = 0.7 * tremor + 0.3 * jitter_dist.sample(rng);
            let envelope = (std::f64::consts::PI * tau).sin();
            let (jx, jy) = (px * tremor * envelope, py * tremor * envelope);
            samples.push(TrajectorySample {
                t_ms: t0 + tau * duration,
                x: p.x + jx,
                y: p.y + jy,
            });
        }
        if let Some(last) = samples.last_mut() {
            last.x = to.x;
            last.y = to.y;
        }
        samples
    }
}

/// Path metrics used by tests and detectors.
pub mod metrics {
    use super::TrajectorySample;

    /// Total arc length of the trajectory (px).
    pub fn path_length(samples: &[TrajectorySample]) -> f64 {
        samples
            .windows(2)
            .map(|w| ((w[1].x - w[0].x).powi(2) + (w[1].y - w[0].y).powi(2)).sqrt())
            .sum()
    }

    /// Straight-line distance start → end (px).
    pub fn chord_length(samples: &[TrajectorySample]) -> f64 {
        match (samples.first(), samples.last()) {
            (Some(a), Some(b)) => ((b.x - a.x).powi(2) + (b.y - a.y).powi(2)).sqrt(),
            _ => 0.0,
        }
    }

    /// Straightness ratio: chord / path (1.0 = perfectly straight).
    pub fn straightness(samples: &[TrajectorySample]) -> f64 {
        let p = path_length(samples);
        if p == 0.0 {
            1.0
        } else {
            chord_length(samples) / p
        }
    }

    /// Per-segment speeds (px/ms).
    pub fn speeds(samples: &[TrajectorySample]) -> Vec<f64> {
        samples
            .windows(2)
            .filter(|w| w[1].t_ms > w[0].t_ms)
            .map(|w| {
                let d = ((w[1].x - w[0].x).powi(2) + (w[1].y - w[0].y).powi(2)).sqrt();
                d / (w[1].t_ms - w[0].t_ms)
            })
            .collect()
    }

    /// True when the trajectory shows a two-phase (primary + corrective)
    /// structure: a near-stop well after the start followed by renewed
    /// movement.
    pub fn has_submovement(samples: &[TrajectorySample]) -> bool {
        let speeds = speeds(samples);
        if speeds.len() < 8 {
            return false;
        }
        let peak = speeds.iter().copied().fold(0.0, f64::max);
        if peak <= 0.0 {
            return false;
        }
        // Look for a valley (near-stop) well inside the trajectory with
        // meaningful absolute movement after it.
        let n = speeds.len();
        for i in n / 3..n.saturating_sub(2) {
            if speeds[i] < (0.12 * peak).max(0.15) {
                let after_peak = speeds[i + 1..].iter().copied().fold(0.0, f64::max);
                if after_peak > 0.35 {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(seed: u64) -> Vec<TrajectorySample> {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(seed);
        generate(
            &p,
            &mut ctx,
            Point::new(100.0, 500.0),
            Point::new(900.0, 300.0),
            40.0,
        )
    }

    #[test]
    fn min_jerk_boundary_conditions() {
        assert!(min_jerk_progress(0.0).abs() < 1e-12);
        assert!((min_jerk_progress(1.0) - 1.0).abs() < 1e-12);
        assert!(min_jerk_progress(0.5) > 0.45 && min_jerk_progress(0.5) < 0.55);
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = min_jerk_progress(i as f64 / 100.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    /// The shared basis table (and the spill evaluation above the cache
    /// bound) must reproduce the direct per-sample evaluation bit for bit
    /// — it is a memoisation, not an approximation.
    #[test]
    fn basis_table_is_bit_exact_with_direct_evaluation() {
        let mut spill = Vec::new();
        for n in [3usize, 7, 64, 192, 193, 400] {
            let row = basis_row(n, &mut spill);
            assert_eq!(row.len(), n + 1, "n={n}");
            for (i, b) in row.iter().enumerate() {
                let tau = i as f64 / n as f64;
                assert_eq!(b.tau.to_bits(), tau.to_bits(), "n={n} i={i}");
                assert_eq!(
                    b.s.to_bits(),
                    min_jerk_progress(tau).to_bits(),
                    "n={n} i={i}"
                );
                assert_eq!(
                    b.envelope.to_bits(),
                    (std::f64::consts::PI * tau).sin().to_bits(),
                    "n={n} i={i}"
                );
            }
        }
        // Above the bound the row lives in the spill, below it in the
        // shared table.
        let row = basis_row(400, &mut spill).as_ptr();
        assert_eq!(row, spill.as_ptr());
        let row = basis_row(64, &mut spill).as_ptr();
        assert_ne!(row, spill.as_ptr());
    }

    #[test]
    fn trajectory_starts_and_ends_at_endpoints() {
        let t = traj(1);
        let first = t.first().unwrap();
        let last = t.last().unwrap();
        assert!((first.x - 100.0).abs() < 3.0 && (first.y - 500.0).abs() < 3.0);
        assert_eq!((last.x, last.y), (900.0, 300.0));
    }

    #[test]
    fn trajectory_is_curved_not_straight() {
        let t = traj(2);
        let s = metrics::straightness(&t);
        assert!(s < 0.9999, "suspiciously straight: {s}");
        assert!(s > 0.75, "unreasonably wiggly: {s}");
    }

    #[test]
    fn speed_profile_accelerates_then_decelerates() {
        // Use a short movement (always single-stroke) for a clean profile.
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(3);
        let t = generate(
            &p,
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(200.0, 60.0),
            40.0,
        );
        let speeds = metrics::speeds(&t);
        let n = speeds.len();
        let first_quarter: f64 = speeds[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let middle: f64 = speeds[n * 3 / 8..n * 5 / 8].iter().sum::<f64>() / (n / 4).max(1) as f64;
        let last_quarter: f64 = speeds[n * 3 / 4..].iter().sum::<f64>() / (n - n * 3 / 4) as f64;
        assert!(middle > first_quarter * 1.5, "no acceleration phase");
        assert!(middle > last_quarter * 1.5, "no deceleration phase");
    }

    #[test]
    fn long_movements_often_have_corrective_submovements() {
        let with = (0..40)
            .filter(|s| metrics::has_submovement(&traj(*s)))
            .count();
        assert!(
            (10..=38).contains(&with),
            "{with}/40 trajectories had submovements"
        );
    }

    #[test]
    fn short_movements_stay_single_stroke() {
        let p = HumanParams::paper_baseline();
        for seed in 0..20 {
            let mut ctx = SimContext::new(seed);
            let t = generate(
                &p,
                &mut ctx,
                Point::new(0.0, 0.0),
                Point::new(120.0, 40.0),
                40.0,
            );
            assert!(
                !metrics::has_submovement(&t),
                "short move grew a submovement at seed {seed}"
            );
        }
    }

    #[test]
    fn duration_respects_fitts_scaling() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(4);
        let near = generate(
            &p,
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            40.0,
        );
        let far = generate(
            &p,
            &mut ctx,
            Point::new(0.0, 0.0),
            Point::new(1200.0, 0.0),
            40.0,
        );
        assert!(far.last().unwrap().t_ms > near.last().unwrap().t_ms);
    }

    #[test]
    fn zero_distance_returns_single_sample() {
        let p = HumanParams::paper_baseline();
        let mut ctx = SimContext::new(5);
        let t = generate(
            &p,
            &mut ctx,
            Point::new(5.0, 5.0),
            Point::new(5.0, 5.0),
            40.0,
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_seeds_give_different_paths() {
        let a = traj(10);
        let b = traj(11);
        // Same endpoints but different intermediate shapes.
        let mid_a = &a[a.len() / 2];
        let mid_b = &b[b.len() / 2];
        assert!(
            (mid_a.x - mid_b.x).abs() + (mid_a.y - mid_b.y).abs() > 0.5,
            "replayed path — humans never retrace exactly"
        );
    }

    #[test]
    fn timestamps_strictly_increase() {
        for seed in 0..20 {
            let t = traj(seed);
            for w in t.windows(2) {
                assert!(w[1].t_ms > w[0].t_ms, "seed {seed}");
            }
        }
    }

    /// The fixed-capacity kernel behind [`generate_with`] must reproduce
    /// the retained seed-era generator bit for bit — samples and post-RNG
    /// state — across every structural branch (zero-distance, short
    /// single-stroke, threshold-straddling, long two-phase).
    #[test]
    fn kernel_matches_seed_reference_bit_for_bit() {
        let p = HumanParams::paper_baseline();
        let cases = [
            (Point::new(100.0, 500.0), Point::new(900.0, 300.0), 40.0),
            (Point::new(10.0, 10.0), Point::new(60.0, 40.0), 20.0),
            (Point::new(5.0, 5.0), Point::new(5.0, 5.0), 10.0),
            (Point::new(0.0, 0.0), Point::new(260.0, 0.0), 4.0),
            (Point::new(300.0, 800.0), Point::new(299.0, 801.0), 60.0),
        ];
        let mut scratch = StrokeScratch::new();
        let mut out = Vec::new();
        for seed in 0..200u64 {
            for (from, to, w) in cases {
                let mut ref_ctx = SimContext::new(seed);
                let historic = reference::generate_with(&p, ref_ctx.stream("cursor"), from, to, w);
                let mut kernel_ctx = SimContext::new(seed);
                out.clear();
                synthesize_into(
                    &p,
                    kernel_ctx.stream("cursor"),
                    from,
                    to,
                    w,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(out, historic, "seed {seed} {from:?}->{to:?}");
                assert_eq!(
                    ref_ctx.stream("cursor").gen::<u64>(),
                    kernel_ctx.stream("cursor").gen::<u64>(),
                    "rng state diverged after seed {seed} {from:?}->{to:?}"
                );
            }
        }
    }

    /// The kernel appends: planners lay several movements into one arena,
    /// and earlier samples must be untouched.
    #[test]
    fn kernel_appends_without_disturbing_existing_samples() {
        let p = HumanParams::paper_baseline();
        let sentinel = TrajectorySample {
            t_ms: -1.0,
            x: 123.0,
            y: 456.0,
        };
        let mut scratch = StrokeScratch::new();
        let mut out = vec![sentinel];
        let mut ctx = SimContext::new(9);
        synthesize_into(
            &p,
            ctx.stream("cursor"),
            Point::new(100.0, 500.0),
            Point::new(900.0, 300.0),
            40.0,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out[0], sentinel);
        let mut fresh_ctx = SimContext::new(9);
        let fresh = generate_with(
            &p,
            fresh_ctx.stream("cursor"),
            Point::new(100.0, 500.0),
            Point::new(900.0, 300.0),
            40.0,
        );
        assert_eq!(&out[1..], &fresh[..]);
    }

    /// A reused scratch reaches allocation steady state: after one long
    /// stroke has sized the spill buffers, further strokes (short and
    /// long) leave the spill capacities untouched.
    #[test]
    fn reused_scratch_reaches_allocation_steady_state() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let p = HumanParams::paper_baseline();
        let mut scratch = StrokeScratch::new();
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let from = Point::new(40.0, 80.0);
        let to = Point::new(640.0, 420.0);
        // Warmup: one above-bound stroke sizes the spills.
        stroke_into(
            &p,
            &mut rng,
            from,
            to,
            2400.0,
            0.0,
            &mut scratch,
            &mut out,
            false,
        );
        let caps = scratch.spill_capacities();
        assert!(caps.0 > 0 && caps.1 > 0, "long stroke did not spill");
        for _ in 0..50 {
            out.clear();
            stroke_into(
                &p,
                &mut rng,
                from,
                to,
                600.0,
                0.0,
                &mut scratch,
                &mut out,
                false,
            );
            stroke_into(
                &p,
                &mut rng,
                from,
                to,
                2400.0,
                0.0,
                &mut scratch,
                &mut out,
                false,
            );
            assert_eq!(scratch.spill_capacities(), caps, "spill reallocated");
        }
    }

    /// The stroke loop historically drew one jitter sample per iteration:
    /// `tremor = 0.7 * tremor + 0.3 * jitter.sample(rng)`. The batched
    /// fill must reproduce that sequence — values and post-fill RNG state —
    /// bit for bit, including the variable draw count of the polar-method
    /// `Normal::sample` rejection loop.
    #[test]
    fn batched_tremor_matches_historic_per_sample_loop() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let jitter = Normal::new(0.0, 0.35);
        for seed in 0..200u64 {
            for n in [3usize, 17, 64, 192] {
                let mut batched_rng = SmallRng::seed_from_u64(seed);
                let mut buf = vec![0.0f64; n + 1];
                fill_tremor(&mut batched_rng, &jitter, &mut buf);

                let mut manual_rng = SmallRng::seed_from_u64(seed);
                let mut tremor = 0.0f64;
                for (i, slot) in buf.iter().enumerate() {
                    tremor = 0.7 * tremor + 0.3 * jitter.sample(&mut manual_rng);
                    assert_eq!(slot.to_bits(), tremor.to_bits(), "seed {seed} n={n} i={i}");
                }
                assert_eq!(batched_rng, manual_rng, "post state, seed {seed} n={n}");
            }
        }
    }

    /// `single_stroke` serves its basis from the shared table up to
    /// [`BASIS_SHARED_MAX_N`] and from the spill above it. On either side
    /// of the bound it must realise the exact historic draw schedule: the
    /// historic inline loop (per-sample draws over [`basis_row`]) agrees
    /// bit for bit — samples and post-RNG state.
    #[test]
    fn single_stroke_matches_historic_reference_across_batch_bound() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        // The stroke loop exactly as it was before batching.
        fn reference_stroke<R: Rng + ?Sized>(
            params: &HumanParams,
            rng: &mut R,
            from: Point,
            to: Point,
            duration: f64,
            t0: f64,
        ) -> Vec<TrajectorySample> {
            let dist = from.distance_to(to);
            let amp_sigma = params.curve_amplitude_frac * dist;
            let amp = Normal::new(0.0, amp_sigma).sample(rng)
                + amp_sigma * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let (px, py) = perpendicular(from, to);
            let mid = from.lerp(to, 0.5);
            let control = Point::new(mid.x + px * amp, mid.y + py * amp);
            let n = ((duration / params.pointer_sample_interval_ms).ceil() as usize).max(3);
            let mut spill = Vec::new();
            let basis = basis_row(n, &mut spill);
            let jitter_dist = Normal::new(0.0, params.jitter_px);
            let mut samples = Vec::with_capacity(n + 1);
            let mut tremor = 0.0f64;
            for &BasisSample { tau, s, envelope } in basis {
                let p = quad_bezier(from, control, to, s);
                tremor = 0.7 * tremor + 0.3 * jitter_dist.sample(rng);
                let (jx, jy) = (px * tremor * envelope, py * tremor * envelope);
                samples.push(TrajectorySample {
                    t_ms: t0 + tau * duration,
                    x: p.x + jx,
                    y: p.y + jy,
                });
            }
            if let Some(last) = samples.last_mut() {
                last.x = to.x;
                last.y = to.y;
            }
            samples
        }

        let p = HumanParams::paper_baseline();
        // 8 ms interval: 600 ms → n = 75 (shared row), 2400 ms → n = 300
        // (above the bound, spilled row).
        for duration in [600.0, 2400.0] {
            for seed in 0..100u64 {
                let from = Point::new(40.0, 80.0);
                let to = Point::new(640.0, 420.0);
                let mut live_rng = SmallRng::seed_from_u64(seed);
                let live = single_stroke(&p, &mut live_rng, from, to, duration, 12.5);
                let mut ref_rng = SmallRng::seed_from_u64(seed);
                let reference = reference_stroke(&p, &mut ref_rng, from, to, duration, 12.5);
                assert_eq!(live, reference, "seed {seed} duration {duration}");
                assert_eq!(
                    live_rng, ref_rng,
                    "post state, seed {seed} duration {duration}"
                );
            }
        }
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        proptest! {
            /// Long strokes (`n` past [`BASIS_SHARED_MAX_N`]) take the
            /// spill path in the kernel, short ones the shared basis table;
            /// both must reproduce the seed-era per-sample loop — values
            /// and post-RNG state — for arbitrary seeds, geometry, and
            /// durations on either side of the bound.
            #[test]
            fn stroke_kernel_matches_reference_for_arbitrary_strokes(
                seed in 0u64..u64::MAX,
                fx in 0.0f64..1200.0,
                fy in 0.0f64..700.0,
                dx in 20.0f64..900.0,
                dy in -300.0f64..300.0,
                // 200 ms → n = 25; 4000 ms → n = 500 (deep in spill land).
                duration in 200.0f64..4000.0,
            ) {
                let p = HumanParams::paper_baseline();
                let from = Point::new(fx, fy);
                let to = Point::new(fx + dx, fy + dy);
                let mut live_rng = SmallRng::seed_from_u64(seed);
                let live = single_stroke(&p, &mut live_rng, from, to, duration, 0.0);
                let mut ref_rng = SmallRng::seed_from_u64(seed);
                let reference =
                    reference::single_stroke(&p, &mut ref_rng, from, to, duration, 0.0);
                prop_assert_eq!(live, reference);
                prop_assert_eq!(live_rng, ref_rng, "post-RNG state diverged");
            }

            /// At the shared-basis boundary `basis_row` flips from the
            /// shared table (`n` up to the bound) to the spill (`n + 1`
            /// past it); on both sides the row must equal the direct
            /// per-sample formula bit for bit.
            #[test]
            fn owned_and_shared_basis_agree_at_the_boundary(
                delta in 0usize..4,
            ) {
                let mut spill = Vec::new();
                for n in [
                    BASIS_SHARED_MAX_N - delta,
                    BASIS_SHARED_MAX_N + 1 + delta,
                ] {
                    let row = basis_row(n, &mut spill);
                    prop_assert_eq!(row.len(), n + 1);
                    for (i, b) in row.iter().enumerate() {
                        let tau = i as f64 / n as f64;
                        prop_assert_eq!(b.tau.to_bits(), tau.to_bits());
                        prop_assert_eq!(b.s.to_bits(), min_jerk_progress(tau).to_bits());
                        prop_assert_eq!(
                            b.envelope.to_bits(),
                            (std::f64::consts::PI * tau).sin().to_bits()
                        );
                    }
                    let spilled = basis_row(n, &mut spill).as_ptr() == spill.as_ptr();
                    prop_assert_eq!(spilled, n > BASIS_SHARED_MAX_N);
                }
            }

            /// The movement-level kernel against the retained seed
            /// reference for arbitrary seeds and endpoints (covering
            /// single-stroke, threshold, and two-phase branches), in
            /// append mode on a dirty arena.
            #[test]
            fn movement_kernel_matches_reference_for_arbitrary_movements(
                seed in 0u64..u64::MAX,
                fx in 0.0f64..1200.0,
                fy in 0.0f64..700.0,
                tx in 0.0f64..1200.0,
                ty in 0.0f64..700.0,
                w in 4.0f64..120.0,
            ) {
                let p = HumanParams::paper_baseline();
                let from = Point::new(fx, fy);
                let to = Point::new(tx, ty);
                let mut ref_ctx = SimContext::new(seed);
                let historic =
                    reference::generate_with(&p, ref_ctx.stream("cursor"), from, to, w);
                let mut kernel_ctx = SimContext::new(seed);
                let mut scratch = StrokeScratch::new();
                let mut out = vec![TrajectorySample { t_ms: -7.0, x: 0.0, y: 0.0 }];
                synthesize_into(
                    &p,
                    kernel_ctx.stream("cursor"),
                    from,
                    to,
                    w,
                    &mut scratch,
                    &mut out,
                );
                prop_assert_eq!(&out[1..], &historic[..]);
                prop_assert_eq!(
                    ref_ctx.stream("cursor").gen::<u64>(),
                    kernel_ctx.stream("cursor").gen::<u64>()
                );
            }
        }
    }
}

//! Allocation counts of the visit hot path, pinned with a counting
//! global allocator (this test binary's own).
//!
//! A `SimContext` keeps its first streams inline, a `SiteProfile` derives
//! its background codes into one exactly sized buffer, and a site's visit
//! contexts come from `visit_forks`. So a warm plain visit allocates only
//! its context's clock and the outcome's two status-code vectors. A
//! change that brings back a per-stream `String`, a growing buffer or a
//! per-visit derivation shows up here as an extra allocation.
//!
//! Counts are per thread, so the harness's other test threads do not
//! disturb them.

use hlisa_sim::{Rng, SimContext, STREAM_REGISTRY};
use hlisa_web::visit::DetectorRuntime;
use hlisa_web::{ClientKind, Site, SiteProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter is const-initialised and has no destructor, so bumping it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread (reallocations count as allocations).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A reachable site without a detector, scenario or breakage, with
/// request counts off the lane width.
fn plain_site() -> Site {
    Site {
        rank: 12,
        domain: "plain.test".into(),
        detector: None,
        ad_slots: 3,
        has_video: false,
        breaks_under_spoofing: false,
        unreachable: false,
        flaky_visit_prob: 0.0,
        first_party_requests: 13,
        third_party_requests: 27,
        scenario: None,
    }
}

#[test]
fn inline_streams_cost_only_the_clock() {
    let names = STREAM_REGISTRY.iter().map(|s| s.name);
    let names: Vec<&'static str> = names.take(SimContext::INLINE_STREAMS).collect();
    let (draws, n) = allocations(|| {
        let mut ctx = SimContext::new(7);
        let mut draws = 0u64;
        for _ in 0..3 {
            for &name in &names {
                draws ^= ctx.stream(name).gen::<u64>();
            }
        }
        draws
    });
    assert_ne!(draws, 0);
    assert_eq!(
        n, 1,
        "a context with inline streams allocated beyond its clock"
    );
}

#[test]
fn a_site_profile_allocates_once() {
    let site = plain_site();
    let (profile, n) = allocations(|| SiteProfile::new(&site));
    assert_eq!(profile.site().domain, site.domain);
    assert_eq!(n, 1, "SiteProfile::new allocated more than its code buffer");
}

#[test]
fn a_warm_plain_visit_allocates_its_clock_and_status_vectors() {
    let site = plain_site();
    let runtime = DetectorRuntime::new();
    let profile = SiteProfile::new(&site);
    let machine = SimContext::new(42).fork("m1", 0);
    // Warm-up: the first visit may fill lazily built shared state.
    for mut ctx in machine.visit_forks(&site.domain, 1) {
        profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx);
    }
    // Each visit: its fork (the clock) and its outcome's two vectors.
    let mut forks = machine.visit_forks(&site.domain, 9);
    for _ in 0..9 {
        let (outcome, n) = allocations(|| {
            let mut ctx = forks.next()?;
            Some(profile.visit(ClientKind::OpenWpm, &runtime, &mut ctx))
        });
        let outcome = outcome.expect("nine forks");
        assert!(outcome.successful);
        assert!(!outcome.first_party.is_empty() && !outcome.third_party.is_empty());
        assert_eq!(
            n, 3,
            "a visit allocated beyond its clock and two status vectors"
        );
    }
    assert!(forks.next().is_none());
}

//! Steady-state allocation budget: the regression tripwire for the
//! zero-allocation hot path (op arena, envelope slab, SoA wheel lanes).
//!
//! A counting `#[global_allocator]` wraps the system allocator and tallies
//! every `alloc`/`realloc`. After one warm-up simulated second (arenas and
//! slabs grow to their high-water marks), a further simulated second on the
//! same E3-quick session must stay under a committed allocations-per-event
//! ceiling. The ceiling was measured with ~2x headroom: it catches a
//! reintroduced per-dispatch `Vec` or per-event box immediately (those cost
//! 1+ alloc/event) without flaking on allocator noise.
//!
//! This file holds ONE `#[test]` so the process-global counter is never
//! polluted by a concurrently running test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use metaclass_core::{Activity, ClassroomSession, SessionBuilder};
use metaclass_netsim::{LinkClass, Region, SimDuration};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; only adds a relaxed
// counter bump, which is allocation-free and reentrancy-safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The E3-quick topology: one MR campus plus a remote cohort behind the
/// cloud relay — same shape as the E3 criterion bench.
fn e3_session() -> ClassroomSession {
    SessionBuilder::new()
        .seed(3)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::EastAsia, 10, LinkClass::ResidentialAccess)
        .build()
}

/// Runs one warm-up second then one measured second; returns
/// (alloc calls, events) for the measured second.
fn steady_state_allocs() -> (u64, u64) {
    let mut session = e3_session();
    session.run_for(SimDuration::from_secs(1)); // warm-up: arenas reach high water
    let events_before = session.sim().events_processed();
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    session.run_for(SimDuration::from_secs(1));
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let events = session.sim().events_processed() - events_before;
    (allocs, events)
}

#[test]
fn steady_state_allocations_per_event_stay_under_budget() {
    // Committed ceiling, in allocations per 1000 events. Steady state is
    // dominated by per-message payload construction in the node handlers.
    // Measured on the seed of this budget: ≈1811/1k.
    const BUDGET_PER_1K: u64 = 3_600;

    let (allocs, events) = steady_state_allocs();
    assert!(events > 1_000, "measured second processed only {events} events");
    let per_1k = allocs * 1_000 / events;
    eprintln!(
        "alloc_budget: {allocs} allocs / {events} events \
         = {per_1k} per 1k events (budget {BUDGET_PER_1K})"
    );
    assert!(
        per_1k <= BUDGET_PER_1K,
        "steady-state allocation rate {per_1k}/1k events exceeds the committed \
         budget of {BUDGET_PER_1K}/1k — a per-event allocation has crept back \
         into the hot path (check Op arena reuse, the envelope slab, and wheel \
         slot recycling)"
    );
}

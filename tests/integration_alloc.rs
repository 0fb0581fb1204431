//! Heap allocations of the trading loop, counted by a global allocator:
//! after warm-up, the unobserved `CmabHs::run` allocates nothing per round
//! at the paper's Table II shape, and at most once per 100 rounds at an
//! `M ≫ K` shape, where the count buckets of the UCB policy move arms
//! between buckets every round.
//!
//! The count is process-wide, so this binary holds one test.

use cdt_core::{CmabHs, Scenario};
use cdt_obs::NullObserver;
use cdt_types::{CdtError, SimRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every allocation and reallocation.
struct Counting;

/// Allocations and reallocations since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs the paper's mechanism for `n` rounds at `(m, k, l)` and returns
/// the allocations made in rounds `from..n`.
fn allocations_after(m: usize, k: usize, l: usize, n: usize, from: usize) -> u64 {
    let mut rng = SimRng::new(20210419);
    let scenario = Scenario::paper_defaults(m, k, l, n, &mut rng).expect("valid shape");
    let observer = scenario.observer();
    let mut mechanism = CmabHs::new(scenario.config.clone());
    let mut start = 0;
    mechanism
        .run(&observer, &mut rng, &mut NullObserver, |outcome, _| {
            if outcome.round.index() + 1 == from {
                start = ALLOCATIONS.load(Ordering::Relaxed);
            }
            Ok::<_, CdtError>(true)
        })
        .expect("the run settles every round");
    ALLOCATIONS.load(Ordering::Relaxed) - start
}

#[test]
fn the_round_loop_stops_allocating_after_warm_up() {
    // Table II: the count buckets drop within the first hundred rounds, and
    // the fused bound, the game and the observation rows reuse their
    // buffers from then on.
    let table_ii = allocations_after(300, 10, 10, 4_000, 2_000);
    assert_eq!(
        table_ii, 0,
        "allocations in rounds 2 000..4 000 at Table II"
    );
    // M ≫ K: the buckets stay, and a bucket's vectors grow as arms enter
    // it. A new count's bucket takes the vectors of the last one that
    // emptied: after round 500, at most one allocation per 100 rounds (2
    // in these 1 000).
    let (from, n) = (500, 1_500);
    let stress = allocations_after(10_000, 10, 10, n, from);
    assert!(
        stress * 100 <= (n - from) as u64,
        "{stress} allocations in rounds {from}..{n} at M = 10 000, K = 10"
    );
}

//! Allocation regression: once a quiet world has warmed up, its event
//! loop allocates nothing per event. Pongs fold into each node's running
//! estimates and a send returns its delivery instants inline, so the only
//! steady-state allocations are the periodic world sample's three `Vec`s
//! (`biases`, `corrupt`, `good`) plus at most a couple of one-off buffer
//! growths.
//!
//! The counting allocator counts per thread, so the test harness's own
//! threads cannot disturb the figure; this file holds one test so no other
//! test shares the binary's allocator while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use byzclock_runtime::{Observer, WorldBuilder, WorldSample};
use byzclock_sim::SimDuration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which itself never allocates.
// The default `alloc_zeroed` and `realloc` go through `alloc`, so a growth
// counts once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counts the periodic world samples.
struct SampleCount(Rc<Cell<u64>>);

impl Observer for SampleCount {
    fn on_sample(&mut self, _sample: &WorldSample) {
        self.0.set(self.0.get() + 1);
    }
}

/// Allocations per world sample: `WorldSample`'s three `Vec`s.
const PER_SAMPLE: u64 = 3;
/// Buffers that may still grow once after warm-up (the event queue's
/// storage, the world's output scratch).
const ONE_OFF_GROWTHS: u64 = 2;
/// Warm-up and measured spans, in sync intervals `T = Δ/K`.
const WARM_UP_INTERVALS: f64 = 3.0;
const MEASURED_INTERVALS: f64 = 17.0;

/// Runs a quiet `n`-node world past warm-up, then returns (allocations,
/// world samples, events) over the measured span.
fn steady_state(n: usize, seed: u64) -> (u64, u64, u64) {
    let big_delta = SimDuration::from_secs(60.0);
    let k = 8;
    let mut world = WorldBuilder::new(n, (n - 1) / 3)
        .seed(seed)
        .delta(SimDuration::from_millis(10.0))
        .rho(1e-5)
        .big_delta(big_delta)
        .k(k)
        .initial_bias_spread(1e-3)
        .build()
        .expect("quiet world must build");
    let samples = Rc::new(Cell::new(0));
    world.add_observer(Box::new(SampleCount(Rc::clone(&samples))));
    let t = big_delta / f64::from(k);
    world.run_for(t * WARM_UP_INTERVALS);
    let (allocs_before, samples_before) = (allocations(), samples.get());
    let events_before = world.events_processed();
    world.run_for(t * MEASURED_INTERVALS);
    (
        allocations() - allocs_before,
        samples.get() - samples_before,
        world.events_processed() - events_before,
    )
}

#[test]
fn steady_state_event_loop_allocates_only_world_samples() {
    for (n, seed) in [(16, 3), (64, 5)] {
        let (allocs, samples, events) = steady_state(n, seed);
        // four samples per interval (the default `T/4` sample interval)
        assert_eq!(samples, 4 * MEASURED_INTERVALS as u64, "n = {n}");
        let floor = PER_SAMPLE * samples;
        // Far more events than the bound: one allocation per event (or
        // per send) could not hide inside it.
        assert!(events > 10 * floor, "n = {n}: only {events} events");
        assert!(
            (floor..=floor + ONE_OFF_GROWTHS).contains(&allocs),
            "n = {n}: {allocs} allocations over {events} events and {samples} samples \
             (expected {floor}..={})",
            floor + ONE_OFF_GROWTHS
        );
    }
}

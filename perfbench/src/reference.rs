//! Host-speed reference: a fixed, bench-owned discrete-event kernel timed
//! in short slices between the workload's intervals.
//!
//! The reference box is a shared VM whose speed drifts by up to ±40 %
//! over seconds to minutes, below the guest: other tenants' load on the
//! host's caches slows every memory-bound loop in the guest alike. The
//! simulator's own interval times carry that drift. This kernel has the
//! simulator's shape (a binary-heap event queue some 25 000 deep, scattered
//! per-node state, a short scan per event) but none of its code, so it
//! slows with the host and never with a change to the program. Its slices
//! run between `run_until` calls, interleaved in time with the measured
//! work, and the ratio of their mean time to [`NOMINAL_SLICE_NS`] says how
//! much slower than nominal the host ran during the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one slice processes (fixed work, about 2.5 ms).
const SLICE_EVENTS: u32 = 10_000;
/// Typical host time of one slice on the reference box (2-vCPU Intel
/// Xeon Sapphire Rapids KVM guest). Reported times are scaled to a host
/// that runs a slice in this time.
pub const NOMINAL_SLICE_NS: f64 = 2.5e6;
/// A slice runs once this much measured host time has passed since the
/// last one, so slices (with their untimed set-up) take about 5 % of a
/// run and sample it evenly.
const SLICE_EVERY_NS: u64 = 70_000_000;
/// Nodes of the kernel's per-node state.
const NODES: u32 = 4096;
/// The queue is topped up to at least this depth...
const MIN_DEPTH: usize = 20_000;
/// ...and trimmed to at most this one.
const MAX_DEPTH: usize = 30_000;
/// Sorted "episode" starts; each event counts those before it in a window
/// of `SCAN` of them.
const EPISODES: u64 = 1_600;
const SCAN: usize = 64;

/// The time the reference kernel's slices took.
#[derive(Debug, Default)]
pub struct HostSpeed {
    since_slice_ns: u64,
    slice_ns: u64,
    slices: u32,
}

/// The kernel's state, built afresh (in fresh memory) for every slice,
/// so that no one placement of its pages in the caches sets a run's
/// figure.
#[derive(Debug)]
struct Kernel {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    episodes: Vec<u64>,
    rng: u64,
}

impl Kernel {
    /// The start state, the same for every slice.
    fn new() -> Self {
        let mut k = Kernel {
            queue: BinaryHeap::with_capacity(MAX_DEPTH + 2),
            state: vec![0; (NODES * 8) as usize],
            episodes: (0..EPISODES)
                .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_000)
                .collect(),
            rng: 7,
        };
        for i in 0..25_000u32 {
            let r = k.next();
            k.queue.push(Reverse((r % 100_000, i % NODES)));
        }
        k
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Processes `SLICE_EVENTS` events: pop the earliest, update the
    /// node's state, scan a window of episodes, schedule one or two
    /// successors.
    fn run_slice(&mut self) {
        for _ in 0..SLICE_EVENTS {
            let Some(Reverse((at, node))) = self.queue.pop() else {
                unreachable!("the queue is kept at least MIN_DEPTH deep")
            };
            let r = self.next();
            let base = node as usize * 8;
            self.state[base + (r & 7) as usize] =
                self.state[base + (r & 7) as usize].wrapping_add(at);
            let from = (r as usize >> 8) % (self.episodes.len() - SCAN);
            let before = self.episodes[from..from + SCAN]
                .iter()
                .filter(|&&e| e < at)
                .count() as u64;
            for f in 0..1 + (r >> 60) as u32 % 2 {
                let delay = 1 + ((r >> (8 * f)) & 0xffff) + before;
                self.queue
                    .push(Reverse((at + delay, (node + f * 7 + 1) % NODES)));
            }
            if self.queue.len() > MAX_DEPTH {
                self.queue.pop();
            }
            if self.queue.len() < MIN_DEPTH {
                self.queue.push(Reverse((at + 5, node)));
            }
        }
        black_box(&self.state);
    }
}

impl HostSpeed {
    /// No slices timed yet.
    pub fn new() -> Self {
        HostSpeed::default()
    }

    /// Counts `ns` of measured host time; runs and times a slice when
    /// `SLICE_EVERY_NS` have passed since the last one.
    pub fn tick(&mut self, ns: u64) {
        self.since_slice_ns += ns;
        if self.since_slice_ns >= SLICE_EVERY_NS {
            self.since_slice_ns = 0;
            self.time_slice();
        }
    }

    /// Runs and times one slice.
    pub fn time_slice(&mut self) {
        let mut kernel = Kernel::new();
        let t0 = Instant::now();
        kernel.run_slice();
        self.slice_ns += u64::try_from(t0.elapsed().as_nanos()).expect("a slice is short");
        self.slices += 1;
    }

    /// Slices timed so far.
    pub fn slices(&self) -> u32 {
        self.slices
    }

    /// Mean host ns of a timed slice.
    fn mean_slice_ns(&self) -> f64 {
        self.slice_ns as f64 / f64::from(self.slices.max(1))
    }

    /// How many times slower than nominal the host ran: the mean slice
    /// time over [`NOMINAL_SLICE_NS`]. A host time divided by this factor
    /// is the time on a host running at nominal speed.
    pub fn slowdown(&self) -> f64 {
        self.mean_slice_ns() / NOMINAL_SLICE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_do_fixed_work_and_keep_the_queue_in_bounds() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        a.run_slice();
        b.run_slice();
        assert_eq!(a.state, b.state, "the kernel is deterministic");
        assert!((MIN_DEPTH..=MAX_DEPTH).contains(&a.queue.len()));
        let mut h = HostSpeed::new();
        for _ in 0..3 {
            h.time_slice();
        }
        assert_eq!(h.slices(), 3);
        assert!(h.slowdown() > 0.0);
    }

    #[test]
    fn tick_runs_a_slice_every_slice_every_ns() {
        let mut h = HostSpeed::new();
        h.tick(SLICE_EVERY_NS - 1);
        assert_eq!(h.slices(), 0);
        h.tick(1);
        assert_eq!(h.slices(), 1);
        h.tick(3 * SLICE_EVERY_NS);
        assert_eq!(h.slices(), 2);
    }
}

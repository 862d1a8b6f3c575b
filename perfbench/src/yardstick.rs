//! A fixed reference computation, timed beside the workload so host times
//! can be reported at a reference host speed.
//!
//! The benchmark runs on shared hosts. On the 2-core host it was defined
//! on, a fixed compute loop ran up to 1.5x slower for stretches of seconds
//! to minutes while other tenants were busy, and raw wall times of the same
//! run spread by 15-30% across a few minutes. Timed between the slices of
//! the same episode, this kernel slows down with the host, so the ratio of
//! the two cancels most of that drift (to spreads of 2-15% across runs on
//! the same host). The
//! kernel is part of the benchmark and never changes, so a change to the
//! program still moves the scaled figures one for one.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Median time of one [`Yardstick::time_ms`] run on the reference host (a
/// 2-core Xeon VM, quiet), milliseconds. Host times are reported scaled by
/// `REFERENCE_MS / k`, where `k` is the kernel's median beside them.
pub const REFERENCE_MS: f64 = 0.25;

/// Events the kernel processes per timed run.
const EVENTS: u32 = 1_000;

/// A small discrete-event kernel: a timer heap, an ordered map of per-key
/// state and a table of counters, together about 400 KB so it stays in the
/// per-core caches and tracks CPU contention rather than the program's own
/// memory footprint.
pub struct Yardstick {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: BTreeMap<u32, u64>,
    table: Vec<u64>,
    rng: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Builds the kernel's state and runs it a few times so first-touch
    /// page faults stay out of the timed runs.
    pub fn new() -> Self {
        let mut y = Yardstick {
            heap: (0..4096u32).map(|i| Reverse((u64::from(i) * 13, i))).collect(),
            state: (0..4096u32).map(|k| (k, 0)).collect(),
            table: vec![0; 1 << 15],
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for _ in 0..64 {
            y.run();
        }
        y
    }

    fn run(&mut self) {
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, id)) = self.heap.pop().expect("the heap never empties");
            self.rng = self
                .rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (self.rng >> 40) as usize & (self.table.len() - 1);
            self.table[slot] = self.table[slot].wrapping_add(at);
            *self.state.entry((self.rng >> 20) as u32 & 4095).or_insert(0) += 1;
            acc ^= self.table[slot];
            self.heap.push(Reverse((at + (self.rng & 0xfff), id)));
        }
        black_box(acc);
    }

    /// Times one run of the fixed work, milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        self.run();
        start.elapsed().as_secs_f64() * 1e3
    }
}

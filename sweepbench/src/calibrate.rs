//! A fixed host-speed probe, independent of the code under test.
//!
//! On a shared host a neighbour can slow this process by up to ~1.6× for
//! anything from a few milliseconds to tens of seconds. The benchmark
//! therefore times this probe between consecutive runs and expresses each
//! run's host time in reference-host seconds: measured time divided by
//! [`slowdown`] of the probe time around the run. The probe does the kind
//! of work the simulator does — tag lookups with a data-dependent
//! replacement decision over an L2-sized table — and its cost changes
//! only when the host's does, so a change to the simulator moves the
//! normalized times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the probe's tag table (256 KiB of `u64`).
const TABLE: usize = 1 << 15;
/// Lookups per probe.
const LOOKUPS: u64 = 150_000;
/// The probe's time on the reference host (Intel Xeon, 2 vCPUs, no
/// neighbour contention), seconds.
const REFERENCE_S: f64 = 1.5e-3;
/// How much more the simulator slows under contention than the probe:
/// a log-log fit of per-repetition wall time against probe slowdown over
/// ten runs gave 1.34 on fig02, 1.27 on fig05 and 1.39 on fig18
/// (correlations 0.96–0.99) on the reference host.
const SENSITIVITY: f64 = 1.35;

/// The factor by which contention stretched a run, from the probe time
/// measured around it.
pub fn slowdown(probe_s: f64) -> f64 {
    (probe_s / REFERENCE_S).powf(SENSITIVITY)
}

pub struct Probe {
    table: Vec<u64>,
    state: u64,
}

impl Probe {
    pub fn new() -> Probe {
        let mut probe = Probe { table: vec![1; TABLE], state: 0x9E37_79B9_7F4A_7C15 };
        probe.time_s();
        probe
    }

    /// Run the probe once; seconds. The table is first walked untimed,
    /// so what the code under test left in the caches does not show.
    pub fn time_s(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &t| a ^ t));
        let t0 = Instant::now();
        let (mut x, mut hits) = (self.state, 0u64);
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Skewed tags: most lookups fall in a hot part of the table.
            let tag = if x & 7 == 0 { x >> 40 } else { (x >> 40) & 0xFFF };
            let set = (tag as usize).wrapping_mul(0x9E37) & (TABLE - 2);
            if self.table[set] == tag || self.table[set + 1] == tag {
                hits += 1;
            } else {
                self.table[set + (x >> 63) as usize] = tag;
            }
        }
        self.state = x;
        black_box(hits);
        t0.elapsed().as_secs_f64()
    }
}

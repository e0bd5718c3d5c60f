//! Host speed, sampled beside the workload, so that host timings can be
//! reported at one reference speed.
//!
//! The reference host is a shared virtual machine whose memory system runs
//! faster or slower in phases of tens of seconds to minutes, set by other
//! tenants. Over five minutes the same `fabric-stream` pass took between
//! 1.2 and 2.2 s while a chain of dependent additions (the core clock)
//! stayed within ±4%. A run lies inside one or two phases, so no statistic
//! over the run's own samples removes them. Random read-modify-writes over
//! a 2 MiB table, the size of a core's L2, slow down with the same phases:
//! over five minutes of windows of 8 fabric passes or 4 `plan-scale`
//! rounds, the logarithm of the probe's median correlated with that of the
//! fabric pass (0.90), the `plan-scale` audit (0.76) and its serve (0.84)
//! more closely than probes over 16–64 MiB, a pointer chase or a chain of
//! additions did. The probe is the benchmark's own code, so no change to the
//! library moves it, and a change to the library's speed shows in full.

use crate::metrics::median;
use std::hint::black_box;
use std::time::Instant;

/// Words in the probe's table: 2 MiB.
const WORDS: usize = 1 << 18;
/// Updates per sample, about 80 ms on the reference host.
const UPDATES: usize = 24 << 20;
/// The probe's sample time in a quiet phase of the reference host; host
/// timings are reported as if every probe sample had taken this long.
pub const REFERENCE_S: f64 = 0.08;

/// The speed probe: its table and the samples taken so far.
pub struct SpeedProbe {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl SpeedProbe {
    /// Allocates the table and touches all of it once, untimed.
    pub fn new() -> Self {
        let mut probe = SpeedProbe {
            table: vec![0; WORDS],
            samples: Vec::new(),
        };
        probe.run();
        probe
    }

    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64()
    }

    /// Takes one timed sample.
    pub fn sample(&mut self) {
        let secs = self.run();
        self.samples.push(secs);
    }

    /// How much slower than the reference the host ran: the median
    /// sample over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Heap bytes the table holds for the whole run.
    pub fn heap_bytes(&self) -> u64 {
        (WORDS * std::mem::size_of::<u64>()) as u64
    }
}

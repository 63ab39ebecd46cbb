//! Host-speed probe: a fixed kernel owned by the benchmark, run before
//! each row of every timed pass and before each set-up repetition, so a
//! run can state its times at a reference host speed.
//!
//! The host is shared, and its speed drifts by a quarter between runs as
//! neighbours come and go; every row of a run moves with it. The probe
//! does the same kind of work as the DD kernels (dependent loads through
//! a table larger than the private caches, hash-table churn and small
//! allocations) but none of the program's code: it shares only the
//! allocator and the caches with it. A run multiplies a time by
//! `REFERENCE_S` over the median time of the probes run among its samples.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The host speed every normalized time is stated at: a round probe time
/// among the run medians (28–52 ms) seen on the two-vCPU Xeon host the
/// benchmark was defined on.
pub const REFERENCE_S: f64 = 0.040;

/// Slots of the pointer-chase cycle (16 MiB of `u32`, 8× the L2).
const SLOTS: usize = 1 << 22;
/// Dependent loads per probe.
const CHASE_STEPS: usize = 200_000;
/// Hash-table updates (each with a small allocation) per probe.
const TABLE_OPS: u64 = 200_000;

fn lcg(z: u64) -> u64 {
    z.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// The probe's fixed inputs, built once per process (outside every timed
/// region).
pub struct HostProbe {
    /// One random cycle through all slots (Sattolo's shuffle).
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut z = 0x1234_5678_9abc_def0;
        for i in (1..SLOTS).rev() {
            z = lcg(z);
            next.swap(i, ((z >> 33) as usize) % i);
        }
        HostProbe { next }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        let mut acc = 0u64;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
            acc = acc.wrapping_add(u64::from(at));
        }
        // A fixed-key hasher, so every process does the same work.
        let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
            HashMap::with_capacity_and_hasher(1 << 16, BuildHasherDefault::default());
        let mut z = 42;
        for i in 0..TABLE_OPS {
            z = lcg(z);
            *table.entry(z >> 44).or_insert(i) ^= i;
            let node = Box::new([z; 4]);
            acc = acc.wrapping_add(black_box(&node)[1] ^ table.len() as u64);
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

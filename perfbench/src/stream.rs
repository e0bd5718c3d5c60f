//! Seeded job streams, generated here rather than by `pf_fabric::PoissonJobs`
//! so that an edit to the library cannot silently change a workload.
//!
//! The draw matches the fabric's own Poisson source: exponential
//! inter-arrival gaps (inverse transform over a 53-bit uniform, rounded
//! down to whole cycles, at least 1), sizes uniform over a range, one job
//! in four reducing `f64` values, and priorities 0..4. The generator is
//! SplitMix64, so a stream depends only on its seed.

use pf_allreduce::fingerprint::{fnv1a_u64, FNV_OFFSET};
use pf_sched::JobSpec;
use pf_simnet::ReduceKind;

/// SplitMix64: tiny, fast, and fully specified by its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi]` (multiply-shift; the bias is below 2^-40 for
    /// the ranges used here).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        let span = hi - lo + 1;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// The shape of one Poisson job stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Jobs in the stream.
    pub jobs: usize,
    /// Mean inter-arrival gap, in cycles.
    pub mean_gap: u64,
    /// Smallest vector, in elements.
    pub elems_lo: u64,
    /// Largest vector, in elements.
    pub elems_hi: u64,
}

/// Generates `shape.jobs` jobs from `seed`.
pub fn poisson_jobs(seed: u64, shape: StreamShape) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0u64;
    (0..shape.jobs)
        .map(|i| {
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += ((-u.ln() * shape.mean_gap as f64) as u64).max(1);
            let elems = rng.range(shape.elems_lo, shape.elems_hi);
            let kind = if rng.range(0, 3) == 0 {
                ReduceKind::FloatF64
            } else {
                ReduceKind::WrappingU64
            };
            let priority = rng.range(0, 3) as u32;
            let id = u32::try_from(i).expect("streams hold fewer than 2^32 jobs");
            JobSpec {
                kind,
                priority,
                ..JobSpec::new(id, t, elems)
            }
        })
        .collect()
}

/// FNV digest of every generated field, printed with each run so that a
/// change to the inputs is visible next to the numbers.
pub fn fingerprint(jobs: &[JobSpec]) -> u64 {
    jobs.iter().fold(FNV_OFFSET, |h, s| {
        let h = fnv1a_u64(h, u64::from(s.id));
        let h = fnv1a_u64(h, s.arrival);
        let h = fnv1a_u64(h, s.elems);
        let h = fnv1a_u64(h, u64::from(s.kind == ReduceKind::FloatF64));
        fnv1a_u64(h, u64::from(s.priority))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        jobs: 500,
        mean_gap: 200,
        elems_lo: 16,
        elems_hi: 64,
    };

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(
            fingerprint(&poisson_jobs(3, SHAPE)),
            fingerprint(&poisson_jobs(3, SHAPE))
        );
        assert_ne!(
            fingerprint(&poisson_jobs(3, SHAPE)),
            fingerprint(&poisson_jobs(4, SHAPE))
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let jobs = poisson_jobs(9, SHAPE);
        assert!(jobs.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert!(jobs
            .iter()
            .all(|s| (16..=64).contains(&s.elems) && s.priority < 4));
        let floats = jobs
            .iter()
            .filter(|s| s.kind == ReduceKind::FloatF64)
            .count();
        assert!((75..175).contains(&floats), "{floats} of 500 jobs are f64");
        let mean_gap = jobs.last().unwrap().arrival as f64 / jobs.len() as f64;
        assert!((150.0..250.0).contains(&mean_gap), "mean gap {mean_gap}");
    }
}

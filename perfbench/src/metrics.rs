//! Metric names, units and the summary statistics the benchmark reports.

use std::time::Instant;

/// Every end-to-end metric, printed by the untraced run: name and unit.
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("ns_per_flit_hop", "ns"),
    ("audit_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("virt_jobs_per_kcycle", "jobs/kcycle"),
    ("virt_latency_p99_cycles", "cycles"),
    ("virt_latency_mean_cycles", "cycles"),
];

/// The end-to-end metrics taken from host time, with the power of host
/// time each is proportional to: 1 for a time, −1 for a rate. The untraced
/// run reports them at the reference host speed (see `src/speed.rs`).
pub const HOST_TIMINGS: [(&str, i32); 4] = [
    ("setup_s", 1),
    ("jobs_per_s", -1),
    ("ns_per_flit_hop", 1),
    ("audit_s", 1),
];

/// Every per-layer metric, printed by the traced run: name and unit.
/// `self_ms.<span>` is the summed self time of that span name.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("topo.substrate_ms", "ms"),
    ("core.trees_ms", "ms"),
    ("core.pricing_ms", "ms"),
    ("core.rate.audit_ms", "ms"),
    ("core.rate.calls", "count"),
    ("core.recovery.rebuild_ms", "ms"),
    ("core.plan.subset_us", "us"),
    ("fabric.fault_ms", "ms"),
    ("fabric.incremental_repairs", "count"),
    ("fabric.full_rebuilds", "count"),
    ("fabric.submit_us_p50", "us"),
    ("fabric.submit_us_p99", "us"),
    ("fabric.dispatch_ms", "ms"),
    ("fabric.accepted", "count"),
    ("fabric.deferred", "count"),
    ("fabric.rejected", "count"),
    ("fabric.queue_depth_max", "count"),
    ("fabric.cache.hit_ratio", "ratio"),
    ("fabric.cache.misses", "count"),
    ("sched.plan_wave_us", "us"),
    ("sched.waves", "count"),
    ("sched.jobs_per_wave", "jobs"),
    ("simnet.embedding.us_per_wave", "us"),
    ("simnet.engine.run_us_p50", "us"),
    ("simnet.engine.run_us_p99", "us"),
    ("simnet.engine.ns_per_flit_hop", "ns"),
    ("simnet.engine.ns_per_cycle", "ns"),
    ("simnet.engine.cycles", "cycles"),
    ("simnet.engine.allocs_per_run", "count"),
    ("validate.mismatches", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.topo.substrate", "ms"),
    ("self_ms.core.trees", "ms"),
    ("self_ms.core.pricing", "ms"),
    ("self_ms.core.rate.audit", "ms"),
    ("self_ms.core.recovery", "ms"),
    ("self_ms.fabric.submit", "ms"),
    ("self_ms.fabric.drain", "ms"),
    ("self_ms.fabric.epoch", "ms"),
    ("self_ms.fabric.cache", "ms"),
    ("self_ms.core.plan.subset", "ms"),
    ("self_ms.core.plan.split", "ms"),
    ("self_ms.sched.plan_wave", "ms"),
    ("self_ms.simnet.workload", "ms"),
    ("self_ms.simnet.embedding", "ms"),
    ("self_ms.simnet.engine", "ms"),
];

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[u64], p: u64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = (p * v.len() as u64).div_ceil(100).max(1);
    v[rank as usize - 1]
}

/// Calls `pass(i)` for items `0, 1, …, n − 1, 0, 1, …` until at least
/// `min` calls were made and `seconds` have elapsed since `start`.
pub fn round_robin(
    n: usize,
    min: usize,
    start: Instant,
    seconds: f64,
    mut pass: impl FnMut(usize),
) {
    let mut k = 0;
    while k < min || start.elapsed().as_secs_f64() < seconds {
        pass(k % n);
        k += 1;
    }
}

/// Values by metric name, printed as the result line's `metrics` object.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Multiplies the value recorded for `name` by `factor`.
    pub fn scale(&mut self, name: &str, factor: f64) {
        for (n, v) in &mut self.0 {
            if *n == name {
                *v *= factor;
            }
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` JSON object over `table`, in table order. Every
    /// metric in `table` must have a finite value.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Jobs submitted over the run.
    pub attempted: u64,
    /// Jobs rejected, invalid or with mismatched elements.
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// The deterministic outputs of one pass, one `key=value` list; the
    /// exactness gate compares it with the committed record.
    pub record: String,
}

impl Outcome {
    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5, 1, 4, 2, 3], 50), 3);
        assert_eq!(percentile(&(1..=100).collect::<Vec<u64>>(), 99), 99);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}

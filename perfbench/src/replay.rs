//! The fabric driven one level down, for the traced run.
//!
//! The scheduler, plan cache, split, embedding and engine are reachable
//! only inside `FabricManager`, so the traced run replays the same steps
//! through their public calls instead: `Scheduler::plan_wave` with a
//! `TreeAllocator`, `PlanCache::get_or_insert_with` over
//! `AllreducePlan::tree_subset`, `AllreducePlan::split`,
//! `MultiTreeEmbedding::with_offsets` and
//! `Simulator::run_jobs_collective`, with a span around each call.
//!
//! The replay restates the manager's admission, epoch and repair rules
//! (fault-free waves only: the manager never attaches a fault layer to a
//! wave). It folds the same per-job digest, so agreement with the
//! untraced `FabricReport` on digest, jobs, elements and cache counters
//! shows that the replay made every decision the manager made.

use crate::alloc;
use crate::service::Step;
use crate::spans::Recorder;
use pf_allreduce::fingerprint::FNV_OFFSET;
use pf_allreduce::recovery::{extend_degraded, rebuild_degraded, DegradedPlan};
use pf_allreduce::{plan_fingerprint, AllreducePlan, FaultSet};
use pf_fabric::{CacheKey, FabricConfig, PlanCache};
use pf_sched::{fold_job_digest, validate_spec, JobRecord, JobSpec, Scheduler, TreeAllocator};
use pf_simnet::{JobBinding, JobSegment, MultiTreeEmbedding, Simulator, Workload};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Counters the replay accumulates; compared field by field against the
/// manager's report, plus engine-layer work the report does not carry.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Submissions seen.
    pub submitted: u64,
    /// Jobs that entered the ready queue (directly or by promotion).
    pub accepted: u64,
    /// Deferral events.
    pub deferred: u64,
    /// Jobs dropped by backpressure.
    pub rejected: u64,
    /// Specs refused as invalid.
    pub invalid: u64,
    /// Jobs run to completion.
    pub completed: u64,
    /// Elements reduced.
    pub total_elems: u64,
    /// Epochs dispatched.
    pub epochs: u64,
    /// Waves run.
    pub waves: u64,
    /// Last finish cycle.
    pub makespan: u64,
    /// Expected-value failures (must be 0).
    pub mismatches: u64,
    /// Summed arrival-to-finish latency, cycles.
    pub latency_sum: u64,
    /// Rolling per-job digest, the manager's fold.
    pub digest: u64,
    /// Fault events patched incrementally.
    pub incremental_repairs: u64,
    /// Fault events rebuilt from scratch.
    pub full_rebuilds: u64,
    /// Fault events refused (would partition).
    pub refused_faults: u64,
    /// Engine cycles summed over waves.
    pub engine_cycles: u64,
    /// Flit-hops, `2·elems·(participants − 1)` summed over completed jobs.
    pub flit_hops: u64,
    /// Allocations made inside engine runs.
    pub engine_allocs: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
}

/// The replaying fabric (see module docs).
pub struct Replay<'r> {
    rec: &'r mut Recorder,
    cfg: FabricConfig,
    healthy: Arc<AllreducePlan>,
    topology_fp: u64,
    current: Arc<AllreducePlan>,
    faults: FaultSet,
    fault_fp: u64,
    degraded: Option<DegradedPlan>,
    cache: PlanCache,
    now: u64,
    ready: VecDeque<JobSpec>,
    deferred_q: VecDeque<JobSpec>,
    ready_elems: u64,
    queued_ids: BTreeSet<u32>,
    counts: ReplayCounts,
}

impl<'r> Replay<'r> {
    /// A replaying fabric over `plan` with the manager's `cfg`.
    pub fn new(plan: AllreducePlan, cfg: FabricConfig, rec: &'r mut Recorder) -> Self {
        let healthy = Arc::new(plan);
        Replay {
            rec,
            topology_fp: plan_fingerprint(&healthy),
            current: Arc::clone(&healthy),
            healthy,
            faults: FaultSet::none(),
            fault_fp: FaultSet::none().fingerprint(),
            degraded: None,
            cache: PlanCache::new(cfg.cache_capacity),
            cfg,
            now: 0,
            ready: VecDeque::new(),
            deferred_q: VecDeque::new(),
            ready_elems: 0,
            queued_ids: BTreeSet::new(),
            counts: ReplayCounts {
                digest: FNV_OFFSET,
                ..ReplayCounts::default()
            },
        }
    }

    /// Plays `steps`, drains, and returns what the replay did.
    pub fn play(mut self, steps: &[Step]) -> ReplayCounts {
        for step in steps {
            match step {
                Step::Submit(spec) => self.submit(spec.clone()),
                Step::Faults { at, edges } => self.inject(at.unwrap_or(self.now), edges),
                Step::Heal { at } => self.heal(*at),
                Step::Drain => self.drain(),
            }
        }
        self.drain();
        let stats = self.cache.stats();
        ReplayCounts {
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            ..self.counts
        }
    }

    fn submit(&mut self, spec: JobSpec) {
        self.advance_to(spec.arrival);
        let c = &mut self.counts;
        c.submitted += 1;
        if validate_spec(&spec, &self.healthy).is_err() || self.queued_ids.contains(&spec.id) {
            c.invalid += 1;
            return;
        }
        if self.ready.len() >= self.cfg.queue_capacity {
            c.rejected += 1;
            return;
        }
        if self.ready_elems + spec.elems > self.cfg.max_outstanding_elems {
            if self.deferred_q.len() >= self.cfg.queue_capacity {
                c.rejected += 1;
                return;
            }
            c.deferred += 1;
            self.queued_ids.insert(spec.id);
            self.deferred_q.push_back(spec);
            return;
        }
        c.accepted += 1;
        self.ready_elems += spec.elems;
        self.queued_ids.insert(spec.id);
        self.ready.push_back(spec);
    }

    fn inject(&mut self, at: u64, edges: &[u32]) {
        self.advance_to(at);
        let delta = FaultSet::links(
            edges
                .iter()
                .copied()
                .filter(|e| !self.faults.edges.contains(e))
                .collect(),
        );
        if delta.edges.is_empty() {
            return;
        }
        let combined = self.faults.union(&delta);
        let span = self.rec.enter("core.recovery", self.counts.epochs);
        let patched = self
            .degraded
            .as_ref()
            .and_then(|prev| extend_degraded(&self.healthy, &self.faults, prev, &delta));
        let next = match patched {
            Some(d) => Ok((d, true)),
            None => rebuild_degraded(&self.healthy, &combined).map(|d| (d, false)),
        };
        self.rec.exit(span);
        let Ok((next, incremental)) = next else {
            self.counts.refused_faults += 1;
            return;
        };
        if incremental {
            self.counts.incremental_repairs += 1;
        } else {
            self.counts.full_rebuilds += 1;
        }
        self.faults = combined;
        self.fault_fp = self.faults.fingerprint();
        let key = CacheKey {
            topology: self.topology_fp,
            faults: self.fault_fp,
            trees: Vec::new(),
        };
        let (q, group) = (self.healthy.q, self.counts.epochs);
        let (rec, cache) = (&mut *self.rec, &mut self.cache);
        let span = rec.enter("fabric.cache", group);
        self.current = cache.get_or_insert_with(key, || {
            Arc::new(rec.time("core.pricing", group, || next.to_plan(q)).0)
        });
        rec.exit(span);
        self.degraded = Some(next);
    }

    fn heal(&mut self, at: u64) {
        self.advance_to(at);
        if self.faults.is_empty() {
            return;
        }
        self.faults = FaultSet::none();
        self.fault_fp = self.faults.fingerprint();
        self.degraded = None;
        self.current = Arc::clone(&self.healthy);
    }

    fn drain(&mut self) {
        loop {
            self.promote_deferred();
            if self.ready.is_empty() {
                break;
            }
            self.dispatch_epoch();
        }
    }

    fn advance_to(&mut self, t: u64) {
        while self.now < t && !self.ready.is_empty() {
            self.dispatch_epoch();
        }
        self.now = self.now.max(t);
    }

    fn promote_deferred(&mut self) {
        while let Some(front) = self.deferred_q.front() {
            let fits = self.ready.len() < self.cfg.queue_capacity
                && (self.ready_elems + front.elems <= self.cfg.max_outstanding_elems
                    || self.ready.is_empty());
            if !fits {
                break;
            }
            let s = self.deferred_q.pop_front().expect("front exists");
            self.counts.accepted += 1;
            self.ready_elems += s.elems;
            self.ready.push_back(s);
        }
    }

    /// One epoch: `Scheduler::run_epoch` restated call by call, so each
    /// layer gets its own span.
    fn dispatch_epoch(&mut self) {
        let take = self.ready.len().min(self.cfg.epoch_max_jobs);
        let specs: Vec<JobSpec> = self.ready.drain(..take).collect();
        for s in &specs {
            self.queued_ids.remove(&s.id);
            self.ready_elems -= s.elems;
        }
        let epoch = self.counts.epochs;
        let span = self.rec.enter("fabric.epoch", epoch);
        let records = self.run_epoch(&specs, epoch);
        let c = &mut self.counts;
        c.epochs += 1;
        let mut finish = 0;
        for r in &records {
            finish = finish.max(r.finish);
            c.completed += 1;
            c.total_elems += r.spec.elems;
            c.mismatches += r.mismatches;
            c.latency_sum += r.latency();
            c.digest = fold_job_digest(c.digest, r);
        }
        c.makespan = c.makespan.max(finish);
        self.now = self.now.max(finish);
        self.rec.exit(span);
        self.promote_deferred();
    }

    fn run_epoch(&mut self, specs: &[JobSpec], epoch: u64) -> Vec<JobRecord> {
        let plan = Arc::clone(&self.current);
        let sim_cfg = self.cfg.sched.sim;
        let sched = Scheduler::new(&plan, self.cfg.sched);
        let nodes = plan.graph.num_vertices();
        let (rec, cache) = (&mut *self.rec, &mut self.cache);

        let segs: Vec<JobSegment> = specs
            .iter()
            .map(|s| JobSegment {
                elems: s.elems,
                kind: s.kind,
                participants: s.participants.clone(),
            })
            .collect();
        let (w, _) = rec.time("simnet.workload", epoch, || Workload::concat(nodes, &segs));
        let mut global_off = Vec::with_capacity(specs.len());
        let mut off = 0u64;
        for s in specs {
            global_off.push(off);
            off += s.elems;
        }

        let mut pending: Vec<usize> = (0..specs.len()).collect();
        let mut records: Vec<Option<JobRecord>> = vec![None; specs.len()];
        let mut now = self.now;
        let (mut alloc, _) = rec.time("sched.alloc", epoch, || TreeAllocator::new(&plan));
        while !pending.is_empty() {
            let wave = self.counts.waves;
            self.counts.waves += 1;
            now = now.max(
                pending
                    .iter()
                    .map(|&i| specs[i].arrival)
                    .min()
                    .expect("non-empty"),
            );
            let (admission, _) = rec.time("sched.plan_wave", wave, || {
                alloc.reset();
                sched.plan_wave(specs, &mut pending, now, &mut alloc)
            });
            let kind = specs[admission.jobs[0].idx].collective;

            let (mut trees, mut sizes, mut offsets, mut bindings) =
                (vec![], vec![], vec![], vec![]);
            for adm in &admission.jobs {
                let key = CacheKey {
                    topology: self.topology_fp,
                    faults: self.fault_fp,
                    trees: adm
                        .trees
                        .iter()
                        .map(|&t| u32::try_from(t).expect("tree index fits u32"))
                        .collect(),
                };
                let span = rec.enter("fabric.cache", wave);
                let sub = cache.get_or_insert_with(key, || {
                    Arc::new(
                        rec.time("core.plan.subset", wave, || plan.tree_subset(&adm.trees))
                            .0,
                    )
                });
                rec.exit(span);
                let (split, _) =
                    rec.time("core.plan.split", wave, || sub.split(specs[adm.idx].elems));
                let mut off = global_off[adm.idx];
                for (t, &len) in sub.trees.iter().zip(&split) {
                    trees.push(t.clone());
                    sizes.push(len);
                    offsets.push(off);
                    off += len;
                }
                let start = bindings.last().map_or(0, |b: &JobBinding| b.trees.end);
                bindings.push(JobBinding {
                    trees: start..start + adm.trees.len(),
                    release: adm.release,
                });
            }
            let (emb, _) = rec.time("simnet.embedding", wave, || {
                MultiTreeEmbedding::with_offsets(&plan.graph, &trees, &sizes, &offsets)
            });
            let allocs = alloc::allocations();
            let (run, _) = rec.time("simnet.engine", wave, || {
                Simulator::new(&plan.graph, &emb, sim_cfg).run_jobs_collective(&w, &bindings, kind)
            });
            self.counts.engine_allocs += alloc::allocations() - allocs;
            self.counts.engine_cycles += run.report.cycles;
            if !run.report.completed {
                // A fault-free wave always completes; count the wave's
                // jobs as failed so the comparison with the manager fails.
                self.counts.mismatches += admission.jobs.len() as u64;
            }

            for (adm, out) in admission.jobs.iter().zip(&run.jobs) {
                let spec = &specs[adm.idx];
                let participants = spec
                    .participants
                    .as_ref()
                    .map_or(u64::from(nodes), |p| p.len() as u64);
                self.counts.flit_hops += 2 * spec.elems * participants.saturating_sub(1);
                records[adm.idx] = Some(JobRecord {
                    spec: spec.clone(),
                    admit: now,
                    start: now + adm.release,
                    finish: now + out.completion,
                    trees: adm.trees.clone(),
                    wave: u32::try_from(wave).expect("waves fit u32"),
                    value_hash: out.value_hash,
                    mismatches: out.mismatches,
                    recovered: false,
                    recovery_rounds: 0,
                });
            }
            now += run.report.cycles;
        }
        records
            .into_iter()
            .map(|r| r.expect("every admitted job ran"))
            .collect()
    }
}

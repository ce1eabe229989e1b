//! The streaming cross-end executor: a fleet of sensor nodes running one
//! partitioned engine, sharded across cores, against one aggregator.
//!
//! Each node produces a segment every `segment_len / sampling_hz` seconds.
//! A segment flows through three serialized phases, priced exactly as the
//! analytic evaluator ([`xpro_core::partition::evaluate`]) prices them:
//!
//! 1. **front end** — the node's in-sensor cells (a per-node resource;
//!    consecutive segments of one node queue on it);
//! 2. **wireless** — every cross-end producer port becomes one frame
//!    (transmitted once per the grouped-cells rule), plus the one-sample
//!    result frame when the classifier output is produced on the sensor.
//!    Each node owns its half-duplex radio ([`LossyLink::for_node`]); a
//!    frame occupies it for the full airtime whether delivered or not,
//!    retransmissions back off exponentially and are bounded, and a
//!    segment that cannot finish by its deadline is skipped — the stream
//!    degrades gracefully instead of stalling;
//! 3. **back end** — the node's in-aggregator cells on the shared serial
//!    CPU. Segments arriving while the CPU is busy are served back-to-back
//!    as one batch, through a *bounded* inbox: arrivals beyond its
//!    capacity are rejected and counted (backpressure, never an unbounded
//!    queue).
//!
//! # Sharding
//!
//! Nodes interact only through the aggregator, so the fleet shards by
//! node: [`ExecutorBuilder::shards`] splits it into contiguous ranges,
//! each simulated node by node to the next barrier ([`crate::shard`]) on
//! a scoped-thread pool. Non-adaptive runs need a single barrier (the
//! aggregator never feeds back into the nodes);
//! adaptive runs place one barrier per segment period, where the executor
//! merges shard outputs deterministically — controller observations in
//! `(time, node, sequence)` order, aggregator jobs served from a pending
//! queue in `(ready, node, sequence)` order — lets the controller decide,
//! and broadcasts new plans and shed state to every shard. All cross-node
//! floating-point sums fold in global node order. The result: reports are
//! **bit-identical for any shard count, including 1**.
//!
//! On top of the iid drop model the executor injects lifecycle faults
//! ([`crate::lifecycle`]): Gilbert–Elliott channel bursts (fleet-global
//! weather, identical on every node's link), per-node crash/reboot windows
//! that wipe in-flight segments, battery-depletion shutdown, and periodic
//! aggregator outages. With the adaptive controller
//! ([`crate::controller`]) enabled, observed attempt inflation re-enters
//! the partition generator at barrier boundaries; each new plan applies
//! only to segments arriving after the switch — in-flight segments finish
//! under the plan (epoch) they started with.
//!
//! With a lossless link every completed segment therefore spends exactly
//! the analytic energy and (uncontended) the analytic delay; faults add
//! retransmission energy, latency and losses on top, which is the point of
//! the fault injection.

use crate::columnar::{ColumnBatch, ColumnData};
use crate::config::RuntimeConfig;
use crate::controller::{Controller, PartitionSwitch, PlanAudit, TierTimes};
use crate::lifecycle::OutageSchedule;
use crate::link::LossyLink;
use crate::report::{AggregatorReport, LatencyStats, NodeReport, RunReport, TenantReport};
use crate::shard::{burst_profile, AggJobRec, Obs, ShardSim};
use crate::sketch::QuantileSketch;
use crate::tenant::{Admission, Tenancy};
use std::collections::VecDeque;
use std::sync::Arc;
use xpro_core::generator::XProGenerator;
use xpro_core::instance::XProInstance;
use xpro_core::partition::Partition;
use xpro_core::profile::{segment_profile, SegmentProfile};
use xpro_core::{PlanCacheStats, XProError};

/// The per-segment execution plan under one partition: the shared
/// [`segment_profile`] walk, the streaming equivalent of one `evaluate`
/// call. The executor keeps one plan per *epoch* — every controller
/// switch appends a new plan, and each segment runs start-to-finish under
/// the plan of the epoch it arrived in.
type SegmentPlan = SegmentProfile;

/// How many shards (independently simulated node ranges) a run splits the
/// fleet into.
///
/// The shard count is an *execution* knob: it changes wall-clock time and
/// memory locality, never the simulation — reports are bit-identical for
/// any value. It therefore lives on the [`ExecutorBuilder`], not in
/// [`RuntimeConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardCount {
    /// One shard per available core, capped at the fleet size.
    #[default]
    Auto,
    /// Exactly this many shards, capped at the fleet size. Zero is
    /// rejected by [`ExecutorBuilder::build`].
    Fixed(usize),
}

impl From<usize> for ShardCount {
    fn from(n: usize) -> Self {
        ShardCount::Fixed(n)
    }
}

impl ShardCount {
    fn resolve(self, nodes: usize) -> usize {
        let wanted = match self {
            ShardCount::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            ShardCount::Fixed(n) => n,
        };
        wanted.clamp(1, nodes.max(1))
    }
}

/// What a streaming run executes: the priced instance, the partition its
/// segments run under, and the validated fleet/fault configuration.
///
/// Replaces the old positional `Executor::new(instance, partition,
/// config)` triple with a named, validated value that builders and
/// facades share.
#[derive(Clone, Debug)]
pub struct FleetSpec<'a> {
    instance: &'a XProInstance,
    partition: &'a Partition,
    config: RuntimeConfig,
}

impl<'a> FleetSpec<'a> {
    /// Binds an instance, a partition and a runtime configuration,
    /// validating both the partition/instance fit and the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when the partition size does not
    /// match the instance's cell count, or when the configuration violates
    /// any invariant of [`RuntimeConfig::validate`].
    pub fn new(
        instance: &'a XProInstance,
        partition: &'a Partition,
        config: RuntimeConfig,
    ) -> Result<Self, XProError> {
        if partition.in_sensor.len() != instance.num_cells() {
            return Err(XProError::config(format!(
                "partition covers {} cells but the instance has {}",
                partition.in_sensor.len(),
                instance.num_cells()
            )));
        }
        config.validate()?;
        Ok(FleetSpec {
            instance,
            partition,
            config,
        })
    }

    /// The priced instance segments are profiled against.
    pub fn instance(&self) -> &'a XProInstance {
        self.instance
    }

    /// The initial partition (epoch 0's plan).
    pub fn partition(&self) -> &'a Partition {
        self.partition
    }

    /// The run configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }
}

/// Validating builder of a [`FleetExecutor`]: execution knobs (shard
/// count, timestep recording) on top of a [`FleetSpec`].
///
/// ```
/// use xpro_runtime::{ExecutorBuilder, FleetSpec, RuntimeConfig, ShardCount};
/// # use xpro_core::builder::{build_full_cell_graph, BuildOptions};
/// # use xpro_core::config::SystemConfig;
/// # use xpro_core::generator::XProGenerator;
/// # use xpro_core::instance::XProInstance;
/// # fn main() -> Result<(), xpro_core::XProError> {
/// # let built = build_full_cell_graph(&BuildOptions::default(), 1, 4);
/// # let instance = XProInstance::try_new(built, SystemConfig::default(), 128)?;
/// # let partition = XProGenerator::new(&instance).generate()?;
/// let cfg = RuntimeConfig::builder().nodes(4).duration_s(0.5).seed(7).build()?;
/// let handle = ExecutorBuilder::new(FleetSpec::new(&instance, &partition, cfg)?)
///     .shards(ShardCount::Auto)
///     .build()?
///     .run();
/// assert!(handle.report.total_completed() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ExecutorBuilder<'a> {
    spec: FleetSpec<'a>,
    shards: ShardCount,
    record_timesteps: bool,
}

impl<'a> ExecutorBuilder<'a> {
    /// Starts a builder over a validated spec, defaulting to
    /// [`ShardCount::Auto`] and no timestep recording.
    pub fn new(spec: FleetSpec<'a>) -> Self {
        ExecutorBuilder {
            spec,
            shards: ShardCount::Auto,
            record_timesteps: false,
        }
    }

    /// Enables the columnar timestep recorder: the run barriers once per
    /// segment period and folds per-round fleet counter deltas (in
    /// global node order) into [`RunHandle::timesteps`]. Recording is an
    /// execution knob like the shard count — it never changes the
    /// simulation or the report.
    pub fn record_timesteps(mut self, record: bool) -> Self {
        self.record_timesteps = record;
        self
    }

    /// Sets the shard count (`ShardCount::Auto`, `ShardCount::Fixed(n)`,
    /// or a bare `usize`).
    pub fn shards(mut self, shards: impl Into<ShardCount>) -> Self {
        self.shards = shards.into();
        self
    }

    /// Resolves the shard count. The configuration was validated by
    /// [`FleetSpec::new`].
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] for a fixed shard count of zero.
    pub fn build(self) -> Result<FleetExecutor<'a>, XProError> {
        if self.shards == ShardCount::Fixed(0) {
            return Err(XProError::config(
                "shard count must be at least 1 (or ShardCount::Auto)",
            ));
        }
        let shards = self.shards.resolve(self.spec.config.nodes);
        Ok(FleetExecutor {
            spec: self.spec,
            shards,
            record_timesteps: self.record_timesteps,
        })
    }
}

/// Everything one run produces: the merged report and the execution
/// detail of how it ran.
#[derive(Clone, Debug)]
pub struct RunHandle {
    /// The merged fleet report — shard-count-independent by construction.
    pub report: RunReport,
    /// Shard count the run actually used (resolved from
    /// [`ShardCount::Auto`]). An execution detail: deliberately *not*
    /// part of [`RunReport`], which must not depend on it.
    pub shards: usize,
    /// Per-barrier-round columnar telemetry, present when
    /// [`ExecutorBuilder::record_timesteps`] was enabled: one row per
    /// round with time-bucketed event/fault counts, sensor energy and
    /// latency sums, folded in global node order (byte-identical for any
    /// shard count).
    pub timesteps: Option<ColumnBatch>,
    /// Bytes the per-node latency sketches occupied at digest time — the
    /// peak telemetry memory, O(nodes · sketch_size) by construction
    /// (the bench's `telemetry_sweep` demonstrates the flat per-node
    /// cost).
    pub telemetry_bytes: u64,
}

/// A validated, shard-resolved streaming run over one instance and
/// partition. Built by [`ExecutorBuilder::build`]; consumed by
/// [`FleetExecutor::run`].
#[derive(Clone, Debug)]
pub struct FleetExecutor<'a> {
    spec: FleetSpec<'a>,
    shards: usize,
    record_timesteps: bool,
}

/// Per-node cumulative counters snapshotted at each barrier; the
/// recorder's rows are the node-order folds of consecutive snapshot
/// deltas.
#[derive(Clone, Copy, Debug, Default)]
struct NodeSnap {
    offered: u64,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    lost_to_crash: u64,
    shed: u64,
    overflowed: u64,
    admission_rejected: u64,
    quarantined: u64,
    energy_pj: f64,
    lat_sum_s: f64,
}

/// Folds per-round fleet counter deltas into the columnar timestep
/// batch. Every row walks the nodes in global order (shards are
/// contiguous ranges, visited in order), so each cell — including the
/// f64 energy/latency folds — is shard-count-independent.
#[derive(Clone, Debug)]
struct TimestepRecorder {
    period_s: f64,
    prev: Vec<NodeSnap>,
    t_s: Vec<f64>,
    offered: Vec<u64>,
    completed: Vec<u64>,
    dropped: Vec<u64>,
    timed_out: Vec<u64>,
    lost_to_crash: Vec<u64>,
    shed: Vec<u64>,
    overflowed: Vec<u64>,
    admission_rejected: Vec<u64>,
    quarantined: Vec<u64>,
    energy_pj: Vec<f64>,
    latency_sum_s: Vec<f64>,
}

impl TimestepRecorder {
    fn new(nodes: usize, period_s: f64) -> Self {
        TimestepRecorder {
            period_s,
            prev: vec![NodeSnap::default(); nodes],
            t_s: Vec::new(),
            offered: Vec::new(),
            completed: Vec::new(),
            dropped: Vec::new(),
            timed_out: Vec::new(),
            lost_to_crash: Vec::new(),
            shed: Vec::new(),
            overflowed: Vec::new(),
            admission_rejected: Vec::new(),
            quarantined: Vec::new(),
            energy_pj: Vec::new(),
            latency_sum_s: Vec::new(),
        }
    }

    /// Records round `round` (0-based): one row of fleet-wide deltas
    /// since the previous barrier. A completion is bucketed into the
    /// round that *served* it (the deterministic merged service order),
    /// and the final drain round absorbs everything after the last
    /// barrier.
    fn fold_round(&mut self, round: u64, shards: &[ShardSim], agg: &AggPhase) {
        let mut row = NodeSnap::default();
        for sh in shards {
            for (local, core) in sh.cores.iter().enumerate() {
                let node = sh.first_node as usize + local;
                let cur = NodeSnap {
                    offered: core.offered,
                    completed: agg.completed[node],
                    dropped: core.dropped,
                    timed_out: core.timed_out,
                    lost_to_crash: core.lost_to_crash,
                    shed: core.shed,
                    overflowed: agg.overflowed[node],
                    admission_rejected: agg.admission_rejected[node],
                    quarantined: agg.quarantined[node],
                    energy_pj: core.compute_pj + core.wireless_pj,
                    lat_sum_s: agg.lat_sum[node],
                };
                let prev = &mut self.prev[node];
                row.offered += cur.offered - prev.offered;
                row.completed += cur.completed - prev.completed;
                row.dropped += cur.dropped - prev.dropped;
                row.timed_out += cur.timed_out - prev.timed_out;
                row.lost_to_crash += cur.lost_to_crash - prev.lost_to_crash;
                row.shed += cur.shed - prev.shed;
                row.overflowed += cur.overflowed - prev.overflowed;
                row.admission_rejected += cur.admission_rejected - prev.admission_rejected;
                row.quarantined += cur.quarantined - prev.quarantined;
                row.energy_pj += cur.energy_pj - prev.energy_pj;
                row.lat_sum_s += cur.lat_sum_s - prev.lat_sum_s;
                *prev = cur;
            }
        }
        self.t_s.push(self.period_s * round as f64);
        self.offered.push(row.offered);
        self.completed.push(row.completed);
        self.dropped.push(row.dropped);
        self.timed_out.push(row.timed_out);
        self.lost_to_crash.push(row.lost_to_crash);
        self.shed.push(row.shed);
        self.overflowed.push(row.overflowed);
        self.admission_rejected.push(row.admission_rejected);
        self.quarantined.push(row.quarantined);
        self.energy_pj.push(row.energy_pj);
        self.latency_sum_s.push(row.lat_sum_s);
    }

    fn into_batch(self) -> ColumnBatch {
        let mut batch = ColumnBatch::new();
        batch.push("t_s", ColumnData::F64(self.t_s));
        batch.push("offered", ColumnData::U64(self.offered));
        batch.push("completed", ColumnData::U64(self.completed));
        batch.push("dropped", ColumnData::U64(self.dropped));
        batch.push("timed_out", ColumnData::U64(self.timed_out));
        batch.push("lost_to_crash", ColumnData::U64(self.lost_to_crash));
        batch.push("shed", ColumnData::U64(self.shed));
        batch.push("overflowed", ColumnData::U64(self.overflowed));
        batch.push(
            "admission_rejected",
            ColumnData::U64(self.admission_rejected),
        );
        batch.push("quarantined", ColumnData::U64(self.quarantined));
        batch.push("energy_pj", ColumnData::F64(self.energy_pj));
        batch.push("latency_sum_s", ColumnData::F64(self.latency_sum_s));
        batch
    }
}

/// The aggregator phase, run single-threaded by the executor between
/// barriers: the merged bounded inbox, the batching CPU and the per-node
/// completion accumulators. Living here (not in the shards) is what makes
/// `peak_inbox` a bound on the *merged* inbox.
#[derive(Clone, Debug)]
struct AggPhase {
    cpu_free_s: f64,
    cpu_busy_s: f64,
    compute_pj: f64,
    batches: u64,
    batch_len: u64,
    max_batch: u64,
    /// Finish times of queued/in-service jobs plus the owning tenant
    /// index (0 without a tenant table): the bounded inbox. The tenant
    /// tag lets the drain release weighted-fair slots.
    inbox: VecDeque<(f64, u16)>,
    /// Worst merged-inbox occupancy observed (queued + in service), the
    /// dynamic counterpart of the static queue bound in
    /// `xpro_analyze::timing`.
    peak_inbox: usize,
    /// Jobs whose wireless phase finished but whose service time has not
    /// safely passed the last barrier yet, kept sorted ascending. A
    /// sorted `Vec` fed by [`AggPhase::merge_runs`] beats a binary heap
    /// here: each shard delivers one sorted run per barrier and a k-way
    /// merge is linear with sequential memory access, where heap pushes
    /// from later shards (whose timestamps restart near zero) would each
    /// sift to the root of a multi-million-entry heap through
    /// random-access cache misses — a measured 25–40 % swing at 100k
    /// nodes.
    pending: Vec<AggJobRec>,
    completed: Vec<u64>,
    overflowed: Vec<u64>,
    /// Per-node jobs rejected by the owning tenant's rate quota.
    admission_rejected: Vec<u64>,
    /// Per-node jobs dropped while the owning tenant was quarantined.
    quarantined: Vec<u64>,
    /// Per-node latency telemetry: a fixed-size mergeable quantile
    /// sketch instead of a raw sample vector, so the executor's peak
    /// telemetry memory is O(nodes · sketch_size) — independent of how
    /// many segments complete.
    sketches: Vec<QuantileSketch>,
    /// Per-node running latency sum (seconds), accumulated in the
    /// deterministic merged service order — feeds the columnar export's
    /// `latency_sum_s` column exactly.
    lat_sum: Vec<f64>,
}

impl AggPhase {
    fn new(nodes: usize) -> Self {
        AggPhase {
            cpu_free_s: 0.0,
            cpu_busy_s: 0.0,
            compute_pj: 0.0,
            batches: 0,
            batch_len: 0,
            max_batch: 0,
            inbox: VecDeque::new(),
            peak_inbox: 0,
            pending: Vec::new(),
            completed: vec![0; nodes],
            overflowed: vec![0; nodes],
            admission_rejected: vec![0; nodes],
            quarantined: vec![0; nodes],
            sketches: vec![QuantileSketch::new(); nodes],
            lat_sum: vec![0.0; nodes],
        }
    }

    /// Absorbs the shards' sorted job runs (and the sorted leftover queue)
    /// into one sorted pending queue by k-way merge. Job keys are unique
    /// (`seq` counts per node, and a node's jobs live in one shard per
    /// round), so the merge — like any comparison sort under the key — is
    /// deterministic and independent of run arrival order.
    fn merge_runs(&mut self, shards: &mut [ShardSim]) {
        let mut lists: Vec<Vec<AggJobRec>> = Vec::with_capacity(shards.len() + 1);
        if !self.pending.is_empty() {
            lists.push(std::mem::take(&mut self.pending));
        }
        for sh in &mut *shards {
            if !sh.jobs.is_empty() {
                lists.push(std::mem::take(&mut sh.jobs));
            }
        }
        if lists.len() <= 1 {
            if let Some(only) = lists.pop() {
                self.pending = only;
            }
            return;
        }
        let mut merged = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        // Linear min-scan over ≤ shards+1 cursors: for the small k of a
        // core-count-bounded shard list this beats a cursor heap.
        let mut cursors = vec![0usize; lists.len()];
        loop {
            let mut best: Option<usize> = None;
            for (i, list) in lists.iter().enumerate() {
                if cursors[i] < list.len()
                    && best.is_none_or(|b| list[cursors[i]] < lists[b][cursors[b]])
                {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            merged.push(lists[b][cursors[b]]);
            cursors[b] += 1;
        }
        self.pending = merged;
    }

    /// Serves every pending job strictly before `horizon_s`. Safe at a
    /// barrier: events at or after the barrier can only produce jobs ready
    /// at or after it, so everything earlier is already in the queue.
    fn process_ready(
        &mut self,
        horizon_s: f64,
        plans: &[Arc<SegmentPlan>],
        cfg: &RuntimeConfig,
        outage: &OutageSchedule,
        tenancy: &mut Option<Tenancy>,
    ) {
        debug_assert!(self.pending.windows(2).all(|w| w[0] < w[1]));
        let ready = self.pending.partition_point(|j| j.ready_s < horizon_s);
        for i in 0..ready {
            let job = self.pending[i];
            let now = job.ready_s;
            // Bounded inbox: drain finished jobs (releasing their
            // tenants' weighted-fair slots), then gate the arrival.
            while let Some(&(finish, owner)) = self.inbox.front() {
                if finish > now {
                    break;
                }
                self.inbox.pop_front();
                if let Some(tn) = tenancy.as_mut() {
                    tn.inbox_release(owner);
                }
            }
            // Admission: quarantine, then rate quota, then inbox
            // capacity — the cheapest rejection wins, and a rejected job
            // never occupies inbox space or CPU time.
            let ti = match tenancy.as_mut() {
                Some(tn) => {
                    let ti = tn.tenant_of(job.node);
                    match tn.admit(ti, now) {
                        Admission::Quarantined => {
                            self.quarantined[job.node as usize] += 1;
                            continue;
                        }
                        Admission::QuotaRejected => {
                            self.admission_rejected[job.node as usize] += 1;
                            continue;
                        }
                        Admission::Admit => {}
                    }
                    if !tn.inbox_admit(ti) {
                        self.overflowed[job.node as usize] += 1;
                        continue;
                    }
                    ti
                }
                None => {
                    if self.inbox.len() >= cfg.agg_inbox {
                        self.overflowed[job.node as usize] += 1;
                        continue;
                    }
                    0
                }
            };
            let plan = &plans[job.epoch as usize];
            let idle = now >= self.cpu_free_s;
            let wake = if idle {
                self.max_batch = self.max_batch.max(self.batch_len);
                self.batches += 1;
                self.batch_len = 1;
                cfg.batch_wake_s
            } else {
                self.batch_len += 1;
                0.0
            };
            // A job that would start inside an outage window is deferred
            // to the window's end (jobs already running when the outage
            // hits are assumed to finish).
            let start = now.max(self.cpu_free_s);
            let start = outage.outage_at(start).unwrap_or(start);
            let done = start + wake + plan.back_s;
            self.cpu_busy_s += done - start;
            self.cpu_free_s = done;
            self.inbox.push_back((done, ti));
            self.peak_inbox = self.peak_inbox.max(self.inbox.len());
            self.compute_pj += plan.agg_compute_pj;
            self.completed[job.node as usize] += 1;
            let latency = done - job.arrival_s;
            self.sketches[job.node as usize].record(latency);
            self.lat_sum[job.node as usize] += latency;
        }
        self.pending.drain(..ready);
    }
}

/// Advances every shard to the barrier on a hand-rolled fork-join pool:
/// one scoped worker per available core, each draining a contiguous chunk
/// of shards. With one worker (or one shard) the round runs inline — the
/// identical computation, no threads.
///
/// Each shard sorts its own job run inside the round, so the sorts
/// parallelize with the simulation and the merge sees sorted runs.
fn run_round(shards: &mut [ShardSim], target_s: f64) {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(shards.len());
    let advance = |sh: &mut ShardSim| {
        sh.run_until(target_s);
        sh.jobs.sort_unstable();
    };
    if workers <= 1 {
        shards.iter_mut().for_each(advance);
        return;
    }
    let chunk = shards.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for group in shards.chunks_mut(chunk) {
            scope.spawn(move || group.iter_mut().for_each(advance));
        }
    });
}

impl FleetExecutor<'_> {
    /// Runs the fleet to completion and digests the result.
    ///
    /// The simulation is in virtual time: arrivals are generated for
    /// `[0, duration_s)` and every in-flight segment is drained, so the
    /// run always terminates — loss, faults and overload surface as
    /// skipped segments and latency, never as a stall.
    pub fn run(&self) -> RunHandle {
        let cfg = &self.spec.config;
        let instance = self.spec.instance;
        let period_s = instance.segment_len() as f64 / instance.config().sampling_hz;
        let mut plans: Vec<Arc<SegmentPlan>> =
            vec![Arc::new(segment_profile(instance, self.spec.partition))];

        // Contiguous, near-equal node ranges; the first `extra` shards take
        // one node more.
        let mut shards: Vec<ShardSim> = Vec::with_capacity(self.shards);
        let base = cfg.nodes / self.shards;
        let extra = cfg.nodes % self.shards;
        let mut first = 0u32;
        for i in 0..self.shards {
            let count = (base + usize::from(i < extra)) as u32;
            shards.push(ShardSim::new(
                first,
                count,
                cfg,
                period_s,
                Arc::clone(&plans[0]),
            ));
            first += count;
        }

        // Multi-tenant admission: the fallback (classify-only) plan is
        // pinned at epoch 1 on every shard *before* any controller plan,
        // so epoch indices agree across shards and degraded tenants'
        // arrivals run under it.
        let mut tenancy = cfg
            .tenancy_enabled()
            .then(|| Tenancy::new(&cfg.tenants, cfg.agg_inbox));
        if tenancy.is_some() {
            let generator = XProGenerator::new(instance);
            let all_sensor = Partition::all_sensor(instance.num_cells());
            let fallback = if generator.numerically_valid(&all_sensor) {
                all_sensor
            } else {
                generator.trivial_cut()
            };
            let fb_plan: Arc<SegmentPlan> = Arc::new(segment_profile(instance, &fallback));
            plans.push(Arc::clone(&fb_plan));
            for sh in &mut shards {
                sh.install_fallback(Arc::clone(&fb_plan));
            }
        }

        let mut controller = cfg
            .adaptive
            .then(|| Controller::new(instance, self.spec.partition, cfg));
        let outage = OutageSchedule::new(cfg.agg_outage_period_s, cfg.agg_outage_s);
        let mut agg = AggPhase::new(cfg.nodes);

        let mut recorder = self
            .record_timesteps
            .then(|| TimestepRecorder::new(cfg.nodes, period_s));

        // Adaptive, multi-tenant and timestep-recording runs barrier
        // once per segment period (the controller and the tenancy state
        // machines act at segment boundaries, and the recorder samples
        // its counter deltas there); plain runs drain in a single round
        // — the aggregator never feeds back into the nodes. Forcing
        // barriers for recording never changes the simulation: jobs are
        // served in the identical merged order either way.
        let mut k = 1u64;
        loop {
            let t_k = period_s * k as f64;
            let barrier = (controller.is_some() || tenancy.is_some() || recorder.is_some())
                && t_k < cfg.duration_s;
            let target = if barrier { t_k } else { f64::INFINITY };
            run_round(&mut shards, target);

            if let Some(ctl) = controller.as_mut() {
                // Merge the round's observations into one total order
                // before feeding the estimator.
                let mut obs: Vec<Obs> = Vec::new();
                for sh in &mut shards {
                    obs.append(&mut sh.obs);
                }
                obs.sort_by(|a, b| {
                    a.time_s
                        .total_cmp(&b.time_s)
                        .then_with(|| a.node.cmp(&b.node))
                        .then_with(|| a.idx.cmp(&b.idx))
                });
                for o in &obs {
                    ctl.observe(o.attempts);
                }
            }
            agg.merge_runs(&mut shards);
            agg.process_ready(target, &plans, cfg, &outage, &mut tenancy);
            if let Some(rec) = recorder.as_mut() {
                rec.fold_round(k - 1, &shards, &agg);
            }

            if !barrier {
                break;
            }
            if let Some(ctl) = controller.as_mut() {
                if let Some(p) = ctl.maybe_replan(t_k, instance) {
                    let plan = Arc::new(segment_profile(instance, &p));
                    plans.push(Arc::clone(&plan));
                    for sh in &mut shards {
                        sh.install_plan(Arc::clone(&plan));
                    }
                }
                let shed = ctl.shed_every();
                for sh in &mut shards {
                    sh.set_shed_every(shed);
                }
            }
            if let Some(tn) = tenancy.as_mut() {
                // Tier/breaker state advances at the barrier in global
                // tenant order; a policy change re-broadcasts every
                // node's (degraded, shed) pair to its shard.
                if tn.barrier_round(t_k) {
                    for sh in &mut shards {
                        for local in 0..sh.cores.len() {
                            let node = sh.first_node + local as u32;
                            let ti = tn.tenant_of(node);
                            let (degraded, shed) = tn.node_policy(ti);
                            sh.set_node_policy(node, degraded, shed);
                        }
                    }
                }
            }
            k += 1;
        }
        agg.max_batch = agg.max_batch.max(agg.batch_len);

        if let Some(tn) = tenancy.as_mut() {
            tn.finish(cfg.duration_s);
        }
        let (switches, tier_times, plan_audit, plan_cache) = match controller {
            Some(ctl) => ctl.finish(cfg.duration_s),
            None => (
                Vec::new(),
                TierTimes {
                    normal_s: cfg.duration_s,
                    ..Default::default()
                },
                PlanAudit::default(),
                PlanCacheStats::default(),
            ),
        };
        let telemetry_bytes: u64 = agg.sketches.iter().map(|s| s.mem_bytes() as u64).sum();
        let timesteps = recorder.map(TimestepRecorder::into_batch);
        let report = self.digest(
            &shards, &outage, agg, tenancy, switches, tier_times, plan_audit, plan_cache,
        );
        RunHandle {
            report,
            shards: self.shards,
            timesteps,
            telemetry_bytes,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn digest(
        &self,
        shards: &[ShardSim],
        outage: &OutageSchedule,
        agg: AggPhase,
        tenancy: Option<Tenancy>,
        switches: Vec<PartitionSwitch>,
        tier_times: TierTimes,
        plan_audit: PlanAudit,
        plan_cache: PlanCacheStats,
    ) -> RunReport {
        let cfg = &self.spec.config;
        let sys = self.spec.instance.config();
        let duration = cfg.duration_s;

        // Per-tenant latency digests: each tenant merges its node range's
        // sketches (order-invariant integer merges, walked in node
        // order). Done by reference, before the node loop digests the
        // same sketches for the per-node stats.
        let tenant_latency: Vec<LatencyStats> = tenancy.as_ref().map_or_else(Vec::new, |tn| {
            tn.specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let first = tn.first_node[i] as usize;
                    let mut merged = QuantileSketch::new();
                    for node in first..first + spec.nodes {
                        merged.merge(&agg.sketches[node]);
                    }
                    LatencyStats::from_sketch(&merged)
                })
                .collect()
        });

        // The fleet-wide digest is the merge of every node's sketch, in
        // global node order.
        let mut fleet_sketch = QuantileSketch::new();
        for sketch in &agg.sketches {
            fleet_sketch.merge(sketch);
        }
        let fleet = LatencyStats::from_sketch(&fleet_sketch);

        // Cross-node folds run in global node order (shards are contiguous
        // ranges in order), so every f64 sum is shard-count-independent.
        let mut node_reports: Vec<NodeReport> = Vec::with_capacity(cfg.nodes);
        let mut channel_busy_s = 0.0;
        let mut agg_rx_pj = 0.0;
        for sh in shards {
            for (local, core) in sh.cores.iter().enumerate() {
                let node = sh.first_node as usize + local;
                channel_busy_s += sh.links[local].busy_s();
                agg_rx_pj += core.agg_rx_pj;
                let total_pj = core.compute_pj + core.wireless_pj;
                let avg_power_w = total_pj * 1e-12 / duration;
                let battery = &sys.sensor_battery;
                node_reports.push(NodeReport {
                    node,
                    segments_offered: core.offered,
                    segments_completed: agg.completed[node],
                    segments_dropped: core.dropped,
                    segments_timed_out: core.timed_out,
                    segments_lost_to_crash: core.lost_to_crash,
                    segments_shed: core.shed,
                    segments_overflowed: agg.overflowed[node],
                    segments_admission_rejected: agg.admission_rejected[node],
                    segments_quarantined: agg.quarantined[node],
                    crashes: sh.lives[local].crashes(),
                    battery_depleted: core.depleted,
                    frame_attempts: core.frame_attempts,
                    frame_drops: core.frame_drops,
                    retries: core.retries,
                    throughput_hz: agg.completed[node] as f64 / duration,
                    latency: LatencyStats::from_sketch(&agg.sketches[node]),
                    compute_pj: core.compute_pj,
                    wireless_pj: core.wireless_pj,
                    battery_hours: battery.runtime_hours(avg_power_w),
                    battery_drawdown: total_pj * 1e-12 / battery.energy_j(),
                });
            }
        }
        let inbox_overflows = agg.overflowed.iter().sum();
        let admission_rejected = agg.admission_rejected.iter().sum();
        let quarantine_dropped = agg.quarantined.iter().sum();

        // Per-tenant digests: node-order folds over the tenant's range
        // plus the admission layer's own counters and tier history.
        let mut tenants: Vec<TenantReport> = Vec::new();
        if let Some(tn) = &tenancy {
            for (i, (spec, st)) in tn.specs.iter().zip(&tn.states).enumerate() {
                let first = tn.first_node[i] as usize;
                let range = &node_reports[first..first + spec.nodes];
                let t_offered: u64 = range.iter().map(|n| n.segments_offered).sum();
                let t_completed: u64 = range.iter().map(|n| n.segments_completed).sum();
                let latency = tenant_latency[i];
                tenants.push(TenantReport {
                    name: spec.name.clone(),
                    first_node: first,
                    nodes: spec.nodes,
                    segments_offered: t_offered,
                    admitted: st.admitted,
                    completed: t_completed,
                    admission_rejected: st.admission_rejected,
                    inbox_overflow: st.inbox_overflow,
                    quarantine_dropped: st.quarantine_dropped,
                    quarantines: st.quarantines,
                    reserved_inbox: st.reserved as u64,
                    peak_inbox: st.peak_occupancy as u64,
                    delivery_rate: if t_offered > 0 {
                        t_completed as f64 / t_offered as f64
                    } else {
                        0.0
                    },
                    latency,
                    tier_times: st.tier_times,
                });
            }
        }

        let channel_utilization = channel_busy_s / duration;
        // Channel weather is a pure function of (profile, seed): replay
        // the chain over the run window instead of asking any one link.
        let channel_bad_s =
            burst_profile(cfg).map_or(0.0, |p| LossyLink::weather_bad_s(p, cfg.seed, duration));

        // Aggregator energy: per-node receive folds (node order) plus the
        // serial CPU's compute spend (merged service order).
        let energy_pj = agg_rx_pj + agg.compute_pj;
        let agg_power_w = energy_pj * 1e-12 / duration;
        let aggregator = AggregatorReport {
            batches: agg.batches,
            max_batch: agg.max_batch,
            peak_inbox: agg.peak_inbox as u64,
            busy_s: agg.cpu_busy_s,
            utilization: agg.cpu_busy_s / duration,
            energy_pj,
            battery_hours: sys.aggregator_battery.runtime_hours(agg_power_w),
            outage_s: outage.total_outage_s(duration),
            inbox_overflows,
            admission_rejected,
            quarantine_dropped,
        };

        RunReport {
            duration_s: duration,
            nodes: node_reports,
            tenants,
            fleet,
            aggregator,
            channel_busy_s,
            channel_utilization,
            channel_bad_s,
            partition_switches: switches,
            tier_times,
            plan_audit,
            plan_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::tenant::TenantSpec;
    use crate::testutil::tiny_instance;
    use xpro_core::generator::{Engine, XProGenerator};
    use xpro_core::partition::evaluate;

    fn cross_end(inst: &XProInstance) -> Partition {
        XProGenerator::new(inst)
            .partition_for(Engine::CrossEnd)
            .unwrap()
    }

    fn run(inst: &XProInstance, p: &Partition, cfg: RuntimeConfig) -> RunReport {
        ExecutorBuilder::new(FleetSpec::new(inst, p, cfg).unwrap())
            .build()
            .unwrap()
            .run()
            .report
    }

    fn run_sharded(inst: &XProInstance, p: &Partition, cfg: RuntimeConfig, n: usize) -> RunReport {
        ExecutorBuilder::new(FleetSpec::new(inst, p, cfg).unwrap())
            .shards(n)
            .build()
            .unwrap()
            .run()
            .report
    }

    /// Every offered segment must terminate in exactly one bucket.
    fn assert_accounted(report: &RunReport) {
        for n in &report.nodes {
            assert_eq!(
                n.segments_offered,
                n.segments_completed
                    + n.segments_dropped
                    + n.segments_timed_out
                    + n.segments_lost_to_crash
                    + n.segments_shed
                    + n.segments_overflowed
                    + n.segments_admission_rejected
                    + n.segments_quarantined,
                "node {} leaks segments",
                n.node
            );
        }
    }

    #[test]
    fn rejects_mismatched_partition() {
        let inst = tiny_instance(0);
        let p = Partition::all_sensor(inst.num_cells() + 1);
        let err = FleetSpec::new(&inst, &p, RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, XProError::Config(_)));
    }

    #[test]
    fn builder_rejects_zero_shards() {
        let inst = tiny_instance(0);
        let p = cross_end(&inst);
        let spec = FleetSpec::new(&inst, &p, RuntimeConfig::default()).unwrap();
        let err = ExecutorBuilder::new(spec).shards(0).build();
        assert!(matches!(err, Err(XProError::Config(_))));
    }

    #[test]
    fn builder_shards_resolve_to_the_fleet_size() {
        let inst = tiny_instance(0);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(0.5)
            .seed(5)
            .build()
            .unwrap();
        let handle = ExecutorBuilder::new(FleetSpec::new(&inst, &p, cfg).unwrap())
            .shards(8) // capped at the fleet size
            .build()
            .unwrap()
            .run();
        assert_eq!(handle.shards, 3);
        assert!(handle.report.total_completed() > 0);
    }

    #[test]
    fn zero_loss_run_matches_analytic_evaluator() {
        let inst = tiny_instance(1);
        for p in [
            cross_end(&inst),
            Partition::all_sensor(inst.num_cells()),
            Partition::all_aggregator(inst.num_cells()),
        ] {
            let analytic = evaluate(&inst, &p);
            // One uncontended node: per-segment latency and energy must
            // reproduce the analytic serialized model within 1 %.
            let cfg = RuntimeConfig::builder()
                .nodes(1)
                .duration_s(1.0)
                .drop_rate(0.0)
                .build()
                .unwrap();
            let report = run(&inst, &p, cfg);
            let node = &report.nodes[0];
            assert_eq!(node.segments_offered, node.segments_completed);
            assert_eq!(
                node.retries + node.segments_dropped + node.segments_timed_out,
                0
            );
            let energy_per_event = node.total_pj() / node.segments_completed as f64;
            let rel_e =
                (energy_per_event - analytic.sensor.total_pj()).abs() / analytic.sensor.total_pj();
            assert!(rel_e < 0.01, "energy off by {rel_e}");
            let rel_d =
                (node.latency.p50_s - analytic.delay.total_s()).abs() / analytic.delay.total_s();
            assert!(rel_d < 0.01, "delay off by {rel_d}");
        }
    }

    #[test]
    fn retries_grow_monotonically_with_drop_rate() {
        let inst = tiny_instance(2);
        let p = cross_end(&inst);
        let mut last = 0u64;
        for (i, rate) in [0.0, 0.05, 0.15, 0.3].into_iter().enumerate() {
            let cfg = RuntimeConfig::builder()
                .nodes(4)
                .duration_s(2.0)
                .drop_rate(rate)
                .seed(1234)
                .build()
                .unwrap();
            let retries = run(&inst, &p, cfg).total_retries();
            assert!(
                retries >= last,
                "rate {rate}: retries {retries} < previous {last} (step {i})"
            );
            last = retries;
        }
        assert!(last > 0, "the sweep never retried");
    }

    #[test]
    fn heavy_loss_degrades_gracefully() {
        let inst = tiny_instance(3);
        let p = Partition::all_aggregator(inst.num_cells());
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.9)
            .max_retries(2)
            .timeout_s(0.05)
            .seed(7)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
        let accounted = report.total_completed() + report.total_lost();
        // Every offered segment terminates — completed or skipped, never
        // stuck.
        assert_eq!(offered, accounted);
        assert!(report.total_lost() > 0, "no loss at 90 % drop rate");
        assert_accounted(&report);
    }

    #[test]
    fn equal_seeds_reproduce_the_run() {
        let inst = tiny_instance(4);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(1.0)
            .drop_rate(0.2)
            .seed(99)
            .build()
            .unwrap();
        let a = run(&inst, &p, cfg.clone());
        let b = run(&inst, &p, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn shard_counts_are_bit_identical() {
        let inst = tiny_instance(4);
        let p = cross_end(&inst);
        // The full fault stack plus the adaptive controller: the hardest
        // case for shard-invariance.
        let cfg = RuntimeConfig::builder()
            .nodes(6)
            .duration_s(2.0)
            .drop_rate(0.1)
            .burst_bad_rate(0.9)
            .burst_p_enter(0.2)
            .burst_p_exit(0.1)
            .burst_slot_s(0.1)
            .mtbf_s(0.7)
            .mttr_s(0.2)
            .adaptive(true)
            .adaptive_window(16)
            .min_dwell_s(0.2)
            .seed(2027)
            .build()
            .unwrap();
        let one = run_sharded(&inst, &p, cfg.clone(), 1);
        for shards in [2, 4, 6] {
            let n = run_sharded(&inst, &p, cfg.clone(), shards);
            assert_eq!(one, n, "{shards} shards diverged structurally");
            assert_eq!(
                one.to_json(),
                n.to_json(),
                "{shards} shards diverged in JSON"
            );
        }
        assert_accounted(&one);
    }

    #[test]
    fn auto_shards_match_any_fixed_count() {
        let inst = tiny_instance(5);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(1.0)
            .drop_rate(0.2)
            .seed(8)
            .build()
            .unwrap();
        let auto = run(&inst, &p, cfg.clone());
        for shards in [1, 2, 3] {
            assert_eq!(auto, run_sharded(&inst, &p, cfg.clone(), shards));
        }
    }

    #[test]
    fn tenancy_off_is_byte_identical_to_the_legacy_engine() {
        // An empty tenant table must not perturb a single draw or fold:
        // the run report (JSON included) is the exact legacy output.
        let inst = tiny_instance(5);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(1.0)
            .drop_rate(0.2)
            .seed(8)
            .build()
            .unwrap();
        let plain = run(&inst, &p, cfg.clone());
        let empty_table = RuntimeConfig {
            tenants: Vec::new(),
            ..cfg
        };
        let tagged = run(&inst, &p, empty_table);
        assert_eq!(plain, tagged);
        assert_eq!(plain.to_json(), tagged.to_json());
        assert!(plain.tenants.is_empty());
    }

    #[test]
    fn tenant_quota_rejects_and_isolates_the_neighbor() {
        let inst = tiny_instance(5);
        let p = cross_end(&inst);
        // Tenant "cap" gets a starvation-level quota; "free" is
        // unlimited. The fleet must keep every "free" segment while
        // "cap" eats admission rejections.
        let tenants = vec![
            TenantSpec::new("cap", 2)
                .quota_hz(0.5)
                .quota_burst(1)
                .degrade(false)
                .breaker_rounds(0),
            TenantSpec::new("free", 2),
        ];
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.0)
            .seed(8)
            .tenants(tenants)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        assert_accounted(&report);
        assert_eq!(report.tenants.len(), 2);
        let cap = &report.tenants[0];
        let free = &report.tenants[1];
        assert!(
            cap.admission_rejected > 0,
            "a 0.5 Hz quota must reject most jobs"
        );
        assert_eq!(free.admission_rejected, 0);
        assert_eq!(
            free.completed, free.segments_offered,
            "the unlimited tenant must be untouched"
        );
        assert_eq!(
            report.aggregator.admission_rejected, cap.admission_rejected,
            "fleet counter folds the per-tenant ones"
        );
        assert!(report.to_json().contains("\"tenants\":[{\"name\":\"cap\""));
        assert!(report.render().contains("cap"));
    }

    #[test]
    fn timestep_recording_never_perturbs_the_run() {
        let inst = tiny_instance(6);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.2)
            .mtbf_s(0.7)
            .mttr_s(0.2)
            .seed(31)
            .build()
            .unwrap();
        let plain = run(&inst, &p, cfg.clone());
        let handle = ExecutorBuilder::new(FleetSpec::new(&inst, &p, cfg).unwrap())
            .record_timesteps(true)
            .build()
            .unwrap()
            .run();
        // Forcing per-period barriers for the recorder must not change a
        // single fold: the report is byte-identical to the plain run.
        assert_eq!(plain, handle.report);
        assert_eq!(plain.to_json(), handle.report.to_json());
        let batch = handle.timesteps.expect("recording was enabled");
        assert!(batch.rows() > 1, "a 2 s run spans many segment periods");
        assert!(handle.telemetry_bytes > 0);

        // Aggregation layer: the exported columns fold back to exactly
        // the report's totals.
        let summary = crate::columnar::summarize_timesteps(&batch).unwrap();
        let offered: u64 = plain.nodes.iter().map(|n| n.segments_offered).sum();
        assert_eq!(summary.offered, offered);
        assert_eq!(summary.completed, plain.total_completed());
        assert_eq!(summary.lost, plain.total_lost());
        let energy: f64 = plain.nodes.iter().map(NodeReport::total_pj).sum();
        assert!((summary.energy_pj - energy).abs() <= 1e-6 * energy.abs().max(1.0));
    }

    #[test]
    fn timestep_batches_are_bit_identical_across_shards() {
        let inst = tiny_instance(4);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(6)
            .duration_s(2.0)
            .drop_rate(0.1)
            .burst_bad_rate(0.9)
            .burst_p_enter(0.2)
            .burst_p_exit(0.1)
            .burst_slot_s(0.1)
            .mtbf_s(0.7)
            .mttr_s(0.2)
            .adaptive(true)
            .adaptive_window(16)
            .min_dwell_s(0.2)
            .seed(2027)
            .build()
            .unwrap();
        let batch_at = |shards: usize| {
            ExecutorBuilder::new(FleetSpec::new(&inst, &p, cfg.clone()).unwrap())
                .shards(shards)
                .record_timesteps(true)
                .build()
                .unwrap()
                .run()
                .timesteps
                .expect("recording was enabled")
        };
        let one = batch_at(1);
        for shards in [2, 4, 6] {
            let n = batch_at(shards);
            assert_eq!(one, n, "{shards} shards diverged structurally");
            assert_eq!(
                one.to_bytes(),
                n.to_bytes(),
                "{shards} shards diverged in serialized bytes"
            );
        }
    }

    #[test]
    fn fleet_report_is_consistent() {
        let inst = tiny_instance(5);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.05)
            .seed(5)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        assert_eq!(report.nodes.len(), 4);
        assert!(report.total_completed() > 0);
        for n in &report.nodes {
            assert!(n.segments_offered > 0);
            assert!(n.battery_hours > 0.0);
            assert!(n.battery_drawdown >= 0.0);
            assert!(n.latency.p50_s <= n.latency.p99_s + 1e-12);
        }
        assert!(report.channel_utilization >= 0.0);
        assert!(report.partition_switches.is_empty());
        assert_eq!(report.tier_times.normal_s, 2.0);
        assert!(!report.render().is_empty());
        assert!(report.to_json().starts_with('{'));
    }

    #[test]
    fn crashes_lose_in_flight_segments_but_account_for_all() {
        let inst = tiny_instance(6);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(4.0)
            .mtbf_s(0.5)
            .mttr_s(0.3)
            .reboot_warmup_s(0.1)
            .seed(11)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        let lost_to_crash: u64 = report.nodes.iter().map(|n| n.segments_lost_to_crash).sum();
        let crashes: u64 = report.nodes.iter().map(|n| n.crashes).sum();
        assert!(crashes > 0, "MTBF 0.5 s over 4 s must crash someone");
        assert!(lost_to_crash > 0, "crashes must cost segments");
        assert!(
            report.total_completed() > 0,
            "fleet must still make progress"
        );
        assert_accounted(&report);
    }

    #[test]
    fn battery_depletion_shuts_a_node_down_permanently() {
        let inst = tiny_instance(7);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(1)
            .duration_s(4.0)
            .battery_budget_pj(1e6) // a few segments' worth
            .seed(3)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        let n = &report.nodes[0];
        assert!(n.battery_depleted, "budget must run out");
        assert!(n.segments_completed > 0, "some segments before depletion");
        assert!(
            n.segments_lost_to_crash > 0,
            "post-depletion arrivals are lost"
        );
        assert!(
            n.compute_pj + n.wireless_pj < 2e6,
            "spend stops near the budget"
        );
        assert_accounted(&report);
    }

    #[test]
    fn aggregator_outage_backpressures_the_bounded_inbox() {
        let inst = tiny_instance(8);
        let p = Partition::all_aggregator(inst.num_cells());
        let cfg = RuntimeConfig::builder()
            .nodes(8)
            .duration_s(4.0)
            .agg_outage_period_s(1.0)
            .agg_outage_s(0.9)
            .agg_inbox(2)
            .timeout_s(4.0)
            .seed(13)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        assert!(report.aggregator.outage_s > 0.0);
        assert!(
            report.aggregator.inbox_overflows > 0,
            "a 90 % outage duty cycle with a 2-deep inbox must overflow"
        );
        assert_accounted(&report);
        // Deferred jobs complete after the outage windows, not inside.
        assert!(report.total_completed() > 0);
    }

    #[test]
    fn adaptive_run_switches_partition_under_a_permanent_burst() {
        let inst = tiny_instance(9);
        let p = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(4)
            .duration_s(6.0)
            .burst_bad_rate(0.9)
            .burst_p_enter(1.0) // enters the bad state at the first slot
            .burst_p_exit(0.0) // and never leaves: permanent degradation
            .burst_slot_s(0.5)
            .max_retries(6)
            .adaptive(true)
            .adaptive_window(32)
            .min_dwell_s(0.2)
            .seed(17)
            .build()
            .unwrap();
        let report = run(&inst, &p, cfg);
        assert!(
            !report.partition_switches.is_empty(),
            "a 90 % permanent burst must trigger the controller"
        );
        assert!(report.channel_bad_s > 0.0);
        let degraded = report.tier_times.classify_only_s + report.tier_times.shed_s;
        let normal = report.tier_times.normal_s;
        assert!(
            (degraded + normal - 6.0).abs() < 1e-9,
            "tier times must partition the run"
        );
        assert_accounted(&report);
        // Every committed Normal-tier epoch went through the certificate
        // gate; honest generator cuts are never rejected.
        assert_eq!(report.plan_audit.rejected, 0);
        assert!(
            report.to_json().contains("\"plan_audit\":{\"certified\":"),
            "the audit must surface in the JSON report"
        );
    }

    #[test]
    fn fault_knobs_off_reproduce_the_plain_iid_run() {
        let inst = tiny_instance(10);
        let p = cross_end(&inst);
        let base = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(2.0)
            .drop_rate(0.15)
            .seed(23)
            .build()
            .unwrap();
        let plain = run(&inst, &p, base);
        // Explicitly-disabled fault knobs must not perturb a single draw.
        let noop = RuntimeConfig::builder()
            .nodes(3)
            .duration_s(2.0)
            .drop_rate(0.15)
            .seed(23)
            .burst_bad_rate(0.0)
            .mtbf_s(0.0)
            .battery_budget_pj(0.0)
            .agg_outage_period_s(0.0)
            .build()
            .unwrap();
        let silent = run(&inst, &p, noop);
        assert_eq!(plain, silent);
    }
}

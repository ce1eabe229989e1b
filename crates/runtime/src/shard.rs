//! Per-shard discrete-event simulation of a contiguous node range.
//!
//! The fleet executor splits its nodes into contiguous ranges; each range
//! is one [`ShardSim`] owning a private event wheel, the per-node state of
//! its nodes, their radios and crash schedules. Shards advance
//! independently to a common virtual-time barrier ([`ShardSim::run_until`])
//! and never touch shared state — everything a round produces for the rest
//! of the system (aggregator jobs, controller observations) accumulates in
//! shard-local buffers the executor drains and merges deterministically at
//! the barrier.
//!
//! Determinism across shard counts rests on three properties:
//!
//! * every random stream is a per-node property (delivery draws, crash
//!   windows) or a pure function of the run seed (channel weather), so no
//!   draw depends on which shard a node landed in or on other nodes'
//!   traffic;
//! * nodes are causally independent between barriers — a node's events
//!   schedule only that node's future events — so the wheel's processing
//!   order can only matter *per node*, and per-node order is fixed by the
//!   `(time, node, per-node sequence)` key regardless of interleaving;
//! * every floating-point accumulator is per-node; cross-node sums are
//!   folded by the executor in global node order at digest time.
//!
//! The wheel is a monotone radix heap over a slab of pooled frame
//! payloads. Its entries are 24-byte packed keys `(time bits, node, nseq)`,
//! one `u128` in total order, and arrivals are generated lazily (each
//! arrival schedules the node's next one), so memory is proportional to
//! in-flight work, not to `nodes x duration`.
//!
//! A radix heap needs every push to be above the last key popped. Every
//! push here happens while processing a popped event of the same node at
//! time `t`: an arrival schedules the next at `t + period`; a frame goes
//! out when the front end is done or the channel frees (`finish_s`), never
//! before `t`; a retry waits past `finish_s`; and an equal time carries
//! the node's fresh, larger `nseq`. So pushes are strictly increasing
//! over the last pop, and the pop order is exactly `(time, node, nseq)`.

use crate::config::RuntimeConfig;
use crate::lifecycle::NodeLifecycle;
use crate::link::{BurstProfile, LossyLink};
use std::sync::Arc;
use xpro_core::profile::SegmentProfile;

/// The bursty-channel profile of a configuration, when enabled.
pub(crate) fn burst_profile(cfg: &RuntimeConfig) -> Option<BurstProfile> {
    cfg.burst_enabled().then_some(BurstProfile {
        good_drop_rate: cfg.drop_rate,
        bad_drop_rate: cfg.burst_bad_rate,
        p_enter_bad: cfg.burst_p_enter,
        p_exit_bad: cfg.burst_p_exit,
        slot_s: cfg.burst_slot_s,
    })
}

/// Pooled payload of one in-flight frame-transmission event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FramePayload {
    /// Arrival time of the segment the frame belongs to.
    pub arrival_s: f64,
    /// Frame index within the segment's plan.
    pub frame: u32,
    /// Retransmission attempt (0 = first try).
    pub attempt: u32,
    /// Plan epoch the segment arrived under.
    pub epoch: u32,
}

/// Sentinel slab slot marking an arrival event (which carries no payload).
const ARRIVAL_SLOT: u32 = u32::MAX;

/// One wheel entry: the ordering key `(time, node, per-node sequence)`
/// in two words, plus a slab slot. 24 bytes, where one `u128` field would
/// pad the entry to 32.
#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    time_bits: u64,
    /// `node << 32 | nseq`. The per-node push sequence breaks same-node,
    /// same-time ties in causal push order (deterministic for any shard
    /// count, because a node's events are only ever pushed while
    /// processing that same node).
    node_seq: u64,
    slot: u32,
}

impl WheelEntry {
    /// The packed key. Event times are finite and non-negative, so their
    /// bit patterns order exactly like the times themselves.
    fn key(&self) -> u128 {
        (u128::from(self.time_bits) << 64) | u128::from(self.node_seq)
    }
}

/// A shard's event wheel: a monotone radix heap of packed keys over a
/// slab of pooled frame payloads (free slots are recycled, never freed).
///
/// `buckets[b]` holds the entries whose key first differs from `last`, the
/// latest key peeked, in bit `b`. A peek with no `top` empties the lowest
/// non-empty bucket, makes its minimum `last` and `top`, and moves the rest
/// into strictly lower buckets, so an entry moves at most 128 times and
/// in practice a few. Buckets keep their capacity between rounds.
#[derive(Debug, Default)]
struct EventWheel {
    /// The entry whose key is `last`, when not yet popped.
    top: Option<WheelEntry>,
    buckets: Vec<Vec<WheelEntry>>,
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u128,
    last: u128,
    slab: Vec<FramePayload>,
    free: Vec<u32>,
}

impl EventWheel {
    fn insert(&mut self, entry: WheelEntry) {
        let diff = entry.key() ^ self.last;
        if diff == 0 {
            self.top = Some(entry);
            return;
        }
        let b = 127 - diff.leading_zeros() as usize;
        if b >= self.buckets.len() {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        self.occupied |= 1 << b;
        self.buckets[b].push(entry);
    }

    fn push(&mut self, time_s: f64, node: u32, nseq: u32, slot: u32) {
        debug_assert!(time_s >= 0.0 && time_s.is_sign_positive(), "time {time_s}");
        let entry = WheelEntry {
            time_bits: time_s.to_bits(),
            node_seq: (u64::from(node) << 32) | u64::from(nseq),
            slot,
        };
        debug_assert!(
            entry.key() > self.last,
            "event pushed before the wheel's clock"
        );
        self.insert(entry);
    }

    fn push_arrival(&mut self, time_s: f64, node: u32, nseq: u32) {
        self.push(time_s, node, nseq, ARRIVAL_SLOT);
    }

    fn push_frame(&mut self, time_s: f64, node: u32, nseq: u32, payload: FramePayload) {
        let slot = if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = payload;
            slot
        } else {
            self.slab.push(payload);
            (self.slab.len() - 1) as u32
        };
        self.push(time_s, node, nseq, slot);
    }

    /// The earliest entry (`None` when the wheel is empty).
    fn peek(&mut self) -> Option<WheelEntry> {
        if self.top.is_none() && self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.last = bucket.iter().map(WheelEntry::key).min()?;
            for entry in bucket.drain(..) {
                self.insert(entry);
            }
            self.buckets[b] = bucket;
        }
        self.top
    }

    /// Pops the earliest event strictly before `target_s`; `None` leaves
    /// the wheel parked at the barrier, its peeked minimum as `last`
    /// (nothing is pushed between rounds). Arrivals return no payload.
    fn pop_before(&mut self, target_s: f64) -> Option<(f64, u32, Option<FramePayload>)> {
        let top = self.peek()?;
        let time_s = f64::from_bits(top.time_bits);
        if time_s >= target_s {
            return None;
        }
        self.top = None;
        let node = (top.node_seq >> 32) as u32;
        if top.slot == ARRIVAL_SLOT {
            return Some((time_s, node, None));
        }
        let payload = self.slab[top.slot as usize];
        self.free.push(top.slot);
        Some((time_s, node, Some(payload)))
    }
}

/// One terminal frame outcome destined for the adaptive controller,
/// tagged with a total ordering key `(time_s, node, idx)` so the executor
/// can merge all shards' observations into one shard-count-independent
/// feed order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Obs {
    /// Virtual time of the terminal outcome.
    pub time_s: f64,
    /// Global node index.
    pub node: u32,
    /// Per-node observation sequence number.
    pub idx: u64,
    /// Attempts the planned frame cost.
    pub attempts: u64,
}

/// A segment whose wireless phase finished: ready for the aggregator CPU.
/// `(ready_s, node, seq)` is a total ordering key — unique per job, since
/// `seq` counts per node — so the executor's merged service order is
/// independent of sharding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AggJobRec {
    /// When the segment's last frame cleared the channel.
    pub ready_s: f64,
    /// Global node index.
    pub node: u32,
    /// Per-node job emission sequence number.
    pub seq: u64,
    /// Arrival time of the segment (latency is measured from here).
    pub arrival_s: f64,
    /// Plan epoch the segment runs under.
    pub epoch: u32,
}

impl PartialEq for AggJobRec {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for AggJobRec {}
impl PartialOrd for AggJobRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AggJobRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready_s
            .total_cmp(&other.ready_s)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Shard-side state and terminal counters of one node. Everything here is
/// a pure per-node quantity: counters merge by commutative sums, energies
/// are folded in node order by the executor's digest.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeCore {
    /// Segments offered (arrivals seen).
    pub offered: u64,
    /// Segments abandoned after the retry budget.
    pub dropped: u64,
    /// Segments that missed their deadline.
    pub timed_out: u64,
    /// Segments lost to a crash window or a dead battery.
    pub lost_to_crash: u64,
    /// Segments shed by the controller's degradation tier.
    pub shed: u64,
    /// Whether the battery budget ran out.
    pub depleted: bool,
    /// Frame transmission attempts.
    pub frame_attempts: u64,
    /// Attempts lost to the channel.
    pub frame_drops: u64,
    /// Retransmissions scheduled.
    pub retries: u64,
    /// Front-end compute energy spent.
    pub compute_pj: f64,
    /// Radio energy spent.
    pub wireless_pj: f64,
    /// Aggregator-side receive energy caused by this node's frames
    /// (accumulated per node so the fold order is shard-independent).
    pub agg_rx_pj: f64,
    sensor_free_s: f64,
    nseq: u32,
    obs_idx: u64,
    job_seq: u64,
}

impl NodeCore {
    fn next_nseq(&mut self) -> u32 {
        self.nseq += 1;
        self.nseq
    }

    fn next_job_seq(&mut self) -> u64 {
        self.job_seq += 1;
        self.job_seq
    }

    /// Whether the battery budget is exhausted; marks the node depleted
    /// (once) when it is.
    fn deplete(&mut self, budget_pj: f64) -> bool {
        if budget_pj <= 0.0 || self.compute_pj + self.wireless_pj < budget_pj {
            return self.depleted;
        }
        self.depleted = true;
        true
    }
}

/// The discrete-event simulation of one contiguous node range.
#[derive(Debug)]
pub(crate) struct ShardSim {
    /// Global index of the shard's first node.
    pub first_node: u32,
    /// Per-node shard-side state, indexed by local node offset.
    pub cores: Vec<NodeCore>,
    /// Per-node crash schedules.
    pub lives: Vec<NodeLifecycle>,
    /// Per-node radios.
    pub links: Vec<LossyLink>,
    /// Controller observations of the current round (drained at barriers).
    pub obs: Vec<Obs>,
    /// Aggregator jobs of the current round (drained at barriers).
    pub jobs: Vec<AggJobRec>,
    cfg: RuntimeConfig,
    period_s: f64,
    wheel: EventWheel,
    plans: Vec<Arc<SegmentProfile>>,
    epoch: u32,
    shed_every: Option<u64>,
    /// Per-node tenancy override: degraded nodes pin new arrivals to the
    /// fallback plan (epoch 1) until the tenant recovers.
    node_degraded: Vec<bool>,
    /// Per-node tenancy shed modulus, layered over the fleet-wide
    /// controller modulus (the node-specific one wins when set).
    node_shed: Vec<Option<u64>>,
    adaptive: bool,
}

impl ShardSim {
    /// Builds the shard for nodes `first_node .. first_node + count`,
    /// seeding each node's initial arrival (staggered across one period by
    /// *global* node index, exactly as the unsharded executor did).
    pub fn new(
        first_node: u32,
        count: u32,
        cfg: &RuntimeConfig,
        period_s: f64,
        plan: Arc<SegmentProfile>,
    ) -> Self {
        let mut cores = vec![NodeCore::default(); count as usize];
        let mut lives = Vec::with_capacity(count as usize);
        let mut links = Vec::with_capacity(count as usize);
        let burst = burst_profile(cfg);
        let mut wheel = EventWheel::default();
        for (local, core) in cores.iter_mut().enumerate() {
            let node = first_node + local as u32;
            lives.push(if cfg.lifecycle_enabled() {
                NodeLifecycle::generate(
                    node as usize,
                    cfg.mtbf_s,
                    cfg.mttr_s,
                    cfg.reboot_warmup_s,
                    cfg.duration_s,
                    cfg.seed,
                )
            } else {
                NodeLifecycle::healthy()
            });
            links.push(LossyLink::for_node(
                cfg.drop_rate,
                burst,
                cfg.seed,
                u64::from(node),
            ));
            let offset = if cfg.stagger {
                period_s * f64::from(node) / cfg.nodes as f64
            } else {
                0.0
            };
            if offset < cfg.duration_s {
                wheel.push_arrival(offset, node, core.next_nseq());
            }
        }
        ShardSim {
            first_node,
            cores,
            lives,
            links,
            obs: Vec::new(),
            jobs: Vec::new(),
            cfg: cfg.clone(),
            period_s,
            wheel,
            plans: vec![plan],
            epoch: 0,
            shed_every: None,
            node_degraded: vec![false; count as usize],
            node_shed: vec![None; count as usize],
            adaptive: cfg.adaptive,
        }
    }

    /// Installs the tenancy fallback plan at epoch 1 without making it
    /// current: degraded nodes pin their arrivals to it. Must be called
    /// (once, on every shard) before any controller plan is installed so
    /// epoch indices agree across shards.
    pub fn install_fallback(&mut self, plan: Arc<SegmentProfile>) {
        debug_assert_eq!(self.plans.len(), 1, "fallback must be epoch 1");
        self.plans.push(plan);
    }

    /// Appends a new plan epoch (broadcast by the executor at a barrier);
    /// segments arriving from the next event on run under it.
    pub fn install_plan(&mut self, plan: Arc<SegmentProfile>) {
        self.plans.push(plan);
        self.epoch = (self.plans.len() - 1) as u32;
    }

    /// Sets the shed modulus in effect (broadcast at barriers): `Some(k)`
    /// sheds every per-node segment whose sequence is not a multiple of
    /// `k`.
    pub fn set_shed_every(&mut self, shed_every: Option<u64>) {
        self.shed_every = shed_every;
    }

    /// Sets one node's tenancy policy (broadcast at barriers): `degraded`
    /// pins the node's new arrivals to the fallback plan, `shed` layers a
    /// node-specific shed modulus over the fleet-wide one.
    pub fn set_node_policy(&mut self, node: u32, degraded: bool, shed: Option<u64>) {
        let local = (node - self.first_node) as usize;
        self.node_degraded[local] = degraded;
        self.node_shed[local] = shed;
    }

    /// Processes every wheel event strictly before `target_s` (the next
    /// barrier; `INFINITY` drains the shard).
    pub fn run_until(&mut self, target_s: f64) {
        while let Some((time_s, node, payload)) = self.wheel.pop_before(target_s) {
            let local = (node - self.first_node) as usize;
            match payload {
                None => self.on_arrival(time_s, node, local),
                Some(p) => self.on_frame(time_s, node, local, p),
            }
        }
    }

    fn observe(&mut self, time_s: f64, node: u32, local: usize, attempts: u64) {
        if !self.adaptive {
            return;
        }
        let idx = self.cores[local].obs_idx;
        self.cores[local].obs_idx += 1;
        self.obs.push(Obs {
            time_s,
            node,
            idx,
            attempts,
        });
    }

    fn on_arrival(&mut self, t: f64, node: u32, local: usize) {
        // Lazy arrival generation: the node's next arrival goes on the
        // wheel *before* this segment's first frame event, so at equal
        // times the arrival outranks it (smaller nseq) — the order the old
        // eager pre-generation produced.
        let next_t = t + self.period_s;
        if next_t < self.cfg.duration_s {
            let nseq = self.cores[local].next_nseq();
            self.wheel.push_arrival(next_t, node, nseq);
        }
        self.cores[local].offered += 1;
        // A down (or dead) node produces no segment.
        if self.lives[local].down_at(t).is_some()
            || self.cores[local].deplete(self.cfg.battery_budget_pj)
        {
            self.cores[local].lost_to_crash += 1;
            return;
        }
        if let Some(keep) = self.node_shed[local].or(self.shed_every) {
            if !(self.cores[local].offered - 1).is_multiple_of(keep) {
                self.cores[local].shed += 1;
                return;
            }
        }
        let epoch = if self.node_degraded[local] {
            1
        } else {
            self.epoch
        };
        let plan = &self.plans[epoch as usize];
        let (front_s, compute_pj, has_frames) = (
            plan.front_s,
            plan.sensor_compute_pj,
            !plan.frames.is_empty(),
        );
        let core = &mut self.cores[local];
        // The node's front end is serial across its own segments.
        let start = t.max(core.sensor_free_s);
        let done = start + front_s;
        core.sensor_free_s = done;
        core.compute_pj += compute_pj;
        if has_frames {
            let nseq = core.next_nseq();
            self.wheel.push_frame(
                done,
                node,
                nseq,
                FramePayload {
                    arrival_s: t,
                    frame: 0,
                    attempt: 0,
                    epoch,
                },
            );
        } else {
            let seq = core.next_job_seq();
            self.jobs.push(AggJobRec {
                ready_s: done,
                node,
                seq,
                arrival_s: t,
                epoch,
            });
        }
    }

    fn on_frame(&mut self, t: f64, node: u32, local: usize, p: FramePayload) {
        // A crash since the segment arrived wipes its in-flight state; a
        // dead battery ends the node.
        if self.lives[local].interrupted(p.arrival_s, t)
            || self.cores[local].deplete(self.cfg.battery_budget_pj)
        {
            self.cores[local].lost_to_crash += 1;
            return;
        }
        let deadline = p.arrival_s + self.cfg.timeout_s;
        if t > deadline {
            self.cores[local].timed_out += 1;
            if p.attempt > 0 {
                self.observe(t, node, local, u64::from(p.attempt));
            }
            return;
        }
        let (airtime_s, sensor_pj, agg_pj, nframes) = {
            let plan = &self.plans[p.epoch as usize];
            let fp = &plan.frames[p.frame as usize];
            (
                fp.airtime_s,
                fp.sensor_pj,
                fp.agg_pj,
                plan.frames.len() as u32,
            )
        };
        let sent = self.links[local].transmit(t, airtime_s);
        {
            let core = &mut self.cores[local];
            core.frame_attempts += 1;
            // The radio energy is spent whether or not the frame survives
            // the channel: the receiver listens through corrupted frames
            // too.
            core.wireless_pj += sensor_pj;
            core.agg_rx_pj += agg_pj;
        }
        if sent.delivered {
            self.observe(t, node, local, u64::from(p.attempt) + 1);
            if p.frame + 1 < nframes {
                let nseq = self.cores[local].next_nseq();
                self.wheel.push_frame(
                    sent.finish_s,
                    node,
                    nseq,
                    FramePayload {
                        arrival_s: p.arrival_s,
                        frame: p.frame + 1,
                        attempt: 0,
                        epoch: p.epoch,
                    },
                );
            } else {
                let seq = self.cores[local].next_job_seq();
                self.jobs.push(AggJobRec {
                    ready_s: sent.finish_s,
                    node,
                    seq,
                    arrival_s: p.arrival_s,
                    epoch: p.epoch,
                });
            }
        } else {
            self.cores[local].frame_drops += 1;
            if p.attempt >= self.cfg.max_retries {
                self.cores[local].dropped += 1;
                self.observe(t, node, local, u64::from(p.attempt) + 1);
                return;
            }
            let retry_at =
                sent.finish_s + self.cfg.backoff_base_s * f64::from(1u32 << p.attempt.min(20));
            if retry_at > deadline {
                self.cores[local].timed_out += 1;
                self.observe(t, node, local, u64::from(p.attempt) + 1);
                return;
            }
            self.cores[local].retries += 1;
            let nseq = self.cores[local].next_nseq();
            self.wheel.push_frame(
                retry_at,
                node,
                nseq,
                FramePayload {
                    attempt: p.attempt + 1,
                    ..p
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_pops_in_time_node_nseq_order() {
        let mut wheel = EventWheel::default();
        wheel.push_arrival(2.0, 0, 1);
        wheel.push_arrival(1.0, 5, 2);
        wheel.push_arrival(1.0, 5, 1);
        wheel.push_arrival(1.0, 3, 9);
        let mut order = Vec::new();
        while let Some((t, node, _)) = wheel.pop_before(f64::INFINITY) {
            order.push((t, node));
        }
        assert_eq!(order, vec![(1.0, 3), (1.0, 5), (1.0, 5), (2.0, 0)]);
    }

    #[test]
    fn wheel_parks_at_the_barrier_and_resumes() {
        let mut wheel = EventWheel::default();
        wheel.push_arrival(1.0, 0, 1);
        wheel.push_arrival(2.0, 1, 1);
        wheel.push_arrival(2.0, 0, 2);
        assert!(wheel.pop_before(1.0).is_none(), "strictly-before semantics");
        assert_eq!(wheel.pop_before(1.5).map(|(t, ..)| t), Some(1.0));
        // Parking peeks (2.0, node 0) and moves the clock onto it.
        assert!(wheel.pop_before(1.5).is_none());
        assert!(wheel.pop_before(2.0).is_none());
        assert_eq!(
            wheel.pop_before(3.0).map(|(t, n, _)| (t, n)),
            Some((2.0, 0))
        );
        // Resuming, the popped node schedules a same-time successor: it
        // still outranks node 1.
        wheel.push_arrival(2.0, 0, 3);
        let rest: Vec<_> = std::iter::from_fn(|| wheel.pop_before(3.0))
            .map(|(t, n, _)| (t, n))
            .collect();
        assert_eq!(rest, vec![(2.0, 0), (2.0, 1)]);
    }

    /// A random discrete-event schedule through the wheel and through a
    /// sorted-`Vec` oracle: every popped event schedules zero to two
    /// successors of its node at or after its own time (equal times
    /// included), rounds end at random barriers, and both must pop the
    /// same `(time, node, payload)` sequence.
    #[test]
    fn wheel_matches_a_sorted_oracle_across_barriers() {
        use crate::rng::XorShiftRng;
        for seed in 1..=20u64 {
            let mut rng = XorShiftRng::new(seed);
            let mut wheel = EventWheel::default();
            // ((time bits, node, nseq), frame tag), kept sorted descending
            // so the next due event is last.
            let mut oracle: Vec<((u64, u32, u32), u32)> = Vec::new();
            let nodes = 1 + (rng.next_u64() % 40) as u32;
            let mut nseq = vec![0u32; nodes as usize];
            let mut tag = 0u32;
            let mut push = |wheel: &mut EventWheel, rng: &mut XorShiftRng, t: f64, node: u32| {
                nseq[node as usize] += 1;
                let seq = nseq[node as usize];
                tag += 1;
                if rng.chance(0.5) {
                    wheel.push_arrival(t, node, seq);
                    ((t.to_bits(), node, seq), ARRIVAL_SLOT)
                } else {
                    let payload = FramePayload {
                        arrival_s: t,
                        frame: tag,
                        attempt: 0,
                        epoch: 0,
                    };
                    wheel.push_frame(t, node, seq, payload);
                    ((t.to_bits(), node, seq), tag)
                }
            };
            for node in 0..nodes {
                let t = (rng.next_u64() % 16) as f64 / 8.0;
                oracle.push(push(&mut wheel, &mut rng, t, node));
            }
            let mut budget = 3_000;
            let mut target = 0.0;
            while !oracle.is_empty() {
                target += (rng.next_u64() % 12) as f64 / 8.0;
                loop {
                    oracle.sort_unstable_by(|a, b| b.cmp(a));
                    let due = oracle
                        .last()
                        .filter(|&&((bits, ..), _)| f64::from_bits(bits) < target)
                        .copied();
                    let got = wheel.pop_before(target);
                    let Some(((bits, want_node, _), want_tag)) = due else {
                        assert!(got.is_none(), "seed {seed}: popped past the barrier");
                        break;
                    };
                    oracle.pop();
                    let (t, node, payload) = got.expect("the oracle has an event due");
                    assert_eq!((t.to_bits(), node), (bits, want_node), "seed {seed}");
                    assert_eq!(payload.map_or(ARRIVAL_SLOT, |p| p.frame), want_tag);
                    for _ in 0..rng.next_u64() % 3 {
                        if budget == 0 {
                            break;
                        }
                        budget -= 1;
                        let dt = (rng.next_u64() % 4) as f64 / 8.0;
                        oracle.push(push(&mut wheel, &mut rng, t + dt, node));
                    }
                }
            }
            assert!(wheel.pop_before(f64::INFINITY).is_none());
        }
    }

    /// Unstaggered fleets put every node's first arrival at t = 0, so the
    /// keys differ only below the time bits: the wheel must still pop them
    /// in node order, and in linear time.
    #[test]
    fn unstaggered_arrivals_pop_in_node_order() {
        let nodes = 10_000u32;
        let cfg = RuntimeConfig::builder()
            .nodes(nodes as usize)
            .duration_s(1.0)
            .stagger(false)
            .build()
            .expect("valid config");
        let plan = Arc::new(SegmentProfile {
            front_s: 0.0,
            back_s: 0.0,
            sensor_compute_pj: 0.0,
            agg_compute_pj: 0.0,
            frames: Vec::new(),
        });
        let mut shard = ShardSim::new(0, nodes, &cfg, 0.5, plan);
        for node in 0..nodes {
            let popped = shard.wheel.pop_before(0.25).map(|(t, n, _)| (t, n));
            assert_eq!(popped, Some((0.0, node)));
        }
        assert!(shard.wheel.pop_before(0.25).is_none());
    }

    #[test]
    fn slab_recycles_frame_slots() {
        let mut wheel = EventWheel::default();
        let payload = FramePayload {
            arrival_s: 0.0,
            frame: 0,
            attempt: 0,
            epoch: 0,
        };
        for round in 0..10 {
            wheel.push_frame(round as f64, 7, round + 1, payload);
            let (_, _, popped) = wheel.pop_before(f64::INFINITY).expect("pushed");
            assert!(popped.is_some());
        }
        assert_eq!(wheel.slab.len(), 1, "one in-flight frame needs one slot");
    }

    #[test]
    fn depletion_latches_once_budget_is_crossed() {
        let mut core = NodeCore::default();
        assert!(!core.deplete(0.0), "zero budget disables the model");
        core.compute_pj = 5.0;
        assert!(!core.deplete(10.0));
        core.wireless_pj = 6.0;
        assert!(core.deplete(10.0));
        core.compute_pj = 0.0;
        core.wireless_pj = 0.0;
        assert!(core.deplete(10.0), "depletion is permanent");
    }
}

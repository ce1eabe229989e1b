//! Per-shard discrete-event simulation of a contiguous node range.
//!
//! The fleet executor splits its nodes into contiguous ranges; each range
//! is one `ShardSim` owning the per-node state of its nodes, their
//! radios, crash schedules and pending events. Shards advance
//! independently to a common virtual-time barrier (`ShardSim::run_until`)
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
//!   schedule only that node's future events and touch only that node's
//!   state — so the processing order can only matter *per node*, where it
//!   is fixed by the `(time, per-node sequence)` key;
//! * every floating-point accumulator is per-node; cross-node sums are
//!   folded by the executor in global node order at digest time.
//!
//! A round is therefore simulated **node-major**: `run_until` walks the
//! shard's nodes in ascending order and runs each one straight to the
//! barrier from a small queue of its own pending events, ordered by
//! `(time, nseq)` with the payload inline. Each node's state sequence is
//! exactly the one a shard-wide `(time, node, nseq)` event order would
//! produce — that order restricted to one node *is* `(time, nseq)` — while
//! the node's core, link and lifecycle stay in cache for its whole round.
//! Events at or after the barrier go to a carry list, grouped by node in
//! ascending order, that seeds the next round. Arrivals are generated
//! lazily (each arrival schedules the node's next one), so memory is
//! proportional to in-flight work, not to `nodes x duration`.
//!
//! The round's aggregator jobs come out in `(node, seq)` order; the
//! executor sorts each shard's run by the full `(ready_s, node, seq)` key.

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

/// Payload of one in-flight frame-transmission event.
#[derive(Clone, Copy, Debug)]
struct FramePayload {
    /// Arrival time of the segment the frame belongs to.
    arrival_s: f64,
    /// Frame index within the segment's plan.
    frame: u32,
    /// Retransmission attempt (0 = first try).
    attempt: u32,
    /// Plan epoch the segment arrived under.
    epoch: u32,
}

/// One pending event of a node.
#[derive(Clone, Copy, Debug)]
struct Event {
    time_s: f64,
    /// Per-node push sequence: breaks same-time ties in causal push order.
    nseq: u32,
    /// The node's offset within the shard.
    local: u32,
    /// The frame to transmit; `None` for an arrival.
    frame: Option<FramePayload>,
}

impl Event {
    fn key_cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.nseq.cmp(&other.nseq))
    }
}

/// One terminal frame outcome destined for the adaptive controller,
/// tagged with a total ordering key `(time_s, node, idx)` so the executor
/// can merge all shards' observations into one shard-count-independent
/// feed order. The key is unique per observation, since `idx` counts per
/// node.
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

impl PartialEq for Obs {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Obs {}
impl PartialOrd for Obs {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Obs {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.idx.cmp(&other.idx))
    }
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
    /// The barrier the shard has run up to (0 before the first round).
    reached_s: f64,
    /// Events at or after the last barrier, grouped by node in ascending
    /// node order: the next round's seed.
    carry: Vec<Event>,
    /// The pending events of the node being simulated.
    queue: Vec<Event>,
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
        let mut carry = Vec::with_capacity(count as usize);
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
                carry.push(Event {
                    time_s: offset,
                    nseq: core.next_nseq(),
                    local: local as u32,
                    frame: None,
                });
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
            reached_s: 0.0,
            carry,
            queue: Vec::new(),
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

    /// Processes every event strictly before `target_s` (the next
    /// barrier; `INFINITY` drains the shard), one node at a time in
    /// ascending node order, and carries the rest into the next round.
    pub fn run_until(&mut self, target_s: f64) {
        let carry = std::mem::take(&mut self.carry);
        // Reserve the round's job bound (a segment in flight per carried
        // frame event, plus one arrival per node per period) so a drain
        // round's ~620 000 jobs do not double their way up, scattering the
        // freed sizes over the heap. A hint only: if it cannot be
        // reserved, the list grows as it fills.
        let in_flight = carry.iter().filter(|e| e.frame.is_some()).count();
        let periods = (target_s.min(self.cfg.duration_s) - self.reached_s) / self.period_s;
        let arrivals = self
            .cores
            .len()
            .saturating_mul(periods.max(0.0).ceil() as usize);
        let _ = self.jobs.try_reserve(in_flight.saturating_add(arrivals));
        self.reached_s = target_s;
        let mut next = Vec::with_capacity(carry.len());
        let mut rest = carry.as_slice();
        while let Some(first) = rest.first() {
            let local = first.local as usize;
            let node = self.first_node + first.local;
            let len = rest.iter().take_while(|e| e.local == first.local).count();
            self.queue.extend_from_slice(&rest[..len]);
            rest = &rest[len..];
            while let Some(event) = self.pop_before(target_s) {
                match event.frame {
                    None => self.on_arrival(event.time_s, node, local),
                    Some(p) => self.on_frame(event.time_s, node, local, p),
                }
            }
            next.append(&mut self.queue);
        }
        self.carry = next;
    }

    /// Pops the current node's earliest `(time, nseq)` event if it falls
    /// strictly before `target_s`.
    fn pop_before(&mut self, target_s: f64) -> Option<Event> {
        let (i, first) = self
            .queue
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.key_cmp(b.1))?;
        (first.time_s < target_s).then(|| self.queue.swap_remove(i))
    }

    /// Queues an event of node `local` under its next sequence number.
    fn schedule(&mut self, time_s: f64, local: usize, frame: Option<FramePayload>) {
        self.queue.push(Event {
            time_s,
            nseq: self.cores[local].next_nseq(),
            local: local as u32,
            frame,
        });
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
        // Lazy arrival generation: the node's next arrival is queued
        // *before* this segment's first frame event, so at equal times the
        // arrival outranks it (smaller nseq) — the order the old eager
        // pre-generation produced.
        let next_t = t + self.period_s;
        if next_t < self.cfg.duration_s {
            self.schedule(next_t, local, None);
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
            let frame = FramePayload {
                arrival_s: t,
                frame: 0,
                attempt: 0,
                epoch,
            };
            self.schedule(done, local, Some(frame));
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
                let next = FramePayload {
                    frame: p.frame + 1,
                    attempt: 0,
                    ..p
                };
                self.schedule(sent.finish_s, local, Some(next));
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
            let retry = FramePayload {
                attempt: p.attempt + 1,
                ..p
            };
            self.schedule(retry_at, local, Some(retry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use xpro_core::cellgraph::PortRef;
    use xpro_core::profile::FrameProfile;

    fn plan(front_s: f64, frames: usize) -> Arc<SegmentProfile> {
        let frame = FrameProfile {
            port: PortRef::RAW,
            samples: 16,
            airtime_s: 0.004,
            sensor_pj: 3.0,
            agg_pj: 1.5,
        };
        Arc::new(SegmentProfile {
            front_s,
            back_s: 0.001,
            sensor_compute_pj: 7.0,
            agg_compute_pj: 2.0,
            frames: vec![frame; frames],
        })
    }

    /// Runs `shard`'s pending events strictly before `target_s` in the
    /// shard-wide `(time, node, nseq)` order of a single global queue:
    /// the order node-major rounds must be indistinguishable from.
    fn run_globally(shard: &mut ShardSim, pending: &mut Vec<Event>, target_s: f64) {
        let key = |e: &Event| (e.time_s.to_bits(), e.local, e.nseq);
        while let Some(i) = (0..pending.len()).min_by_key(|&i| key(&pending[i])) {
            if pending[i].time_s >= target_s {
                break;
            }
            let event = pending.swap_remove(i);
            let node = shard.first_node + event.local;
            match event.frame {
                None => shard.on_arrival(event.time_s, node, event.local as usize),
                Some(p) => shard.on_frame(event.time_s, node, event.local as usize, p),
            }
            pending.append(&mut shard.queue);
        }
    }

    /// Pending events as comparable tuples, in `(node, time, nseq)` order.
    fn pending_keys(events: &[Event]) -> Vec<(u32, u64, u32, String)> {
        let mut keys: Vec<_> = events
            .iter()
            .map(|e| {
                (
                    e.local,
                    e.time_s.to_bits(),
                    e.nseq,
                    format!("{:?}", e.frame),
                )
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Per-node queues against a global sorted oracle: the same shard,
    /// with losses, retries, bursts, crashes and observations, advanced
    /// through random barriers (with a plan switch and a shed modulus
    /// broadcast between rounds) node-major and in one global event
    /// order. Every round's jobs, observations and carried events, and
    /// every node's final state, must agree bit for bit.
    #[test]
    fn node_major_rounds_match_a_global_event_order() {
        for seed in 1..=12u64 {
            let mut rng = XorShiftRng::new(seed);
            let cfg = RuntimeConfig::builder()
                .nodes(20)
                .duration_s(3.0)
                .drop_rate(0.3)
                .max_retries(2)
                .backoff_base_s(0.002)
                .timeout_s(0.08)
                .burst_bad_rate(0.9)
                .burst_p_enter(0.2)
                .burst_p_exit(0.3)
                .mtbf_s(2.0)
                .mttr_s(0.3)
                .stagger(seed % 3 != 0)
                .adaptive(true)
                .seed(seed)
                .build()
                .expect("valid config");
            let mut fast = ShardSim::new(5, 12, &cfg, 0.05, plan(0.03, 3));
            let mut slow = ShardSim::new(5, 12, &cfg, 0.05, plan(0.03, 3));
            let mut pending = std::mem::take(&mut slow.carry);
            let mut target = 0.0;
            for round in 0.. {
                target += (rng.next_u64() % 24) as f64 / 64.0;
                if target >= cfg.duration_s {
                    target = f64::INFINITY;
                }
                fast.run_until(target);
                run_globally(&mut slow, &mut pending, target);
                assert!(fast.carry.windows(2).all(|w| w[0].local <= w[1].local));
                assert_eq!(pending_keys(&fast.carry), pending_keys(&pending));
                fast.jobs.sort_unstable();
                slow.jobs.sort_unstable();
                let jobs = |sh: &ShardSim| format!("{:?}", sh.jobs);
                assert_eq!(jobs(&fast), jobs(&slow), "seed {seed} round {round}");
                fast.obs.sort_unstable();
                slow.obs.sort_unstable();
                assert_eq!(format!("{:?}", fast.obs), format!("{:?}", slow.obs));
                if target.is_infinite() {
                    break;
                }
                for sh in [&mut fast, &mut slow] {
                    sh.jobs.clear();
                    sh.obs.clear();
                    if round == 2 {
                        sh.install_plan(plan(0.01, 1));
                        sh.set_shed_every(Some(3));
                    }
                }
            }
            assert!(fast.carry.is_empty() && pending.is_empty());
            assert!(fast
                .cores
                .iter()
                .any(|c| c.retries > 0 && c.lost_to_crash > 0));
            assert_eq!(format!("{:?}", fast.cores), format!("{:?}", slow.cores));
            assert_eq!(format!("{:?}", fast.links), format!("{:?}", slow.links));
        }
    }

    /// A round's jobs never outgrow what `run_until` reserved for them:
    /// the segments in flight plus one arrival per node per period of the
    /// round, through lossy retried multi-frame segments that stay in
    /// flight across barriers, barrier rounds and the drain round.
    #[test]
    fn round_jobs_fit_their_reservation() {
        for seed in 1..=6u64 {
            let cfg = RuntimeConfig::builder()
                .nodes(16)
                .duration_s(2.0)
                .drop_rate(0.3)
                .max_retries(3)
                .seed(seed)
                .build()
                .expect("valid config");
            let period_s = 0.05;
            let mut sh = ShardSim::new(0, 16, &cfg, period_s, plan(0.07, 3));
            let (mut from, mut jobs) = (0.0, 0);
            for k in 1.. {
                let target = if k < 40 {
                    0.05 * k as f64
                } else {
                    f64::INFINITY
                };
                let periods = ((target.min(cfg.duration_s) - from) / period_s).ceil() as usize;
                let in_flight = sh.carry.iter().filter(|e| e.frame.is_some()).count();
                let bound = in_flight + 16 * periods;
                sh.run_until(target);
                assert!(sh.jobs.len() <= bound, "seed {seed} round {k}");
                assert!(sh.jobs.capacity() >= bound);
                jobs += std::mem::take(&mut sh.jobs).len();
                if target.is_infinite() {
                    break;
                }
                from = target;
            }
            assert!(jobs > 0);
        }
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

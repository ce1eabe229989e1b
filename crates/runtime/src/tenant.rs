//! Multi-tenant admission for the shared aggregator.
//!
//! A fleet's nodes can belong to different *tenants* — independent
//! applications or customers sharing one aggregator. Without admission
//! control the aggregator is a single failure domain: one tenant
//! overrunning its share overflows the shared inbox and every tenant
//! fails together. This module turns the aggregator front door into an
//! admission layer:
//!
//! * **token-bucket rate quotas** — each tenant's jobs draw from a
//!   bucket refilled at `quota_hz` in virtual time (burst-capped); a
//!   job arriving to an empty bucket is rejected *before* it can
//!   occupy inbox space;
//! * **weighted-fair inbox partitioning** — each tenant owns a
//!   reserved share of the bounded inbox proportional to its weight;
//!   the remainder is a shared pool, so a tenant can burst into spare
//!   capacity but can never evict another tenant's reservation;
//! * **per-tenant degradation tiers** — a tenant whose rejection ratio
//!   breaches the threshold walks the same tiers the adaptive
//!   controller uses (full → classify-only → shed) under hysteresis,
//!   shrinking its own offered load instead of blindly dropping at the
//!   door;
//! * **a circuit breaker** — a tenant breaching for
//!   `breaker_rounds` consecutive barrier rounds is *quarantined*: all
//!   its jobs are dropped at admission for `cooldown_s`, after which it
//!   re-enters at the shed tier and recovers through hysteresis.
//!
//! Determinism: admission decisions happen in the executor's
//! single-threaded aggregator phase over the merged `(ready, node,
//! seq)`-ordered job queue, and tier/breaker state advances only at
//! barrier rounds in global tenant order — so every decision is
//! bit-identical for any shard count.

use crate::controller::{Tier, TierTimes};
use xpro_core::XProError;

/// Rejection-ratio numerator threshold for a breach round: a tenant
/// breaches when `rejected * 4 >= offered` (≥ 25 % of the round's jobs
/// rejected). Integer arithmetic: no float threshold can drift.
const BREACH_NUM: u64 = 4;

/// Consecutive clean (no-breach) rounds required to step one tier back
/// toward [`Tier::Normal`] — the recovery half of the hysteresis.
const RECOVER_ROUNDS: u32 = 2;

/// In [`Tier::Shed`], one segment in this many is attempted (matches
/// the adaptive controller's shed modulus).
const SHED_KEEP_EVERY: u64 = 2;

/// Static description of one tenant: a contiguous slice of the fleet's
/// nodes plus its admission contract. Tenants partition the fleet in
/// declaration order — the first spec owns nodes `0..nodes`, the next
/// the following range, and the node counts must sum to the fleet size.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name (surfaces in reports and metrics).
    pub name: String,
    /// How many contiguous fleet nodes the tenant owns.
    pub nodes: usize,
    /// Weighted-fair inbox share (≥ 1); reservations are proportional.
    pub weight: u32,
    /// Admitted jobs per second at the aggregator (token-bucket refill
    /// rate). `0` disables the rate quota.
    pub quota_hz: f64,
    /// Token-bucket depth: how many jobs may be admitted back-to-back
    /// beyond the steady rate (≥ 1).
    pub quota_burst: u32,
    /// Whether the tenant walks the degradation tiers under overload
    /// (full → classify-only → shed). When `false` the tenant keeps its
    /// full plan and simply eats admission rejections.
    pub degrade: bool,
    /// Consecutive breach rounds before the circuit breaker trips and
    /// quarantines the tenant. `0` disables the breaker.
    pub breaker_rounds: u32,
    /// Quarantine window in seconds once the breaker trips.
    pub cooldown_s: f64,
}

impl TenantSpec {
    /// A spec with the default admission contract: weight 1, no rate
    /// quota, burst 8, degradation on, breaker at 3 breach rounds,
    /// 2-second cooldown.
    #[must_use]
    pub fn new(name: impl Into<String>, nodes: usize) -> Self {
        TenantSpec {
            name: name.into(),
            nodes,
            weight: 1,
            quota_hz: 0.0,
            quota_burst: 8,
            degrade: true,
            breaker_rounds: 3,
            cooldown_s: 2.0,
        }
    }

    /// Sets the weighted-fair inbox weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the token-bucket refill rate (`0` = unlimited).
    #[must_use]
    pub fn quota_hz(mut self, quota_hz: f64) -> Self {
        self.quota_hz = quota_hz;
        self
    }

    /// Sets the token-bucket depth.
    #[must_use]
    pub fn quota_burst(mut self, quota_burst: u32) -> Self {
        self.quota_burst = quota_burst;
        self
    }

    /// Enables or disables tier degradation under overload.
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Sets the breaker trip threshold in consecutive breach rounds
    /// (`0` disables the breaker).
    #[must_use]
    pub fn breaker_rounds(mut self, breaker_rounds: u32) -> Self {
        self.breaker_rounds = breaker_rounds;
        self
    }

    /// Sets the quarantine window.
    #[must_use]
    pub fn cooldown_s(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s;
        self
    }
}

/// Validates a tenant table against the fleet size; empty tables are
/// valid (single-tenant legacy behaviour).
pub(crate) fn validate_tenants(tenants: &[TenantSpec], nodes: usize) -> Result<(), XProError> {
    if tenants.is_empty() {
        return Ok(());
    }
    let mut covered = 0usize;
    let mut names = std::collections::BTreeSet::new();
    for (i, t) in tenants.iter().enumerate() {
        if t.name.is_empty() {
            return Err(XProError::config(format!("tenant {i} has an empty name")));
        }
        if !names.insert(t.name.as_str()) {
            return Err(XProError::config(format!(
                "duplicate tenant name {:?}",
                t.name
            )));
        }
        if t.nodes == 0 {
            return Err(XProError::config(format!(
                "tenant {:?} owns zero nodes",
                t.name
            )));
        }
        if t.weight == 0 {
            return Err(XProError::config(format!(
                "tenant {:?}: weight must be at least 1",
                t.name
            )));
        }
        if !t.quota_hz.is_finite() || t.quota_hz < 0.0 {
            return Err(XProError::config(format!(
                "tenant {:?}: quota_hz must be finite and non-negative",
                t.name
            )));
        }
        if t.quota_burst == 0 {
            return Err(XProError::config(format!(
                "tenant {:?}: quota_burst must be at least 1",
                t.name
            )));
        }
        if !t.cooldown_s.is_finite() || t.cooldown_s < 0.0 {
            return Err(XProError::config(format!(
                "tenant {:?}: cooldown_s must be finite and non-negative",
                t.name
            )));
        }
        covered = covered.checked_add(t.nodes).ok_or_else(|| {
            XProError::config(format!("tenant {:?}: node counts overflow", t.name))
        })?;
    }
    if covered != nodes {
        return Err(XProError::config(format!(
            "tenant node counts sum to {covered} but the fleet has {nodes} nodes"
        )));
    }
    Ok(())
}

/// Why an admission attempt did not enter the inbox (or that it may).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Quota and quarantine cleared; the inbox capacity check follows.
    Admit,
    /// The tenant's token bucket was empty.
    QuotaRejected,
    /// The tenant is quarantined by its circuit breaker.
    Quarantined,
}

/// Mutable per-tenant admission state.
#[derive(Clone, Debug)]
pub(crate) struct TenantState {
    /// Token-bucket level in jobs.
    tokens: f64,
    /// Virtual time of the last refill (non-decreasing: jobs are served
    /// in merged `(ready, node, seq)` order).
    last_refill_s: f64,
    /// Reserved inbox slots (weighted-fair share).
    pub reserved: usize,
    /// Inbox entries currently owned by this tenant.
    pub occupancy: usize,
    /// Worst per-tenant inbox occupancy observed.
    pub peak_occupancy: usize,
    /// Jobs admitted into the inbox.
    pub admitted: u64,
    /// Jobs rejected by the rate quota.
    pub admission_rejected: u64,
    /// Jobs rejected by inbox capacity (reserved + shared exhausted).
    pub inbox_overflow: u64,
    /// Jobs dropped while quarantined.
    pub quarantine_dropped: u64,
    /// Times the circuit breaker tripped.
    pub quarantines: u64,
    /// Jobs offered to admission this barrier round.
    round_offered: u64,
    /// Jobs rejected (any cause) this barrier round.
    round_rejected: u64,
    /// Current degradation tier.
    pub tier: Tier,
    /// Consecutive clean rounds (for recovery hysteresis).
    calm_rounds: u32,
    /// Consecutive breach rounds (for the breaker).
    breach_rounds: u32,
    /// Quarantine end; jobs before this instant are dropped.
    quarantined_until: f64,
    /// Per-tier time accounting (closed by [`Tenancy::finish`]).
    pub tier_times: TierTimes,
    tier_entered_s: f64,
}

impl TenantState {
    fn new(reserved: usize, burst: u32) -> Self {
        TenantState {
            tokens: f64::from(burst),
            last_refill_s: 0.0,
            reserved,
            occupancy: 0,
            peak_occupancy: 0,
            admitted: 0,
            admission_rejected: 0,
            inbox_overflow: 0,
            quarantine_dropped: 0,
            quarantines: 0,
            round_offered: 0,
            round_rejected: 0,
            tier: Tier::Normal,
            calm_rounds: 0,
            breach_rounds: 0,
            quarantined_until: f64::NEG_INFINITY,
            tier_times: TierTimes::default(),
            tier_entered_s: 0.0,
        }
    }

    fn enter_tier(&mut self, tier: Tier, now_s: f64) {
        if tier == self.tier {
            return;
        }
        self.tier_times.add(self.tier, now_s - self.tier_entered_s);
        self.tier_entered_s = now_s;
        self.tier = tier;
    }
}

/// Pre-interned metric key strings of one tenant (`tenant.<name>.*`).
/// Built once at executor construction so the digest path never
/// re-`format!`s a key per observation.
#[derive(Clone, Debug)]
pub(crate) struct TenantMetricKeys {
    /// `tenant.<name>.admitted`
    pub admitted: String,
    /// `tenant.<name>.admission_rejected`
    pub admission_rejected: String,
    /// `tenant.<name>.inbox_overflow`
    pub inbox_overflow: String,
    /// `tenant.<name>.quarantine_dropped`
    pub quarantine_dropped: String,
    /// `tenant.<name>.quarantines`
    pub quarantines: String,
    /// `tenant.<name>.p99_s`
    pub p99_s: String,
    /// `tenant.<name>.peak_inbox`
    pub peak_inbox: String,
}

impl TenantMetricKeys {
    fn new(name: &str) -> Self {
        TenantMetricKeys {
            admitted: format!("tenant.{name}.admitted"),
            admission_rejected: format!("tenant.{name}.admission_rejected"),
            inbox_overflow: format!("tenant.{name}.inbox_overflow"),
            quarantine_dropped: format!("tenant.{name}.quarantine_dropped"),
            quarantines: format!("tenant.{name}.quarantines"),
            p99_s: format!("tenant.{name}.p99_s"),
            peak_inbox: format!("tenant.{name}.peak_inbox"),
        }
    }
}

/// The whole admission layer: tenant table, node → tenant map, token
/// buckets, weighted-fair inbox accounting and the tier/breaker state
/// machines. Owned by the executor; every mutation happens either in
/// the single-threaded aggregator phase (admission, in merged job
/// order) or at a barrier (tier walk, in tenant order).
#[derive(Clone, Debug)]
pub(crate) struct Tenancy {
    /// The validated tenant table, in declaration (node-range) order.
    pub specs: Vec<TenantSpec>,
    /// First global node index of each tenant.
    pub first_node: Vec<u32>,
    /// Global node index → tenant index.
    tenant_of: Vec<u16>,
    /// Per-tenant mutable state, parallel to `specs`.
    pub states: Vec<TenantState>,
    /// Per-tenant pre-interned metric keys, parallel to `specs`.
    pub metric_keys: Vec<TenantMetricKeys>,
    /// Shared (unreserved) inbox slots.
    shared_cap: usize,
    /// Shared slots currently in use (occupancy beyond reservations).
    shared_used: usize,
}

impl Tenancy {
    /// Builds the admission layer from a validated tenant table.
    /// Reserved inbox shares are `floor(agg_inbox * weight / Σweight)`;
    /// the remainder forms the shared pool.
    pub fn new(specs: &[TenantSpec], agg_inbox: usize) -> Self {
        let total_weight: u64 = specs.iter().map(|t| u64::from(t.weight)).sum();
        let mut first_node = Vec::with_capacity(specs.len());
        let mut tenant_of = Vec::new();
        let mut states = Vec::with_capacity(specs.len());
        let mut reserved_total = 0usize;
        let mut first = 0u32;
        for (i, t) in specs.iter().enumerate() {
            first_node.push(first);
            first += t.nodes as u32;
            tenant_of.extend(std::iter::repeat_n(i as u16, t.nodes));
            let reserved = (agg_inbox as u64 * u64::from(t.weight) / total_weight.max(1)) as usize;
            reserved_total += reserved;
            states.push(TenantState::new(reserved, t.quota_burst));
        }
        Tenancy {
            metric_keys: specs
                .iter()
                .map(|t| TenantMetricKeys::new(&t.name))
                .collect(),
            specs: specs.to_vec(),
            first_node,
            tenant_of,
            states,
            shared_cap: agg_inbox.saturating_sub(reserved_total),
            shared_used: 0,
        }
    }

    /// Tenant index of a global node.
    pub fn tenant_of(&self, node: u32) -> u16 {
        self.tenant_of[node as usize]
    }

    /// Quarantine and rate-quota gate for one job of tenant `ti` at
    /// virtual time `now_s`. Jobs must be presented in non-decreasing
    /// `now_s` order (the merged service order guarantees it).
    pub fn admit(&mut self, ti: u16, now_s: f64) -> Admission {
        let spec = &self.specs[ti as usize];
        let st = &mut self.states[ti as usize];
        st.round_offered += 1;
        if now_s < st.quarantined_until {
            st.quarantine_dropped += 1;
            st.round_rejected += 1;
            return Admission::Quarantined;
        }
        if spec.quota_hz > 0.0 {
            let dt = (now_s - st.last_refill_s).max(0.0);
            st.tokens = (st.tokens + dt * spec.quota_hz).min(f64::from(spec.quota_burst));
            st.last_refill_s = st.last_refill_s.max(now_s);
            if st.tokens < 1.0 {
                st.admission_rejected += 1;
                st.round_rejected += 1;
                return Admission::QuotaRejected;
            }
            st.tokens -= 1.0;
        }
        Admission::Admit
    }

    /// Weighted-fair inbox capacity check for an admitted job: the
    /// tenant takes a reserved slot when it has one free, otherwise a
    /// shared slot when the pool has room. Returns `false` (counted as
    /// the tenant's inbox overflow) when both are exhausted.
    pub fn inbox_admit(&mut self, ti: u16) -> bool {
        let st = &mut self.states[ti as usize];
        if st.occupancy >= st.reserved {
            if self.shared_used >= self.shared_cap {
                st.inbox_overflow += 1;
                st.round_rejected += 1;
                return false;
            }
            self.shared_used += 1;
        }
        st.occupancy += 1;
        st.peak_occupancy = st.peak_occupancy.max(st.occupancy);
        st.admitted += 1;
        true
    }

    /// Releases one inbox slot of tenant `ti` (its job's service
    /// finished and drained out of the bounded inbox).
    pub fn inbox_release(&mut self, ti: u16) {
        let st = &mut self.states[ti as usize];
        debug_assert!(st.occupancy > 0);
        if st.occupancy > st.reserved {
            self.shared_used -= 1;
        }
        st.occupancy -= 1;
    }

    /// Advances every tenant's tier/breaker state machine at a barrier,
    /// in global tenant order. Returns `true` when any tenant's node
    /// policy changed (the executor then re-broadcasts to the shards).
    pub fn barrier_round(&mut self, now_s: f64) -> bool {
        let mut changed = false;
        for (spec, st) in self.specs.iter().zip(&mut self.states) {
            let before = st.tier;
            let breach =
                st.round_rejected > 0 && st.round_rejected * BREACH_NUM >= st.round_offered;
            st.round_offered = 0;
            st.round_rejected = 0;
            if now_s < st.quarantined_until {
                // Frozen while quarantined; tier stays where the trip
                // left it.
            } else if breach {
                st.calm_rounds = 0;
                st.breach_rounds += 1;
                if spec.degrade {
                    let next = match st.tier {
                        Tier::Normal => Tier::ClassifyOnly,
                        Tier::ClassifyOnly | Tier::Shed => Tier::Shed,
                    };
                    st.enter_tier(next, now_s);
                }
                if spec.breaker_rounds > 0 && st.breach_rounds >= spec.breaker_rounds {
                    st.quarantined_until = now_s + spec.cooldown_s;
                    st.quarantines += 1;
                    st.breach_rounds = 0;
                    if spec.degrade {
                        st.enter_tier(Tier::Shed, now_s);
                    }
                }
            } else {
                st.breach_rounds = 0;
                st.calm_rounds += 1;
                if st.calm_rounds >= RECOVER_ROUNDS && st.tier != Tier::Normal {
                    let next = match st.tier {
                        Tier::Shed => Tier::ClassifyOnly,
                        Tier::ClassifyOnly | Tier::Normal => Tier::Normal,
                    };
                    st.enter_tier(next, now_s);
                    st.calm_rounds = 0;
                }
            }
            changed |= st.tier != before;
        }
        changed
    }

    /// Node policy of a tenant under its current tier: whether its
    /// nodes run the classify-only fallback plan, and the shed modulus
    /// in effect.
    pub fn node_policy(&self, ti: u16) -> (bool, Option<u64>) {
        let spec = &self.specs[ti as usize];
        let st = &self.states[ti as usize];
        if !spec.degrade {
            return (false, None);
        }
        match st.tier {
            Tier::Normal => (false, None),
            Tier::ClassifyOnly => (true, None),
            Tier::Shed => (true, Some(SHED_KEEP_EVERY)),
        }
    }

    /// Closes per-tenant tier accounting at the end of the run.
    pub fn finish(&mut self, duration_s: f64) {
        for st in &mut self.states {
            let tier = st.tier;
            st.tier_times.add(tier, duration_s - st.tier_entered_s);
            st.tier_entered_s = duration_s;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("a", 2).weight(3).quota_hz(10.0),
            TenantSpec::new("b", 2)
                .weight(1)
                .quota_hz(5.0)
                .quota_burst(2),
        ]
    }

    #[test]
    fn validation_catches_bad_tables() {
        assert!(validate_tenants(&[], 4).is_ok());
        assert!(validate_tenants(&two_tenants(), 4).is_ok());
        assert!(validate_tenants(&two_tenants(), 5).is_err(), "sum mismatch");
        let dup = vec![TenantSpec::new("a", 2), TenantSpec::new("a", 2)];
        assert!(validate_tenants(&dup, 4).is_err(), "duplicate name");
        assert!(
            validate_tenants(&[TenantSpec::new("", 4)], 4).is_err(),
            "empty name"
        );
        assert!(
            validate_tenants(&[TenantSpec::new("z", 0), TenantSpec::new("y", 4)], 4).is_err(),
            "zero nodes"
        );
        assert!(
            validate_tenants(&[TenantSpec::new("z", 4).weight(0)], 4).is_err(),
            "zero weight"
        );
        assert!(
            validate_tenants(&[TenantSpec::new("z", 4).quota_hz(f64::NAN)], 4).is_err(),
            "NaN quota"
        );
        assert!(
            validate_tenants(&[TenantSpec::new("z", 4).quota_burst(0)], 4).is_err(),
            "zero burst"
        );
        assert!(
            validate_tenants(&[TenantSpec::new("z", 4).cooldown_s(-1.0)], 4).is_err(),
            "negative cooldown"
        );
    }

    #[test]
    fn weighted_shares_partition_the_inbox() {
        let ten = Tenancy::new(&two_tenants(), 16);
        // weights 3:1 over 16 slots → 12 and 4 reserved, 0 shared.
        assert_eq!(ten.states[0].reserved, 12);
        assert_eq!(ten.states[1].reserved, 4);
        assert_eq!(ten.shared_cap, 0);
        assert_eq!(ten.tenant_of(0), 0);
        assert_eq!(ten.tenant_of(1), 0);
        assert_eq!(ten.tenant_of(2), 1);
        assert_eq!(ten.tenant_of(3), 1);
    }

    #[test]
    fn reserved_slots_survive_a_greedy_neighbor() {
        let specs = vec![
            TenantSpec::new("greedy", 1).weight(1),
            TenantSpec::new("meek", 1).weight(1),
        ];
        let mut ten = Tenancy::new(&specs, 4); // 2 reserved each
        assert!(ten.inbox_admit(0));
        assert!(ten.inbox_admit(0));
        // Greedy is at its reservation and there is no shared pool.
        assert!(!ten.inbox_admit(0));
        // Meek's reservation is untouched.
        assert!(ten.inbox_admit(1));
        assert!(ten.inbox_admit(1));
        assert_eq!(ten.states[0].inbox_overflow, 1);
        ten.inbox_release(0);
        assert!(ten.inbox_admit(0), "released slot is reusable");
    }

    #[test]
    fn token_bucket_enforces_the_rate() {
        let specs = vec![TenantSpec::new("t", 1).quota_hz(2.0).quota_burst(1)];
        let mut ten = Tenancy::new(&specs, 8);
        assert_eq!(ten.admit(0, 0.0), Admission::Admit);
        // Bucket empty; refill is 2 tokens/s, so 0.25 s buys only half
        // a token.
        assert_eq!(ten.admit(0, 0.25), Admission::QuotaRejected);
        assert_eq!(ten.admit(0, 0.5), Admission::Admit);
        assert_eq!(ten.states[0].admission_rejected, 1);
    }

    #[test]
    fn breaker_trips_after_consecutive_breaches_and_cools_down() {
        let specs = vec![TenantSpec::new("t", 1)
            .quota_hz(1.0)
            .breaker_rounds(2)
            .cooldown_s(1.0)];
        let mut ten = Tenancy::new(&specs, 8);
        // Two rounds of 100 % rejection trip the breaker.
        for round in 0..2 {
            let now = round as f64;
            ten.states[0].round_offered = 4;
            ten.states[0].round_rejected = 4;
            ten.barrier_round(now);
        }
        assert_eq!(ten.states[0].quarantines, 1);
        assert_eq!(ten.admit(0, 1.5), Admission::Quarantined);
        // Past the cooldown the gate opens again (bucket refilled).
        assert_eq!(ten.admit(0, 2.5), Admission::Admit);
    }

    #[test]
    fn tiers_escalate_under_breach_and_recover_with_hysteresis() {
        let specs = vec![TenantSpec::new("t", 1).breaker_rounds(0)];
        let mut ten = Tenancy::new(&specs, 8);
        let breach = |ten: &mut Tenancy, now: f64| {
            ten.states[0].round_offered = 4;
            ten.states[0].round_rejected = 4;
            ten.barrier_round(now)
        };
        let calm = |ten: &mut Tenancy, now: f64| {
            ten.states[0].round_offered = 4;
            ten.states[0].round_rejected = 0;
            ten.barrier_round(now)
        };
        assert!(breach(&mut ten, 1.0));
        assert_eq!(ten.states[0].tier, Tier::ClassifyOnly);
        assert_eq!(ten.node_policy(0), (true, None));
        assert!(breach(&mut ten, 2.0));
        assert_eq!(ten.states[0].tier, Tier::Shed);
        assert_eq!(ten.node_policy(0), (true, Some(SHED_KEEP_EVERY)));
        // One calm round is not enough (hysteresis)...
        assert!(!calm(&mut ten, 3.0));
        assert_eq!(ten.states[0].tier, Tier::Shed);
        // ...two are, and recovery steps one tier at a time.
        assert!(calm(&mut ten, 4.0));
        assert_eq!(ten.states[0].tier, Tier::ClassifyOnly);
        assert!(!calm(&mut ten, 5.0));
        assert!(calm(&mut ten, 6.0));
        assert_eq!(ten.states[0].tier, Tier::Normal);
        ten.finish(7.0);
        let t = ten.states[0].tier_times;
        assert!((t.normal_s + t.classify_only_s + t.shed_s - 7.0).abs() < 1e-9);
    }

    #[test]
    fn non_degrading_tenants_keep_their_plan() {
        let specs = vec![TenantSpec::new("t", 1).degrade(false).breaker_rounds(0)];
        let mut ten = Tenancy::new(&specs, 8);
        ten.states[0].round_offered = 4;
        ten.states[0].round_rejected = 4;
        ten.barrier_round(1.0);
        assert_eq!(ten.states[0].tier, Tier::Normal);
        assert_eq!(ten.node_policy(0), (false, None));
    }
}

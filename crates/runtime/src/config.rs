//! Fleet/runtime configuration with a validating fluent builder.

use crate::tenant::{validate_tenants, TenantSpec};
use xpro_core::XProError;

/// Configuration of one streaming executor run.
///
/// Defaults model a small healthy fleet: 4 nodes, 10 simulated seconds, a
/// lossless link, up to 3 retransmissions with 1 ms exponential backoff,
/// and a 1 s per-segment deadline. Every fault knob beyond the iid drop
/// rate defaults to *disabled*, so a default-configured run reproduces the
/// analytic evaluator exactly as before.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Number of sensor nodes sharing the aggregator and the channel.
    pub nodes: usize,
    /// Simulated (virtual) duration in seconds; segments arriving within
    /// `[0, duration_s)` are offered to the fleet.
    pub duration_s: f64,
    /// Probability that any single frame transmission attempt is lost.
    /// With the bursty channel enabled this is the *good*-state drop rate.
    pub drop_rate: f64,
    /// Retransmissions allowed per frame before the segment is abandoned.
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub backoff_base_s: f64,
    /// Per-segment deadline from its arrival; a segment that cannot finish
    /// its wireless transfers by then is skipped (graceful degradation).
    pub timeout_s: f64,
    /// Seed for the fault-injection RNG; equal seeds reproduce runs bit-
    /// for-bit. The burst-state and per-node lifecycle generators derive
    /// independent streams from this seed, so the *fault environment* is
    /// identical across runs of the same seed even when the executors make
    /// different numbers of channel draws.
    pub seed: u64,
    /// Extra aggregator CPU time when a batch starts (wake-up/DMA setup);
    /// zero keeps the energy/delay model aligned with the analytic
    /// evaluator.
    pub batch_wake_s: f64,
    /// Phase-stagger node arrivals across one segment period instead of
    /// releasing every node at t = 0.
    pub stagger: bool,

    // --- Gilbert–Elliott bursty channel (enabled when `burst_bad_rate`
    // --- and `burst_p_enter` are both positive) ---
    /// Per-attempt drop rate while the channel is in the *bad* state; zero
    /// disables the two-state model entirely (pure iid drops).
    pub burst_bad_rate: f64,
    /// Per-slot probability of entering the bad state from the good state.
    pub burst_p_enter: f64,
    /// Per-slot probability of leaving the bad state back to good; zero
    /// makes a burst permanent (a mid-run degradation that never lifts).
    pub burst_p_exit: f64,
    /// Duration of one channel-state slot in seconds; the state machine is
    /// advanced slot-by-slot from t = 0 on a dedicated RNG stream, so the
    /// good/bad timeline depends only on the seed, never on traffic.
    pub burst_slot_s: f64,

    // --- Per-node crash/reboot lifecycle (enabled when `mtbf_s` > 0) ---
    /// Mean up-time between node crashes in seconds; zero disables the
    /// lifecycle model. Up-times are exponentially distributed per node on
    /// dedicated RNG streams.
    pub mtbf_s: f64,
    /// Mean repair (reboot) time in seconds.
    pub mttr_s: f64,
    /// Extra warm-up after a reboot before the node produces segments
    /// again (sensor front-end re-calibration); added to every down
    /// window.
    pub reboot_warmup_s: f64,
    /// Per-node energy budget in picojoules; once a node's compute +
    /// wireless spend crosses it the node shuts down for the rest of the
    /// run (battery depletion). Zero disables the model.
    pub battery_budget_pj: f64,

    // --- Aggregator outage windows (enabled when both are positive) ---
    /// Period of recurring aggregator outages in seconds; the k-th outage
    /// (k ≥ 1) starts at `k * agg_outage_period_s`. Zero disables.
    pub agg_outage_period_s: f64,
    /// Duration of each outage window; must stay below the period.
    pub agg_outage_s: f64,
    /// Bounded aggregator inbox: segments arriving while this many jobs
    /// are still queued or in service are rejected (backpressure overflow,
    /// counted — never an unbounded queue).
    pub agg_inbox: usize,

    // --- Adaptive partition controller ---
    /// Enables the controller: a sliding-window estimate of the effective
    /// attempt inflation re-invokes the XPro generator when the channel
    /// drifts outside the hysteresis band, and degradation tiers take over
    /// when no feasible cut meets the baseline delay limit.
    pub adaptive: bool,
    /// Number of frame-transfer observations in the estimator window.
    pub adaptive_window: usize,
    /// Hysteresis band multiplier (> 1): a re-plan triggers only when the
    /// estimated inflation leaves `[planned / h, planned * h]`.
    pub hysteresis: f64,
    /// Minimum time between partition switches (anti-flap dwell).
    pub min_dwell_s: f64,

    // --- Multi-tenant admission (enabled when non-empty) ---
    /// Tenant table partitioning the fleet's nodes, in declaration
    /// order; node counts must sum to `nodes`. Empty = single-tenant
    /// legacy behaviour (no admission layer, byte-identical reports).
    pub tenants: Vec<TenantSpec>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            nodes: 4,
            duration_s: 10.0,
            drop_rate: 0.0,
            max_retries: 3,
            backoff_base_s: 1e-3,
            timeout_s: 1.0,
            seed: 1,
            batch_wake_s: 0.0,
            stagger: true,
            burst_bad_rate: 0.0,
            burst_p_enter: 0.0,
            burst_p_exit: 0.0,
            burst_slot_s: 0.1,
            mtbf_s: 0.0,
            mttr_s: 1.0,
            reboot_warmup_s: 0.0,
            battery_budget_pj: 0.0,
            agg_outage_period_s: 0.0,
            agg_outage_s: 0.0,
            agg_inbox: 256,
            adaptive: false,
            adaptive_window: 64,
            hysteresis: 1.5,
            min_dwell_s: 0.5,
            tenants: Vec::new(),
        }
    }
}

impl RuntimeConfig {
    /// Starts a fluent builder seeded with the defaults.
    ///
    /// ```
    /// use xpro_runtime::RuntimeConfig;
    ///
    /// let cfg = RuntimeConfig::builder()
    ///     .nodes(8)
    ///     .drop_rate(0.05)
    ///     .seed(7)
    ///     .build()?;
    /// assert_eq!(cfg.nodes, 8);
    /// # Ok::<(), xpro_core::XProError>(())
    /// ```
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: RuntimeConfig::default(),
        }
    }

    /// Whether the two-state bursty channel is active.
    pub fn burst_enabled(&self) -> bool {
        self.burst_bad_rate > 0.0 && self.burst_p_enter > 0.0
    }

    /// Whether the per-node crash/reboot lifecycle is active.
    pub fn lifecycle_enabled(&self) -> bool {
        self.mtbf_s > 0.0
    }

    /// Whether recurring aggregator outages are active.
    pub fn outage_enabled(&self) -> bool {
        self.agg_outage_period_s > 0.0 && self.agg_outage_s > 0.0
    }

    /// Validates every field against its documented range. Called by
    /// [`RuntimeConfigBuilder::build`], and again by
    /// [`crate::ExecutorBuilder::build`] because builder overrides (seed,
    /// adaptive) can change which invariants apply.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when any field is out of range: zero
    /// nodes or more than `u32::MAX` (node ids are `u32`), more than
    /// 65 536 tenants (tenant ids are `u16`), non-positive duration or
    /// timeout, probabilities outside their unit ranges, a non-positive
    /// burst slot, negative lifecycle times, an outage at least as long as
    /// its period, a zero inbox, a hysteresis band not above 1, or a
    /// negative/non-finite backoff, dwell or batch overhead.
    pub fn validate(&self) -> Result<(), XProError> {
        let c = self;
        if c.nodes == 0 {
            return Err(XProError::config("fleet needs at least one node"));
        }
        if u32::try_from(c.nodes).is_err() {
            return Err(XProError::config(format!(
                "fleet of {} nodes exceeds the u32 node ids",
                c.nodes
            )));
        }
        if c.tenants.len() > usize::from(u16::MAX) + 1 {
            return Err(XProError::config(format!(
                "{} tenants exceed the u16 tenant ids",
                c.tenants.len()
            )));
        }
        if !(c.duration_s.is_finite() && c.duration_s > 0.0) {
            return Err(XProError::config(format!(
                "duration_s must be positive and finite, got {}",
                c.duration_s
            )));
        }
        if !(c.drop_rate >= 0.0 && c.drop_rate < 1.0) {
            return Err(XProError::config(format!(
                "drop_rate must be in [0, 1), got {}",
                c.drop_rate
            )));
        }
        if !(c.backoff_base_s.is_finite() && c.backoff_base_s >= 0.0) {
            return Err(XProError::config(format!(
                "backoff_base_s must be non-negative and finite, got {}",
                c.backoff_base_s
            )));
        }
        if !(c.timeout_s.is_finite() && c.timeout_s > 0.0) {
            return Err(XProError::config(format!(
                "timeout_s must be positive and finite, got {}",
                c.timeout_s
            )));
        }
        if !(c.batch_wake_s.is_finite() && c.batch_wake_s >= 0.0) {
            return Err(XProError::config(format!(
                "batch_wake_s must be non-negative and finite, got {}",
                c.batch_wake_s
            )));
        }
        if !(c.burst_bad_rate >= 0.0 && c.burst_bad_rate < 1.0) {
            return Err(XProError::config(format!(
                "burst_bad_rate must be in [0, 1), got {}",
                c.burst_bad_rate
            )));
        }
        for (name, p) in [
            ("burst_p_enter", c.burst_p_enter),
            ("burst_p_exit", c.burst_p_exit),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(XProError::config(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if !(c.burst_slot_s.is_finite() && c.burst_slot_s > 0.0) {
            return Err(XProError::config(format!(
                "burst_slot_s must be positive and finite, got {}",
                c.burst_slot_s
            )));
        }
        for (name, v) in [
            ("mtbf_s", c.mtbf_s),
            ("mttr_s", c.mttr_s),
            ("reboot_warmup_s", c.reboot_warmup_s),
            ("battery_budget_pj", c.battery_budget_pj),
            ("agg_outage_period_s", c.agg_outage_period_s),
            ("agg_outage_s", c.agg_outage_s),
            ("min_dwell_s", c.min_dwell_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(XProError::config(format!(
                    "{name} must be non-negative and finite, got {v}"
                )));
            }
        }
        if c.lifecycle_enabled() && c.mttr_s <= 0.0 {
            return Err(XProError::config(
                "mttr_s must be positive when the crash lifecycle is enabled",
            ));
        }
        if c.outage_enabled() && c.agg_outage_s >= c.agg_outage_period_s {
            return Err(XProError::config(format!(
                "agg_outage_s ({}) must be shorter than agg_outage_period_s ({})",
                c.agg_outage_s, c.agg_outage_period_s
            )));
        }
        if c.agg_inbox == 0 {
            return Err(XProError::config("agg_inbox must hold at least one job"));
        }
        if c.adaptive {
            if c.adaptive_window == 0 {
                return Err(XProError::config(
                    "adaptive_window must be positive when the controller is on",
                ));
            }
            if !(c.hysteresis.is_finite() && c.hysteresis > 1.0) {
                return Err(XProError::config(format!(
                    "hysteresis must be > 1, got {}",
                    c.hysteresis
                )));
            }
        }
        validate_tenants(&c.tenants, c.nodes)?;
        Ok(())
    }

    /// Whether the multi-tenant admission layer is active.
    pub fn tenancy_enabled(&self) -> bool {
        !self.tenants.is_empty()
    }
}

/// Fluent builder for [`RuntimeConfig`]; validated once, at
/// [`RuntimeConfigBuilder::build`].
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl Default for RuntimeConfigBuilder {
    fn default() -> Self {
        RuntimeConfig::builder()
    }
}

impl RuntimeConfigBuilder {
    /// Number of sensor nodes in the fleet.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Simulated duration in seconds.
    pub fn duration_s(mut self, seconds: f64) -> Self {
        self.cfg.duration_s = seconds;
        self
    }

    /// Per-attempt frame loss probability (good-state rate under bursts).
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.cfg.drop_rate = p;
        self
    }

    /// Retransmissions allowed per frame.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    /// Base backoff before the first retransmission (doubles per attempt).
    pub fn backoff_base_s(mut self, seconds: f64) -> Self {
        self.cfg.backoff_base_s = seconds;
        self
    }

    /// Per-segment deadline from arrival.
    pub fn timeout_s(mut self, seconds: f64) -> Self {
        self.cfg.timeout_s = seconds;
        self
    }

    /// Fault-injection RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Aggregator wake-up overhead charged at each batch start.
    pub fn batch_wake_s(mut self, seconds: f64) -> Self {
        self.cfg.batch_wake_s = seconds;
        self
    }

    /// Whether node arrivals are phase-staggered across one period.
    pub fn stagger(mut self, stagger: bool) -> Self {
        self.cfg.stagger = stagger;
        self
    }

    /// Bad-state drop rate of the Gilbert–Elliott channel (0 disables).
    pub fn burst_bad_rate(mut self, p: f64) -> Self {
        self.cfg.burst_bad_rate = p;
        self
    }

    /// Per-slot probability of entering the bad state.
    pub fn burst_p_enter(mut self, p: f64) -> Self {
        self.cfg.burst_p_enter = p;
        self
    }

    /// Per-slot probability of leaving the bad state (0 = permanent).
    pub fn burst_p_exit(mut self, p: f64) -> Self {
        self.cfg.burst_p_exit = p;
        self
    }

    /// Channel-state slot duration in seconds.
    pub fn burst_slot_s(mut self, seconds: f64) -> Self {
        self.cfg.burst_slot_s = seconds;
        self
    }

    /// Mean time between node crashes in seconds (0 disables).
    pub fn mtbf_s(mut self, seconds: f64) -> Self {
        self.cfg.mtbf_s = seconds;
        self
    }

    /// Mean node repair time in seconds.
    pub fn mttr_s(mut self, seconds: f64) -> Self {
        self.cfg.mttr_s = seconds;
        self
    }

    /// Post-reboot warm-up added to every down window.
    pub fn reboot_warmup_s(mut self, seconds: f64) -> Self {
        self.cfg.reboot_warmup_s = seconds;
        self
    }

    /// Per-node energy budget in picojoules (0 = unlimited).
    pub fn battery_budget_pj(mut self, pj: f64) -> Self {
        self.cfg.battery_budget_pj = pj;
        self
    }

    /// Period of recurring aggregator outages (0 disables).
    pub fn agg_outage_period_s(mut self, seconds: f64) -> Self {
        self.cfg.agg_outage_period_s = seconds;
        self
    }

    /// Duration of each aggregator outage window.
    pub fn agg_outage_s(mut self, seconds: f64) -> Self {
        self.cfg.agg_outage_s = seconds;
        self
    }

    /// Bounded aggregator inbox capacity (segments queued or in service).
    pub fn agg_inbox(mut self, capacity: usize) -> Self {
        self.cfg.agg_inbox = capacity;
        self
    }

    /// Enables the adaptive partition controller.
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.cfg.adaptive = adaptive;
        self
    }

    /// Estimator window size in frame transfers.
    pub fn adaptive_window(mut self, transfers: usize) -> Self {
        self.cfg.adaptive_window = transfers;
        self
    }

    /// Hysteresis band multiplier (must be > 1).
    pub fn hysteresis(mut self, h: f64) -> Self {
        self.cfg.hysteresis = h;
        self
    }

    /// Minimum dwell between partition switches.
    pub fn min_dwell_s(mut self, seconds: f64) -> Self {
        self.cfg.min_dwell_s = seconds;
        self
    }

    /// Tenant table partitioning the fleet's nodes (empty disables the
    /// admission layer).
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.cfg.tenants = tenants;
        self
    }

    /// Validates the accumulated configuration
    /// (see [`RuntimeConfig::validate`] for the invariants).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when any field is out of its
    /// documented range.
    pub fn build(self) -> Result<RuntimeConfig, XProError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    #[test]
    fn builder_defaults_match_default_impl() {
        assert_eq!(
            RuntimeConfig::builder().build().unwrap(),
            RuntimeConfig::default()
        );
        let cfg = RuntimeConfig::default();
        assert!(!cfg.burst_enabled());
        assert!(!cfg.lifecycle_enabled());
        assert!(!cfg.outage_enabled());
        assert!(!cfg.adaptive);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert!(RuntimeConfig::builder().nodes(0).build().is_err());
        assert!(RuntimeConfig::builder().duration_s(0.0).build().is_err());
        assert!(RuntimeConfig::builder()
            .duration_s(f64::INFINITY)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder().drop_rate(1.0).build().is_err());
        assert!(RuntimeConfig::builder().drop_rate(-0.1).build().is_err());
        assert!(RuntimeConfig::builder()
            .backoff_base_s(-1e-3)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder().timeout_s(0.0).build().is_err());
        assert!(RuntimeConfig::builder().batch_wake_s(-1.0).build().is_err());
        let err = RuntimeConfig::builder().drop_rate(2.0).build().unwrap_err();
        assert!(matches!(err, XProError::Config(_)));
    }

    #[test]
    fn builder_rejects_bad_fault_knobs() {
        assert!(RuntimeConfig::builder()
            .burst_bad_rate(1.0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder().burst_p_enter(1.5).build().is_err());
        assert!(RuntimeConfig::builder().burst_p_exit(-0.1).build().is_err());
        assert!(RuntimeConfig::builder().burst_slot_s(0.0).build().is_err());
        assert!(RuntimeConfig::builder().mtbf_s(-1.0).build().is_err());
        assert!(RuntimeConfig::builder()
            .mtbf_s(10.0)
            .mttr_s(0.0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder()
            .agg_outage_period_s(1.0)
            .agg_outage_s(1.0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder().agg_inbox(0).build().is_err());
        assert!(RuntimeConfig::builder()
            .adaptive(true)
            .hysteresis(1.0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder()
            .adaptive(true)
            .adaptive_window(0)
            .build()
            .is_err());
        assert!(RuntimeConfig::builder()
            .battery_budget_pj(f64::NAN)
            .build()
            .is_err());
    }

    /// Sizes a hostile `--tenants` table or CLI could ask for are refused
    /// as configuration errors before anything is allocated for them.
    #[test]
    fn oversized_fleets_and_tenant_tables_are_config_errors() {
        let config_err = |b: RuntimeConfigBuilder| matches!(b.build(), Err(XProError::Config(_)));
        let nodes = u32::MAX as usize + 1;
        assert!(config_err(RuntimeConfig::builder().nodes(nodes)));
        let tenants: Vec<_> = (0..=65_536)
            .map(|i| TenantSpec::new(format!("t{i}"), 1))
            .collect();
        assert!(config_err(
            RuntimeConfig::builder()
                .nodes(65_537)
                .tenants(tenants.clone())
        ));
        assert!(RuntimeConfig::builder()
            .nodes(65_536)
            .tenants(tenants[..65_536].to_vec())
            .build()
            .is_ok());
        // Node counts whose sum wraps `usize` to the fleet size.
        let wrapping = vec![TenantSpec::new("a", usize::MAX), TenantSpec::new("b", 3)];
        assert!(config_err(
            RuntimeConfig::builder().nodes(2).tenants(wrapping)
        ));
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = RuntimeConfig::builder()
            .nodes(2)
            .duration_s(3.0)
            .drop_rate(0.25)
            .max_retries(9)
            .backoff_base_s(0.5)
            .timeout_s(4.0)
            .seed(99)
            .batch_wake_s(0.125)
            .stagger(false)
            .burst_bad_rate(0.75)
            .burst_p_enter(0.1)
            .burst_p_exit(0.2)
            .burst_slot_s(0.25)
            .mtbf_s(30.0)
            .mttr_s(2.0)
            .reboot_warmup_s(0.5)
            .battery_budget_pj(1e9)
            .agg_outage_period_s(5.0)
            .agg_outage_s(0.5)
            .agg_inbox(32)
            .adaptive(true)
            .adaptive_window(48)
            .hysteresis(2.0)
            .min_dwell_s(0.25)
            .tenants(vec![TenantSpec::new("t0", 2)])
            .build()
            .unwrap();
        assert_eq!(cfg.nodes, 2);
        assert_eq!(cfg.duration_s, 3.0);
        assert_eq!(cfg.drop_rate, 0.25);
        assert_eq!(cfg.max_retries, 9);
        assert_eq!(cfg.backoff_base_s, 0.5);
        assert_eq!(cfg.timeout_s, 4.0);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.batch_wake_s, 0.125);
        assert!(!cfg.stagger);
        assert_eq!(cfg.burst_bad_rate, 0.75);
        assert_eq!(cfg.burst_p_enter, 0.1);
        assert_eq!(cfg.burst_p_exit, 0.2);
        assert_eq!(cfg.burst_slot_s, 0.25);
        assert_eq!(cfg.mtbf_s, 30.0);
        assert_eq!(cfg.mttr_s, 2.0);
        assert_eq!(cfg.reboot_warmup_s, 0.5);
        assert_eq!(cfg.battery_budget_pj, 1e9);
        assert_eq!(cfg.agg_outage_period_s, 5.0);
        assert_eq!(cfg.agg_outage_s, 0.5);
        assert_eq!(cfg.agg_inbox, 32);
        assert!(cfg.adaptive);
        assert_eq!(cfg.adaptive_window, 48);
        assert_eq!(cfg.hysteresis, 2.0);
        assert_eq!(cfg.min_dwell_s, 0.25);
        assert_eq!(cfg.tenants.len(), 1);
        assert_eq!(cfg.tenants[0].name, "t0");
        assert!(cfg.tenancy_enabled());
        assert!(cfg.burst_enabled() && cfg.lifecycle_enabled() && cfg.outage_enabled());
    }
}

//! Transient electrical battery model after Chen & Rincon-Mora (2006), the
//! model the paper's §5.1 cites: an open-circuit voltage source that depends
//! nonlinearly on state of charge, a series resistance and two RC pairs
//! capturing short- and long-time-constant relaxation.
//!
//! The steady-state [`crate::runtime::BatteryModel`] answers "how long does
//! it last"; this model answers "what does the terminal voltage do", which
//! matters for brown-out analysis of duty-cycled radios (transmit bursts pull
//! tens of mA from a 40 mAh cell).
//!
//! Parameter shapes follow the paper's Fig. 10 fits for a polymer Li-ion
//! cell, scaled by capacity.

/// Configuration of the transient model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransientConfig {
    /// Nominal capacity in mAh.
    pub capacity_mah: f64,
    /// Series (ohmic) resistance in ohms.
    pub r_series: f64,
    /// Short-time-constant RC pair (ohms, farads).
    pub r_ts: f64,
    /// Short time-constant capacitance in farads.
    pub c_ts: f64,
    /// Long-time-constant RC pair resistance in ohms.
    pub r_tl: f64,
    /// Long time-constant capacitance in farads.
    pub c_tl: f64,
}

impl TransientConfig {
    /// A 40 mAh polymer Li-ion wearable cell. Small cells have high internal
    /// resistance (the Chen–Rincon-Mora parameters scale inversely with
    /// capacity; their 850 mAh cell measured ~0.08 Ω series).
    pub fn sensor_40mah() -> Self {
        TransientConfig {
            capacity_mah: 40.0,
            r_series: 1.7,
            r_ts: 0.85,
            c_ts: 40.0,
            r_tl: 1.1,
            c_tl: 300.0,
        }
    }
}

/// Transient battery state: state of charge plus RC-pair voltages.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientBattery {
    config: TransientConfig,
    /// State of charge in [0, 1].
    soc: f64,
    /// Voltage across the short-time-constant RC pair.
    v_ts: f64,
    /// Voltage across the long-time-constant RC pair.
    v_tl: f64,
}

impl TransientBattery {
    /// A fully charged battery.
    ///
    /// # Panics
    ///
    /// Panics if any config parameter is non-positive.
    pub fn new(config: TransientConfig) -> Self {
        assert!(config.capacity_mah > 0.0, "capacity must be positive");
        assert!(
            config.r_series > 0.0
                && config.r_ts > 0.0
                && config.c_ts > 0.0
                && config.r_tl > 0.0
                && config.c_tl > 0.0,
            "RC parameters must be positive"
        );
        TransientBattery {
            config,
            soc: 1.0,
            v_ts: 0.0,
            v_tl: 0.0,
        }
    }

    /// State of charge in `[0, 1]`.
    pub fn soc(&self) -> f64 {
        self.soc
    }

    /// Open-circuit voltage at the current state of charge — the
    /// Chen–Rincon-Mora exponential + polynomial fit for Li-ion chemistry.
    pub fn open_circuit_v(&self) -> f64 {
        let s = self.soc;
        // V_oc(SOC) = -1.031·e^(-35·SOC) + 3.685 + 0.2156·SOC
        //             - 0.1178·SOC² + 0.3201·SOC³   (Chen & Rincon-Mora, Li-ion)
        -1.031 * (-35.0 * s).exp() + 3.685 + 0.2156 * s - 0.1178 * s * s + 0.3201 * s * s * s
    }

    /// Terminal voltage under a given load current (amps).
    pub fn terminal_v(&self, load_a: f64) -> f64 {
        self.open_circuit_v() - self.v_ts - self.v_tl - load_a * self.config.r_series
    }

    /// Advances the model by `dt` seconds under a constant load (amps).
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `load_a` is negative.
    pub fn step(&mut self, load_a: f64, dt: f64) {
        assert!(dt >= 0.0, "time step must be non-negative");
        assert!(load_a >= 0.0, "load must be non-negative");
        // Coulomb counting.
        let drawn_mah = load_a * 1000.0 * dt / 3600.0;
        self.soc = (self.soc - drawn_mah / self.config.capacity_mah).max(0.0);
        // RC relaxation toward I·R with exponential integration (exact for
        // constant current over the step).
        let relax = |v: f64, r: f64, c: f64| -> f64 {
            let target = load_a * r;
            let alpha = (-dt / (r * c)).exp();
            target + (v - target) * alpha
        };
        self.v_ts = relax(self.v_ts, self.config.r_ts, self.config.c_ts);
        self.v_tl = relax(self.v_tl, self.config.r_tl, self.config.c_tl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_sits_near_4_15_v() {
        let b = TransientBattery::new(TransientConfig::sensor_40mah());
        let v = b.open_circuit_v();
        assert!((4.0..4.2).contains(&v), "V_oc {v}");
        assert_eq!(b.soc(), 1.0);
    }

    #[test]
    fn voltage_falls_with_discharge() {
        let mut b = TransientBattery::new(TransientConfig::sensor_40mah());
        let v0 = b.terminal_v(0.004);
        for _ in 0..100 {
            b.step(0.004, 3600.0 / 20.0); // 0.2C for 5 h total → drained
        }
        assert!(b.soc() < 1.0);
        assert!(b.terminal_v(0.004) < v0);
    }

    #[test]
    fn voltage_knee_near_empty() {
        // The exponential term makes voltage collapse below ~10 % SOC.
        let mut b = TransientBattery::new(TransientConfig::sensor_40mah());
        b.soc = 0.5;
        let mid = b.open_circuit_v();
        b.soc = 0.03;
        let low = b.open_circuit_v();
        assert!(mid - low > 0.3, "knee too soft: {mid} vs {low}");
    }

    #[test]
    fn rc_pairs_relax_toward_ir() {
        let mut b = TransientBattery::new(TransientConfig::sensor_40mah());
        let load = 0.01;
        // Long enough for both time constants (R·C ≈ 34 s and 330 s).
        b.step(load, 3000.0);
        let expect_ts = load * b.config.r_ts;
        let expect_tl = load * b.config.r_tl;
        assert!((b.v_ts - expect_ts).abs() < 1e-6, "v_ts {}", b.v_ts);
        assert!((b.v_tl - expect_tl).abs() < 1e-3, "v_tl {}", b.v_tl);
    }

    #[test]
    fn transmit_burst_sags_then_recovers() {
        // A radio burst pulls the terminal down; after the burst the RC
        // voltages relax and the terminal recovers (load removed).
        let mut b = TransientBattery::new(TransientConfig::sensor_40mah());
        b.step(0.0, 1.0);
        let before = b.terminal_v(0.0);
        b.step(0.020, 5.0); // 20 mA burst
        let sagged = b.terminal_v(0.020);
        b.step(0.0, 600.0); // rest
        let recovered = b.terminal_v(0.0);
        assert!(sagged < before - 0.03, "no sag: {before} → {sagged}");
        assert!(
            recovered > sagged + 0.02,
            "no recovery: {sagged} → {recovered}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        TransientBattery::new(TransientConfig {
            capacity_mah: 0.0,
            ..TransientConfig::sensor_40mah()
        });
    }
}

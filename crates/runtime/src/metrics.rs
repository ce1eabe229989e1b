//! A lightweight metrics registry: named counters and gauges, with no
//! external dependencies.
//!
//! The executor fills it once, at digest time, from its per-node
//! accumulators and its barrier-level decisions; [`crate::RunReport`]
//! carries the registry so callers can inspect raw counters next to the
//! digested per-node statistics. Latency distributions live in the
//! per-node quantile sketches ([`crate::QuantileSketch`]), not here.

use std::collections::BTreeMap;

/// Named counters and gauges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter, creating it at zero first if needed. The
    /// name is interned (one `String` allocation) only the first time it
    /// is seen — every later call looks the existing key up by `&str`.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to the latest value. Allocates the key only on first
    /// use, like [`MetricsRegistry::inc`].
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.gauges.get_mut(name) {
            *slot = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Reads a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x", 2);
        m.inc("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn gauges_keep_the_latest_value() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", -2.0);
        assert_eq!(m.gauge("g"), Some(-2.0));
    }
}

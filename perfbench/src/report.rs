//! What one benchmark run prints: human-readable lines while it works,
//! then one JSON object as the last line of standard output.

/// End-to-end metrics, printed by every workload's untraced run. Each
/// workload measures them on its own work (see `NOTES.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload does not call reports zero calls and a value of 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.price_ms", "ms"),
    ("analyze.range_ms", "ms"),
    ("core.cache_key_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.build_network_ms", "ms"),
    ("graph.max_flow_ms", "ms"),
    ("core.certificate_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.classify_q16_us", "us"),
    ("core.classify_q16_approx_us", "us"),
    ("signal.dwt_q16_us", "us"),
    ("signal.dwt_f64_us", "us"),
    ("signal.features_q16_us", "us"),
    ("signal.features_f64_us", "us"),
    ("ml.svm_decision_q16_us", "us"),
    ("ml.svm_decision_us", "us"),
    ("ml.fusion_us", "us"),
    ("analyze.approx_budget_ms", "ms"),
    ("analyze.timing_ms", "ms"),
    ("analyze.energy_ms", "ms"),
    ("runtime.deployment_bounds_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.run_2shard_ms", "ms"),
    ("runtime.shard_speedup", "ratio"),
    ("runtime.report_json_ms", "ms"),
    ("runtime.report_bytes", "bytes"),
    ("runtime.ns_per_frame_attempt", "ns"),
    ("runtime.telemetry_bytes_per_node", "bytes"),
    ("runtime.export_ms", "ms"),
    ("runtime.barrier_rounds", "count"),
    ("runtime.replans", "count"),
    ("runtime.plan_cache_hit_ratio", "ratio"),
    ("runtime.frame_attempts", "count"),
    ("runtime.retries", "count"),
    ("runtime.admission_rejected", "count"),
    ("runtime.quarantined", "count"),
    ("runtime.partition_switches", "count"),
    ("runtime.delivery_ratio", "ratio"),
    ("core.plans", "count"),
    ("core.approx_rungs_admitted_ratio", "ratio"),
];

/// The unit a metric is declared with.
///
/// # Panics
///
/// Panics on a name that is in neither table: printing an undeclared
/// metric is a benchmark bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Counts one operation (a request or a fleet run) that ran to
    /// completion or failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check and prints its result.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(ok);
        if ok {
            println!("check ok    {what}");
        } else {
            println!("check FAIL  {what}");
            eprintln!("check failed: {what}");
        }
    }

    /// Records a metric; its unit comes from the declared tables.
    pub fn metric(&mut self, name: &str, value: f64) {
        println!("metric {name:<34} {value:>16.6} {}", unit_of(name));
        self.metrics.push((name.to_string(), value));
    }

    /// Names of the metrics recorded so far, in order.
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The result line. Values are printed with every digit (Rust's
    /// shortest round-trip form); a non-finite value is reported as 0 and
    /// makes the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v)| v.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(v),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as a JSON number: Rust's round-trip form, with a fraction so
/// every reader takes it as a number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let mut o = Outcome::default();
        o.op(true);
        o.check("x", true);
        o.metric("setup_s", 0.8127);
        o.metric("runtime.barrier_rounds", 3.0);
        let line = o.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"runtime.barrier_rounds\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("y", false);
        assert_eq!(o.failed, 1);
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }
}

//! The run loop shared by every workload: repeated set-up, a warm-up pass,
//! timed passes for the run's duration, each scaled to a host of fixed
//! speed by the reference kernel timed around it ([`crate::calib`]), then
//! output checks; or, in the traced run, untraced and traced passes
//! alternated so the tracing overhead can be measured, with the layer
//! replays after each traced pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::{self, Reference, NOMINAL_REF_S};
use crate::report::{Outcome, PER_LAYER};
use crate::stats::{median, peak_rss_mib, reset_peak_rss, rss_mib, tail};
use crate::trace::{SpanTotals, Tracer};

/// One benchmark workload after set-up.
pub trait Workload {
    /// Runs one full pass of the workload's operations and returns the
    /// host latency of each operation in ms. Every operation is counted in
    /// `out`.
    fn pass(&mut self, tr: &mut Tracer, out: &mut Outcome) -> Vec<f64>;

    /// Units of work in the last pass (segments offered, requests
    /// served), for the human-readable throughput line.
    fn work_units(&self) -> f64;

    /// Traced run only: replays, on the last pass's own inputs, the public
    /// calls of layers that otherwise run only inside another call.
    fn replay(&mut self, tr: &mut Tracer);

    /// Checks the outputs of the last pass; each check counts one
    /// operation.
    fn checks(&mut self, out: &mut Outcome);

    /// Traced run only: the per-layer metrics this workload owns, from the
    /// span totals of the traced passes and the last pass's outputs.
    fn layer_metrics(&self, totals: &BTreeMap<&str, SpanTotals>, out: &mut Outcome);
}

/// Mean wall time per call of a span name, scaled from ns by `per`
/// (1e6 for ms, 1e3 for µs); 0 when the name was never called.
fn layer_value(totals: &BTreeMap<&str, SpanTotals>, name: &str, per: f64) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.calls.max(1) as f64 / per)
}

/// Run options from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Measurement time.
    pub seconds: f64,
    /// Set-ups per run; the reported set-up time is their median.
    pub setup_reps: usize,
    /// Minimum timed passes even if the time is up.
    pub min_passes: usize,
}

/// Times `f` between two calls of the reference kernel and returns its
/// result, its host time and that time scaled to the nominal host. The
/// kernel's time after `f` becomes `last_ref`, the bracket of the next
/// timing.
fn bracketed<T>(
    reference: &mut Reference,
    last_ref: &mut f64,
    f: impl FnOnce() -> T,
) -> (T, f64, f64) {
    let t0 = Instant::now();
    let value = f();
    let host_s = t0.elapsed().as_secs_f64();
    let after = reference.time();
    let k = calib::scale(*last_ref, after);
    *last_ref = after;
    (value, host_s, k)
}

/// Timings of one kind: host seconds, and the same scaled to the nominal
/// host.
#[derive(Debug, Default)]
struct Samples {
    host: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    fn push(&mut self, host_s: f64, scale: f64) {
        self.host.push(host_s);
        self.scaled.push(host_s * scale);
    }
}

/// Untraced run: prints every end-to-end metric.
///
/// Every set-up and every pass is timed between two calls of the
/// reference kernel, and its time is scaled to the nominal host
/// ([`calib`]); a pass's operations take the pass's factor. The host
/// times are printed next to the scaled ones.
pub fn run_untraced<W: Workload>(
    opts: RunOptions,
    mut setup: impl FnMut() -> Result<W, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    // The kernel's table stays resident for the whole run; peak_rss_mb
    // leaves it out.
    let rss_before = rss_mib().ok_or("VmRSS unavailable")?;
    let mut reference = Reference::new();
    let table_mib = rss_mib().ok_or("VmRSS unavailable")? - rss_before;
    let mut last_ref = reference.time();
    let mut setups = Samples::default();
    let (w, host_s, k) = bracketed(&mut reference, &mut last_ref, &mut setup);
    setups.push(host_s, k);
    let mut w = w?;
    let mut off = Tracer::new(false);
    // Warm-up: lets allocators and caches settle before timing.
    w.pass(&mut off, out);
    last_ref = reference.time();

    // The repeated set-ups are spread over the run, so their median sees
    // the same machine as the passes. The memory metric is the highest
    // VmHWM of any pass, reset before each: set-ups, the warm-up and the
    // checks do not count.
    let resettable = reset_peak_rss();
    if !resettable {
        println!("note: VmHWM cannot be reset; peak_rss_mb covers the whole process");
    }
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut passes = Samples::default();
    let mut refs = Vec::new();
    let mut op_ms = Vec::new();
    let mut peak_rss = 0.0f64;
    while passes.host.len() < opts.min_passes || start.elapsed() < budget {
        let due = budget.mul_f64(setups.host.len() as f64 / opts.setup_reps.max(1) as f64);
        if setups.host.len() < opts.setup_reps && start.elapsed() >= due {
            let (w, host_s, k) = bracketed(&mut reference, &mut last_ref, &mut setup);
            drop(w?);
            setups.push(host_s, k);
        }
        if resettable {
            reset_peak_rss();
        }
        let mut peak = None;
        let (ops, host_s, k) = bracketed(&mut reference, &mut last_ref, || {
            let ops = w.pass(&mut off, out);
            peak = peak_rss_mib();
            ops
        });
        peak_rss = peak_rss.max(peak.ok_or("VmHWM unavailable")? - table_mib);
        op_ms.extend(ops.iter().map(|ms| ms * k));
        passes.push(host_s, k);
        refs.push(last_ref);
    }
    while setups.host.len() < opts.setup_reps {
        let (w, host_s, k) = bracketed(&mut reference, &mut last_ref, &mut setup);
        drop(w?);
        setups.push(host_s, k);
    }
    let units = w.work_units();
    w.checks(out);

    let host_med = median(&passes.host);
    println!(
        "passes {} (host min {:.4} s, max {:.4} s, median {host_med:.4} s) ops {} work units per pass {units} ({:.1} per host second)",
        passes.host.len(),
        passes.host.iter().copied().fold(f64::INFINITY, f64::min),
        passes.host.iter().copied().fold(0.0, f64::max),
        op_ms.len(),
        units / host_med
    );
    println!(
        "host speed: reference kernel median {:.5} s (min {:.5}, max {:.5}) against the nominal {NOMINAL_REF_S} s; its table adds {table_mib:.1} MiB of RSS, left out of peak_rss_mb",
        median(&refs),
        refs.iter().copied().fold(f64::INFINITY, f64::min),
        refs.iter().copied().fold(0.0, f64::max),
    );
    println!("setup_s host samples {:?}", setups.host);
    println!("setup_s scaled samples {:?}", setups.scaled);
    out.metric("setup_s", median(&setups.scaled));
    out.metric("peak_rss_mb", peak_rss);
    out.metric("pass_s", median(&passes.scaled));
    out.metric("op_ms_p50", median(&op_ms));
    let (tail_ms, pct) = tail(&op_ms).ok_or_else(|| {
        format!(
            "{} operations are too few for a tail percentile",
            op_ms.len()
        )
    })?;
    println!(
        "op_ms_tail is p{pct:.1} of {} operation samples",
        op_ms.len()
    );
    out.metric("op_ms_tail", tail_ms);
    Ok(())
}

/// Traced run: prints every per-layer metric, plus the trace's coverage,
/// per-layer shares and overhead as human-readable lines.
pub fn run_traced<W: Workload>(
    opts: RunOptions,
    setup: impl FnOnce() -> Result<W, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut w = setup()?;
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    w.pass(&mut off, out);

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_wall_ns = 0u64;
    while plain_s.len() < 2 || start.elapsed() < budget {
        let t0 = Instant::now();
        w.pass(&mut off, out);
        plain_s.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        w.pass(&mut on, out);
        traced_s.push(t0.elapsed().as_secs_f64());
        w.replay(&mut on);
        traced_wall_ns += t0.elapsed().as_nanos() as u64;
    }
    w.checks(out);

    let totals = on.totals();
    let coverage = on.root_ns() as f64 / traced_wall_ns as f64;
    let overhead = median(&traced_s) / median(&plain_s) - 1.0;
    let requests: std::collections::BTreeSet<u64> = on.spans().iter().map(|s| s.request).collect();
    println!(
        "trace: {} spans over {} requests, root spans cover {:.2}% of {:.3} s traced wall time",
        on.spans().len(),
        requests.len(),
        100.0 * coverage,
        traced_wall_ns as f64 * 1e-9
    );
    println!(
        "trace: overhead {:+.2}% (median traced pass {:.4} s vs untraced {:.4} s over {} pairs)",
        100.0 * overhead,
        median(&traced_s),
        median(&plain_s),
        plain_s.len()
    );
    // Shares are of the traced passes' wall time; a replayed layer's
    // share estimates its part of the pass it runs inside.
    let pass_ns: f64 = traced_s.iter().sum::<f64>() * 1e9;
    let parent_of = parents(&on);
    for (name, t) in &totals {
        let parent = parent_of.get(name).copied().unwrap_or("-");
        let parent_calls = totals.get(parent).map_or(0, |p| p.calls);
        println!(
            "span {name:<30} calls {:>8}  per {parent} {:>9.2}  total {:>10.3} ms  self {:>10.3} ms  share of pass {:>6.2}%",
            t.calls,
            t.calls as f64 / parent_calls.max(1) as f64,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6,
            100.0 * t.total_ns as f64 / pass_ns,
        );
    }
    if coverage < 0.9 {
        eprintln!(
            "warning: spans cover only {:.1}% of the traced wall time",
            100.0 * coverage
        );
    }
    // Timings come straight from the spans: `<crate>.<call>_ms` is the
    // mean wall time of the `<crate>.<call>` span.
    for (name, unit) in PER_LAYER {
        let per = match unit {
            "ms" => 1e6,
            "us" => 1e3,
            _ => continue,
        };
        let span = &name[..name.len() - 3];
        out.metric(name, layer_value(&totals, span, per));
    }
    w.layer_metrics(&totals, out);
    // A layer this workload never calls reports 0.
    let printed: Vec<String> = out
        .metric_names()
        .iter()
        .map(|n| (*n).to_string())
        .collect();
    for (name, _) in PER_LAYER {
        if !printed.iter().any(|n| n == name) {
            out.metric(name, 0.0);
        }
    }
    Ok(())
}

/// Parent span name of each span name (first occurrence).
fn parents(tr: &Tracer) -> BTreeMap<&'static str, &'static str> {
    let spans = tr.spans();
    let mut out = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            out.entry(s.name).or_insert(spans[p].name);
        }
    }
    out
}

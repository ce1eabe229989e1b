//! Energy–delay Pareto frontier of the delay-constrained generator
//! (extends ablation A4): sweep the delay limit from just above the
//! theoretical floor up past the paper's `min(T_F, T_B)` default, and report
//! the minimum sensor energy at each point. The limits share one priced
//! instance, so one plan cache serves them all from a single λ search.
//!
//! Run: `cargo run --release -p xpro-bench --bin pareto [--paper]`

use xpro_bench::{fmt, paper_mode, print_table, train_case};
use xpro_core::config::SystemConfig;
use xpro_core::partition::evaluate;
use xpro_core::{PlanCache, XProGenerator};
use xpro_data::CaseId;

fn main() {
    let t = train_case(CaseId::E1, paper_mode());
    let inst = t.instance(SystemConfig::default());
    let default_limit = XProGenerator::new(&inst).default_delay_limit();
    let mut cache = PlanCache::new(1);

    let header: Vec<String> = [
        "delay limit",
        "feasible",
        "energy (uJ)",
        "achieved delay",
        "cells in-sensor",
    ]
    .iter()
    .map(std::string::ToString::to_string)
    .collect();
    let mut rows = Vec::new();
    for fraction in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5, 2.0] {
        let limit = default_limit * fraction;
        match cache.plan_for(&inst, limit) {
            Ok((p, _)) => {
                let e = evaluate(&inst, &p);
                rows.push(vec![
                    format!("{:.2}ms ({fraction:.1}x)", limit * 1e3),
                    "yes".into(),
                    fmt(e.sensor.total_pj() / 1e6),
                    format!("{:.2}ms", e.delay.total_s() * 1e3),
                    format!("{}/{}", p.sensor_count(), inst.num_cells()),
                ]);
            }
            Err(_) => rows.push(vec![
                format!("{:.2}ms ({fraction:.1}x)", limit * 1e3),
                "no".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    print_table(
        "Energy-delay Pareto frontier, case E1 (limits relative to min(T_F, T_B))",
        &header,
        &rows,
    );
    println!(
        "\ntightening the limit trades sensor energy for latency until no cut fits;\n\
         loosening past the Eq.-4 default stops helping once the unconstrained\n\
         minimum-energy cut becomes feasible."
    );
}

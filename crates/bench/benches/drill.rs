//! Fault-tolerance benchmark: the kill → degrade → recover failure drill from
//! `shp-controller`.
//!
//! Before timing, every drill gate is asserted (CI smoke relies on these panicking on
//! regression):
//!
//! * **Correctness under faults** — zero wrong values served through failovers and hedges,
//!   and the unreplicated leg's typed partial results name exactly the keys placed on the
//!   dead shard (zero mismatches).
//! * **Availability** — with `replication = 2`, every phase of the incident and recovery
//!   stays at ≥ 99% complete queries while a primary is down.
//! * **Bounded recovery** — the dead shard drains to empty with no epoch moving more keys
//!   than the migration budget, and the post-recovery fanout returns to within 5% of the
//!   pre-incident baseline.
//! * **Determinism** — a second run of the same config produces the identical report.
//!
//! Headline numbers — per-phase fanout/p99/availability, retries, hedges won, the degraded
//! leg's availability, and the recovery churn — land in `BENCH_drill.json` at the
//! repository root.

mod support;

use shp_bench::bench_json;
use shp_controller::{run_drill_scenario, DrillConfig};
use shp_telemetry::json::Json;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

fn main() {
    let quick = criterion::quick_mode();
    let config = if quick {
        DrillConfig::default().quick()
    } else {
        DrillConfig::default()
    };
    println!(
        "drill: {} keys on {} shards (replication {}), 4 phases x {} multigets, shard {} \
         crashes, budget {} keys/epoch{}",
        config.num_keys(),
        config.shards,
        config.replication,
        config.queries_per_phase,
        config.dead_shard,
        config.migration_budget,
        if quick { " (quick mode)" } else { "" }
    );

    // ---- Gates: correctness, availability, bounded recovery, determinism ---------------
    let report = run_drill_scenario(&config).expect("drill scenario");
    assert_eq!(
        report.wrong_values, 0,
        "failover/hedging served a wrong value"
    );
    assert_eq!(
        report.missing_mismatches, 0,
        "typed partial results were imprecise"
    );
    assert!(
        report.incident_availability() >= 0.99,
        "availability {} under the incident (gate: >= 0.99)",
        report.incident_availability()
    );
    assert!(
        report.max_epoch_moved <= config.migration_budget,
        "budget violated: a recovery epoch moved {} keys (budget {})",
        report.max_epoch_moved,
        config.migration_budget
    );
    assert_eq!(report.recovery_remaining, 0, "dead shard was not drained");
    assert!(
        report.post_fanout() <= 1.05 * report.baseline_fanout(),
        "post-recovery fanout {} vs baseline {}",
        report.post_fanout(),
        report.baseline_fanout()
    );
    let rerun = run_drill_scenario(&config).expect("drill rerun");
    assert_eq!(report, rerun, "the drill must be deterministic");

    let incident = &report.phases[1];
    println!(
        "drill: availability {:.4} through the incident ({} retries, {} hedges won), \
         unreplicated leg degrades to {:.4}; drained {} keys in {} epochs (largest {})",
        report.incident_availability(),
        incident.retries,
        incident.hedges_won,
        report.degraded_leg_availability,
        report.recovery_moved,
        report.recovery_epochs,
        report.max_epoch_moved
    );

    // ---- Measurement -------------------------------------------------------------------
    let rounds = support::rounds();
    let scenario = support::measure(
        rounds,
        || (),
        |()| {
            run_drill_scenario(&config).expect("drill scenario");
        },
    );
    println!("drill: full scenario {:.1} ms", scenario.secs_per_op * 1e3);

    let mut rows = vec![
        (
            "workload".to_string(),
            bench_json::render_metrics(&[
                ("keys", config.num_keys() as f64),
                ("shards", config.shards as f64),
                ("replication", config.replication as f64),
                ("queries_per_phase", config.queries_per_phase as f64),
                ("migration_budget", config.migration_budget as f64),
            ]),
        ),
        (
            "scenario".to_string(),
            bench_json::render_metrics(&[
                ("ms_per_run", scenario.secs_per_op * 1e3),
                ("incident_availability", report.incident_availability()),
                (
                    "degraded_leg_availability",
                    report.degraded_leg_availability,
                ),
                ("wrong_values", report.wrong_values as f64),
                ("missing_mismatches", report.missing_mismatches as f64),
                ("recovery_epochs", report.recovery_epochs as f64),
                ("recovery_moved", report.recovery_moved as f64),
                ("max_epoch_moved", report.max_epoch_moved as f64),
                ("recovery_remaining", report.recovery_remaining as f64),
            ]),
        ),
    ];
    for phase in &report.phases {
        rows.push((
            format!("phase_{}", phase.name),
            bench_json::render_metrics(&[
                ("mean_fanout", phase.mean_fanout),
                ("p99", phase.p99),
                ("availability", phase.availability),
                ("degraded_queries", phase.degraded_queries as f64),
                ("retries", phase.retries as f64),
                ("hedges_won", phase.hedges_won as f64),
            ]),
        ));
    }
    let path = bench_json::repo_root().join(bench_json::BENCH_DRILL_JSON_NAME);
    bench_json::update_section(&path, "drill", Json::object(rows)).expect("write BENCH_drill.json");
    println!("drill: trajectory written to {}", path.display());
}

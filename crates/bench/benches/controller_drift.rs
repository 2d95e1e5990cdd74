//! Online repartitioning benchmark: the trace-record hot path and the hours-compressed
//! drift scenario from `shp-controller`.
//!
//! Two things are measured:
//!
//! * **The record path** — [`AccessTraceCollector::record`] as called from the serving hot
//!   loop, in ns per multiget. Before timing, a counting global allocator asserts the path
//!   performs **zero allocations**: the collector is a fixed arena of atomics, and a single
//!   stray `Vec` here would put an allocator hit on every served multiget.
//! * **The drift scenario** — key popularity rotates phase over phase while a live engine
//!   serves; a budgeted controller run is compared against the never-repartition baseline.
//!   Before timing, the headline invariants are asserted (CI smoke relies on these panicking
//!   on regression): the final drifted phase's fanout must be strictly better than the
//!   baseline's, and no epoch may move more keys than the migration budget.
//!
//! Headline numbers — record-path cost, per-phase fanout and tail latency, moved keys per
//! epoch, and the cumulative migration volume — land in `BENCH_controller.json` at the
//! repository root.

mod support;

use shp_bench::bench_json;
use shp_controller::{run_drift_scenario, AccessTraceCollector, DriftConfig};
use shp_telemetry::json::Json;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

/// Multigets recorded per timed round of the record-path measurement.
const RECORDS_PER_ROUND: usize = 200_000;

/// A deterministic stream of multiget key-sets exercising every record path: co-access
/// samples of 2..=8 keys, plus interleaved singletons (counted, never sampled).
fn key_stream() -> Vec<Vec<u32>> {
    let mut state = 0xD21F_2017_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..512)
        .map(|_| {
            let r = next();
            let len = if r % 8 == 0 { 1 } else { 2 + (r % 7) as usize };
            (0..len)
                .map(|i| ((r >> 16).wrapping_add(i as u64 * 977) % 100_000) as u32)
                .collect()
        })
        .collect()
}

fn record_stream(collector: &AccessTraceCollector, stream: &[Vec<u32>], records: usize) {
    for i in 0..records {
        collector.record(&stream[i % stream.len()]);
    }
}

fn main() {
    let quick = criterion::quick_mode();
    let config = if quick {
        DriftConfig::default().quick()
    } else {
        DriftConfig::default()
    };
    println!(
        "controller_drift: {} keys on {} shards, {} phases x {} multigets, budget {} \
         keys/epoch{}",
        config.num_keys(),
        config.shards,
        config.phases,
        config.queries_per_phase,
        config.migration_budget,
        if quick { " (quick mode)" } else { "" }
    );

    // ---- Gate 1: the record path allocates nothing -------------------------------------
    let collector = AccessTraceCollector::new(1024, 0x5047);
    let stream = key_stream();
    record_stream(&collector, &stream, 4 * stream.len()); // warmup: fill the reservoir
    let before = support::alloc_snapshot();
    record_stream(&collector, &stream, RECORDS_PER_ROUND);
    let (allocs, bytes) = support::alloc_snapshot().delta(&before);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "the trace record path must not allocate"
    );
    let trace_stats = collector.stats();
    assert_eq!(
        trace_stats.recorded,
        trace_stats.sampled
            + trace_stats.singleton
            + trace_stats.reservoir_skipped
            + trace_stats.contended,
        "trace accounting must be complete"
    );
    println!(
        "controller_drift: record path is allocation-free over {RECORDS_PER_ROUND} multigets \
         ({} reservoir bytes)",
        collector.memory_bytes()
    );

    // ---- Gate 2: the controller beats the baseline within budget -----------------------
    let with = run_drift_scenario(&config).expect("drift scenario");
    let without = run_drift_scenario(&DriftConfig {
        repartition_every: 0,
        ..config.clone()
    })
    .expect("baseline scenario");
    assert!(
        with.max_epoch_moved <= config.migration_budget,
        "budget violated: an epoch moved {} keys (budget {})",
        with.max_epoch_moved,
        config.migration_budget
    );
    assert!(
        with.final_phase_fanout() < without.final_phase_fanout(),
        "the controller must beat the never-repartition baseline: {} vs {}",
        with.final_phase_fanout(),
        without.final_phase_fanout()
    );
    let epochs: usize = with.phases.iter().map(|p| p.epochs.len()).sum();
    let recovery = 100.0 * (1.0 - with.final_phase_fanout() / without.final_phase_fanout());
    println!(
        "controller_drift: final phase fanout {:.4} vs baseline {:.4} ({recovery:.1}% lower); \
         {} keys moved over {epochs} epochs (largest {}, budget {})",
        with.final_phase_fanout(),
        without.final_phase_fanout(),
        with.cumulative_moved,
        with.max_epoch_moved,
        config.migration_budget
    );

    // ---- Measurements ------------------------------------------------------------------
    let rounds = support::rounds();
    let record = support::measure(
        rounds,
        || (),
        |()| record_stream(&collector, &stream, RECORDS_PER_ROUND),
    );
    let scenario = support::measure(
        rounds,
        || (),
        |()| {
            run_drift_scenario(&config).expect("drift scenario");
        },
    );
    println!(
        "controller_drift: record {:.1} ns/multiget, full scenario {:.1} ms",
        record.ns_per_item(RECORDS_PER_ROUND),
        scenario.secs_per_op * 1e3
    );

    let mut rows = vec![
        (
            "workload".to_string(),
            bench_json::render_metrics(&[
                ("keys", config.num_keys() as f64),
                ("shards", config.shards as f64),
                ("phases", config.phases as f64),
                ("queries_per_phase", config.queries_per_phase as f64),
                ("migration_budget", config.migration_budget as f64),
                ("reservoir_bytes", collector.memory_bytes() as f64),
            ]),
        ),
        (
            "trace_record".to_string(),
            bench_json::render_metrics(&[
                ("ns_per_multiget", record.ns_per_item(RECORDS_PER_ROUND)),
                ("allocs_per_op", record.allocs_per_op),
                ("alloc_bytes_per_op", record.bytes_per_op),
            ]),
        ),
        (
            "scenario".to_string(),
            bench_json::render_metrics(&[
                ("ms_per_run", scenario.secs_per_op * 1e3),
                ("controller_final_fanout", with.final_phase_fanout()),
                ("baseline_final_fanout", without.final_phase_fanout()),
                ("fanout_recovery_pct", recovery),
                ("cumulative_moved", with.cumulative_moved as f64),
                ("max_epoch_moved", with.max_epoch_moved as f64),
                (
                    "moved_per_epoch",
                    if epochs > 0 {
                        with.cumulative_moved as f64 / epochs as f64
                    } else {
                        0.0
                    },
                ),
                ("epochs", epochs as f64),
            ]),
        ),
    ];
    for (label, report) in [("controller", &with), ("baseline", &without)] {
        for phase in &report.phases {
            rows.push((
                format!("{label}_phase{}", phase.phase),
                bench_json::render_metrics(&[
                    ("mean_fanout", phase.mean_fanout),
                    ("p99", phase.p99),
                    ("p999", phase.p999),
                    (
                        "moved",
                        phase.epochs.iter().map(|e| e.moved_keys).sum::<usize>() as f64,
                    ),
                ]),
            ));
        }
    }
    let path = bench_json::repo_root().join(bench_json::BENCH_CONTROLLER_JSON_NAME);
    bench_json::update_section(&path, "controller_drift", Json::object(rows))
        .expect("write BENCH_controller.json");
    println!("controller_drift: trajectory written to {}", path.display());
}

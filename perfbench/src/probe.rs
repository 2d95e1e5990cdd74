//! Probes for the traced run: single layers timed in isolation through their public calls.

use crate::serve::{Serving, Traffic, RESERVOIR_SLOTS};
use crate::stats::median;
use crate::trace::ROOT;
use crate::{Ctx, Report};
use shp_controller::{AccessTraceCollector, ControllerConfig};
use shp_core::api::enforce_balance;
use shp_core::gains::compute_proposals;
use shp_core::histogram::GainHistogramSet;
use shp_core::refinement::unit_hash;
use shp_core::swap::MoveProbabilities;
use shp_core::{NeighborData, Objective, Refiner, ShpConfig, TargetConstraint};
use shp_hypergraph::{BipartiteGraph, Partition};
use shp_serving::{EngineConfig, ServingMetrics, ShardRouter, ShardSet};
use shp_vertex_centric::ExecutionMetrics;

/// Repetitions of each timed stage; the median is reported.
const STAGE_REPS: usize = 5;
/// Multigets replayed by the serving-call probes.
const PROBE_QUERIES: u64 = 20_000;

/// Layers, by the prefix of the span names recorded in their calls.
const LAYERS: [&str; 7] = [
    "bench",
    "controller",
    "core",
    "datagen",
    "hypergraph",
    "serving",
    "telemetry",
];

fn median_ms(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..STAGE_REPS).map(|_| f() * 1e3).collect::<Vec<_>>())
}

/// A refinement level to probe: the partition it starts from and what it refines under.
pub struct Level {
    label: &'static str,
    start: Partition,
    objective: Objective,
    constraint: TargetConstraint,
    epsilon: f64,
    seed: u64,
    /// Gain every move away from `start` loses: the incremental kernel's movement penalty,
    /// 0 for bisection.
    movement_penalty: f64,
}

/// The first bisection level (2 buckets) and the last (`k` buckets, moves between sibling
/// pairs), each in the state `partition_recursive` starts it in. `final_partition` is the
/// finished k-way partition; merged pairwise it is the partition the last level split. `k`
/// must be a power of two, so that every level splits every bucket in two.
pub fn bisection_levels(
    graph: &BipartiteGraph,
    final_partition: &Partition,
    config: &ShpConfig,
) -> Vec<Level> {
    let k = config.num_buckets;
    assert!(k.is_power_of_two() && k >= 2, "k={k} is not a power of two");
    let levels = k.trailing_zeros() as usize;
    [("first", 0), ("last", levels - 1)]
        .into_iter()
        .map(|(label, level)| {
            let parent: Vec<u32> = if level == 0 {
                vec![0; graph.num_data()]
            } else {
                final_partition
                    .assignment()
                    .iter()
                    .map(|&b| b / 2)
                    .collect()
            };
            let parents = 1u32 << level;
            // The split and settings of `partition_recursive` at this level (SHP-2
            // defaults: ε scaled by depth, objective aimed at the final number of splits).
            let seed = config
                .seed
                .wrapping_add((level as u64).wrapping_mul(0x9E37_79B9));
            let assignment = parent
                .iter()
                .enumerate()
                .map(|(v, &b)| 2 * b + u32::from(unit_hash(seed, 0x5EED, v as u64) >= 0.5))
                .collect();
            let start = Partition::from_assignment(graph, 2 * parents, assignment)
                .expect("the split assigns every vertex to a valid bucket");
            let epsilon = if config.scale_epsilon_by_level {
                config.epsilon * (level + 1) as f64 / levels as f64
            } else {
                config.epsilon
            };
            let mut objective = Objective::from_kind(config.objective);
            if config.optimize_final_p_fanout {
                objective = objective.for_final_splits(k / (2 * parents));
            }
            let siblings: Vec<Vec<u32>> = (0..parents).map(|b| vec![2 * b, 2 * b + 1]).collect();
            Level {
                label,
                start,
                objective,
                constraint: TargetConstraint::sibling_groups(&siblings),
                epsilon,
                seed,
                movement_penalty: 0.0,
            }
        })
        .collect()
}

/// The level a controller epoch refines: `partition_incremental` on `observed` at the
/// engine's shard count, from the live `assignment` of engine epoch `epoch`, with the
/// controller's ε, seed and movement penalty.
pub fn incremental_level(
    label: &'static str,
    observed: &BipartiteGraph,
    assignment: Vec<u32>,
    epoch: u64,
    config: &ControllerConfig,
) -> Result<Level, String> {
    let k = assignment.iter().max().map_or(1, |&b| b + 1);
    let start = Partition::from_assignment(observed, k, assignment)
        .map_err(|e| format!("live placement on the observed graph: {e}"))?;
    Ok(Level {
        label,
        start,
        objective: Objective::from_kind(ShpConfig::direct(k).objective),
        constraint: TargetConstraint::all(k),
        epsilon: config.epsilon,
        seed: config.seed ^ epoch,
        movement_penalty: config.movement_penalty,
    })
}

/// Times each stage of a refinement iteration of every level, at 1 and 2 workers; `config`
/// supplies the refiner settings the levels share. Returns the moved vertices per proposal
/// over the probed iterations at one worker.
pub fn core_levels(
    ctx: &Ctx,
    graph: &BipartiteGraph,
    levels: &[Level],
    config: &ShpConfig,
    report: &mut Report,
) -> f64 {
    let (mut moved, mut candidates) = (0usize, 0usize);
    for level in levels {
        let Level {
            label,
            ref start,
            objective,
            ref constraint,
            epsilon,
            seed,
            movement_penalty,
        } = *level;
        for workers in [1, 2] {
            let name = |stage: &str| format!("core.{stage}_ms.{label}.w{workers}");
            let tracer = &ctx.tracer;
            let ((), _) = tracer.step("bench.core_probe", ROOT, workers as u64, |id| {
                let nd = NeighborData::build_with_workers(graph, start, workers);
                report.layer(
                    &name("neighbor_build"),
                    median_ms(|| {
                        tracer
                            .step("core.neighbor_build", id, 0, |_| {
                                NeighborData::build_with_workers(graph, start, workers)
                            })
                            .1
                            .as_secs_f64()
                    }),
                    "ms",
                );
                let mut proposals =
                    compute_proposals(&objective, graph, start, &nd, constraint, true, workers);
                report.layer(
                    &name("propose"),
                    median_ms(|| {
                        tracer
                            .step("core.propose", id, 0, |_| {
                                compute_proposals(
                                    &objective, graph, start, &nd, constraint, true, workers,
                                )
                            })
                            .1
                            .as_secs_f64()
                    }),
                    "ms",
                );
                // Every proposal moves its vertex away from its bucket in `start`.
                for p in &mut proposals {
                    p.gain -= movement_penalty;
                }
                let histograms = GainHistogramSet::from_proposals_with_workers(&proposals, workers);
                report.layer(
                    &name("histogram"),
                    median_ms(|| {
                        tracer
                            .step("core.histogram", id, 0, |_| {
                                GainHistogramSet::from_proposals_with_workers(&proposals, workers)
                            })
                            .1
                            .as_secs_f64()
                    }),
                    "ms",
                );
                let probabilities = MoveProbabilities::from_histograms(&histograms);
                report.layer(
                    &name("probabilities"),
                    median_ms(|| {
                        tracer
                            .step("core.probabilities", id, 0, |_| {
                                MoveProbabilities::from_histograms(&histograms)
                            })
                            .1
                            .as_secs_f64()
                    }),
                    "ms",
                );
                let selected: Vec<_> = proposals
                    .iter()
                    .filter(|p| {
                        let prob = probabilities.probability(p);
                        prob > 0.0 && unit_hash(seed, 0, p.vertex as u64) < prob
                    })
                    .collect();
                report.layer(
                    &name("apply"),
                    median_ms(|| {
                        let (mut partition, mut nd) = (start.clone(), nd.clone());
                        tracer
                            .step("core.apply", id, 0, |_| {
                                for p in &selected {
                                    partition.assign(p.vertex, p.to);
                                    nd.apply_move(graph, p.vertex, p.from, p.to);
                                }
                            })
                            .1
                            .as_secs_f64()
                    }),
                    "ms",
                );

                // The real iterations of the level, from its starting state.
                let mut refiner = Refiner::new(
                    graph,
                    objective,
                    constraint.clone(),
                    config.swap_strategy,
                    config.balance_mode,
                    config.allow_imbalanced_moves,
                    epsilon,
                    seed,
                )
                .with_workers(workers);
                if movement_penalty > 0.0 {
                    let original = start.assignment().to_vec();
                    refiner = refiner.with_gain_adjuster(Box::new(move |p| {
                        if p.to != original[p.vertex as usize] {
                            p.gain - movement_penalty
                        } else {
                            p.gain
                        }
                    }));
                }
                let (mut partition, mut nd) = (start.clone(), nd);
                let mut active = refiner.new_active_set();
                let (mut iteration_ms, mut dirty) = (Vec::new(), Vec::new());
                for iteration in 0..config.max_iterations {
                    dirty.push(active.num_dirty() as f64 / graph.num_data() as f64);
                    let (stats, took) = tracer.step("core.iteration", id, iteration as u64, |_| {
                        refiner.run_iteration_with(&mut active, &mut partition, &mut nd, iteration)
                    });
                    iteration_ms.push(took.as_secs_f64() * 1e3);
                    if workers == 1 {
                        moved += stats.moved;
                        candidates += stats.candidates;
                    }
                    if stats.moved_fraction < config.convergence_threshold {
                        break;
                    }
                }
                report.layer(&name("iteration"), median(&iteration_ms), "ms");
                if workers == 1 {
                    let positive = proposals.iter().filter(|p| p.gain > 0.0).count();
                    report.layer(
                        &format!("core.positive_share.{label}"),
                        positive as f64 / proposals.len().max(1) as f64,
                        "1",
                    );
                    report.layer(
                        &format!("core.dirty_share.{label}"),
                        dirty.iter().sum::<f64>() / dirty.len() as f64,
                        "1",
                    );
                }
            });
        }
    }
    moved as f64 / candidates.max(1) as f64
}

/// Times `enforce_balance`, the repair every partitioner's outcome goes through.
pub fn balance_repair(ctx: &Ctx, partition: Partition, epsilon: f64, report: &mut Report) {
    let mut repaired = 0;
    let ms = median_ms(|| {
        let mut p = partition.clone();
        let (moves, took) = ctx.tracer.step("core.balance_repair", ROOT, 0, |_| {
            enforce_balance(&mut p, epsilon)
        });
        repaired = moves;
        took.as_secs_f64()
    });
    report.layer("core.balance_repair_ms", ms, "ms");
    report.note("balance_repair_moves", repaired.to_string());
}

/// Communication counters of a BSP run.
pub fn report_vertex_centric(metrics: &ExecutionMetrics, report: &mut Report) {
    let skews: Vec<f64> = metrics
        .supersteps
        .iter()
        .filter(|s| s.active_vertices > 0)
        .map(|s| {
            s.max_worker_vertices as f64 * metrics.num_workers as f64 / s.active_vertices as f64
        })
        .collect();
    report.layer(
        "vertex_centric.supersteps",
        metrics.num_supersteps() as f64,
        "count",
    );
    report.layer(
        "vertex_centric.messages",
        metrics.total_messages() as f64,
        "count",
    );
    report.layer(
        "vertex_centric.remote_bytes",
        metrics.total_remote_bytes() as f64,
        "bytes",
    );
    report.layer(
        "vertex_centric.remote_fraction",
        metrics.remote_fraction(),
        "1",
    );
    report.layer(
        "vertex_centric.worker_skew",
        skews.iter().sum::<f64>() / skews.len().max(1) as f64,
        "1",
    );
}

/// The workload runs no BSP job: zero supersteps, messages and bytes.
pub fn report_vertex_centric_absent(report: &mut Report) {
    for (name, unit) in [
        ("vertex_centric.supersteps", "count"),
        ("vertex_centric.messages", "count"),
        ("vertex_centric.remote_bytes", "bytes"),
        ("vertex_centric.remote_fraction", "1"),
        ("vertex_centric.worker_skew", "1"),
    ] {
        report.layer(name, 0.0, unit);
    }
}

/// Times the pieces of a multiget one by one over the same key-sets: `ShardRouter::route`,
/// `ShardSet::execute` on shards built from the live placement, `ServingMetrics::record` and
/// `AccessTraceCollector::record`. Checks every executed value.
pub fn serving_calls(
    ctx: &Ctx,
    serving: &Serving,
    queries: &BipartiteGraph,
    traffic: &Traffic,
    report: &mut Report,
) {
    let tracer = &ctx.tracer;
    let snapshot = serving.engine.current_snapshot();
    let keysets: Vec<&[u32]> = (0..PROBE_QUERIES)
        .map(|n| queries.query_neighbors(traffic.query(n)))
        .collect();
    let n = keysets.len() as f64;
    let router = ShardRouter::new();
    let mut plans = Vec::new();
    let route_us = median_ms(|| {
        let (routed, took) = tracer.step("serving.route", ROOT, 0, |_| {
            keysets
                .iter()
                .map(|keys| router.route(&snapshot, keys))
                .collect::<Vec<_>>()
        });
        plans = routed;
        took.as_secs_f64()
    }) * 1e3
        / n;
    let plans: Vec<_> = plans.into_iter().filter_map(Result::ok).collect();
    report.check(plans.len() == keysets.len(), || {
        "routing a probe key-set failed".into()
    });

    let shards = ShardSet::build(&snapshot, EngineConfig::default().latency_model, ctx.seed);
    let mut wrong = 0u64;
    let execute_us = median_ms(|| {
        let (results, took) = tracer.step("serving.execute", ROOT, 0, |_| {
            plans
                .iter()
                .map(|plan| shards.execute(plan))
                .collect::<Vec<_>>()
        });
        wrong = results
            .iter()
            .filter(|r| match r {
                Ok(r) => r.values.iter().any(|&(k, v)| v != shp_serving::value_of(k)),
                Err(_) => true,
            })
            .count() as u64;
        took.as_secs_f64()
    }) * 1e3
        / n;
    report.checks(plans.len() as u64, wrong, || {
        format!("{wrong} probe batches returned wrong values")
    });

    let metrics = ServingMetrics::new();
    let shards_total = snapshot.num_shards();
    let record_ns = median_ms(|| {
        tracer
            .step("telemetry.record", ROOT, 0, |_| {
                for plan in &plans {
                    metrics.record(
                        plan.fanout(),
                        shards_total,
                        plan.batches.iter().map(|b| b.shard),
                        1.0,
                        0,
                    );
                }
            })
            .1
            .as_secs_f64()
    }) * 1e6
        / n;
    let collector = AccessTraceCollector::new(RESERVOIR_SLOTS, ctx.seed);
    let trace_record_ns = median_ms(|| {
        tracer
            .step("controller.trace_record", ROOT, 0, |_| {
                for keys in &keysets {
                    collector.record(keys);
                }
            })
            .1
            .as_secs_f64()
    }) * 1e6
        / n;
    report.layer("serving.route_us", route_us, "us");
    report.layer("serving.execute_us", execute_us, "us");
    report.layer("telemetry.record_ns", record_ns, "ns");
    report.layer("controller.trace_record_ns", trace_record_ns, "ns");
    let total = route_us + execute_us + (record_ns + trace_record_ns) / 1e3;
    report.layer("multiget.route_share", route_us / total, "1");
    report.layer("multiget.execute_share", execute_us / total, "1");
    report.layer(
        "multiget.record_share",
        (record_ns + trace_record_ns) / 1e3 / total,
        "1",
    );
}

/// Self time of each layer's spans, their shares, and the tracing overhead.
pub fn self_times(ctx: &Ctx, overhead: f64, report: &mut Report) {
    let by_layer = ctx.tracer.self_ms_by_layer();
    let total: f64 = by_layer.values().sum();
    for layer in LAYERS {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        report.layer(&format!("self_ms.{layer}"), ms, "ms");
        report.layer(&format!("self_share.{layer}"), ms / total, "1");
    }
    report.layer("trace.overhead", overhead, "1");
}

//! Micro-benchmark: one full refinement iteration of Algorithm 1 (gains + swap coordination +
//! move application), comparing the basic matrix and the advanced histogram swap strategies —
//! plus the hot-path trajectory section: the optimized pipeline (dense scratch kernel +
//! dirty-vertex active set) against the legacy pipeline (hash-map kernel + full rescan) at
//! k = 64 on the power-law graph, single worker, with bit-identity asserted before timing.
//!
//! Headline numbers (ops/s, ns/vertex, allocation proxy, speedups) are written to
//! `BENCH_refinement.json` at the repository root; `--quick` runs the same measurements and
//! assertions with minimal sample counts (the CI smoke job).

mod support;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_bench::bench_json;
use shp_core::{
    BalanceMode, GainKernel, NeighborData, Objective, Refiner, SwapStrategy, TargetConstraint,
};
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::{BipartiteGraph, Partition};
use shp_telemetry::json::Json;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

fn bench_refinement(c: &mut Criterion) {
    let graph = social_graph(&SocialGraphConfig {
        num_users: 5_000,
        avg_degree: 15,
        ..Default::default()
    });
    let k = 8;
    let mut group = c.benchmark_group("refinement_iteration");
    group.sample_size(10);
    for strategy in [SwapStrategy::Matrix, SwapStrategy::Histogram] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter_batched(
                    || {
                        let mut rng = Pcg64::seed_from_u64(1);
                        let partition = Partition::new_random(&graph, k, &mut rng).unwrap();
                        let nd = NeighborData::build(&graph, &partition);
                        (partition, nd)
                    },
                    |(mut partition, mut nd)| {
                        let refiner = make_refiner(&graph, k, strategy, true, GainKernel::Scratch);
                        refiner.run_iteration(&mut partition, &mut nd, 0)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn make_refiner(
    graph: &BipartiteGraph,
    k: u32,
    strategy: SwapStrategy,
    dirty_set: bool,
    kernel: GainKernel,
) -> Refiner<'_> {
    Refiner::new(
        graph,
        Objective::PFanout { p: 0.5 },
        TargetConstraint::all(k),
        strategy,
        BalanceMode::Expectation,
        false,
        0.05,
        1,
    )
    .with_dirty_set(dirty_set)
    .with_kernel(kernel)
}

/// Runs `iterations` refinement iterations from the seeded random partition with the given
/// pipeline flavor, returning the final partition and per-iteration fingerprints.
fn run_pipeline(
    graph: &BipartiteGraph,
    k: u32,
    iterations: usize,
    dirty_set: bool,
    kernel: GainKernel,
) -> (Partition, Vec<(usize, u64, u64)>) {
    let mut rng = Pcg64::seed_from_u64(1);
    let mut partition = Partition::new_random(graph, k, &mut rng).unwrap();
    let mut nd = NeighborData::build(graph, &partition);
    let refiner = make_refiner(graph, k, SwapStrategy::Histogram, dirty_set, kernel);
    let history = refiner.run(&mut partition, &mut nd, iterations, 0.0);
    let stats = history
        .iter()
        .map(|s| (s.moved, s.applied_gain.to_bits(), s.fanout_after.to_bits()))
        .collect();
    (partition, stats)
}

/// The trajectory section: k = 64 on the power-law graph, single worker — so the measured win
/// is structural (kernel + dirty set), not thread count.
fn hot_path_trajectory() {
    const K: u32 = 64;
    const RUN_ITERATIONS: usize = 12;
    let graph = support::bench_power_law();
    let n = graph.num_data();

    // Correctness gate (the CI smoke job relies on this panicking on regression): the
    // optimized pipeline must reproduce the legacy pipeline bit-for-bit.
    let (p_new, s_new) = run_pipeline(&graph, K, RUN_ITERATIONS, true, GainKernel::Scratch);
    let (p_old, s_old) = run_pipeline(&graph, K, RUN_ITERATIONS, false, GainKernel::LegacyHashMap);
    assert_eq!(
        p_new, p_old,
        "scratch+dirty pipeline diverged from legacy full-rescan pipeline"
    );
    assert_eq!(
        s_new, s_old,
        "iteration stats diverged from legacy pipeline"
    );

    let rounds = support::rounds();
    let single = |kernel: GainKernel, dirty: bool| {
        support::measure(
            rounds,
            || {
                let mut rng = Pcg64::seed_from_u64(1);
                let partition = Partition::new_random(&graph, K, &mut rng).unwrap();
                let nd = NeighborData::build(&graph, &partition);
                (partition, nd)
            },
            |(mut partition, mut nd)| {
                let refiner = make_refiner(&graph, K, SwapStrategy::Histogram, dirty, kernel);
                refiner.run_iteration(&mut partition, &mut nd, 0);
            },
        )
    };
    let single_scratch = single(GainKernel::Scratch, true);
    let single_legacy = single(GainKernel::LegacyHashMap, false);

    let full_run = |kernel: GainKernel, dirty: bool| {
        support::measure(
            rounds,
            || (),
            |()| {
                let _ = run_pipeline(&graph, K, RUN_ITERATIONS, dirty, kernel);
            },
        )
    };
    let run_scratch = full_run(GainKernel::Scratch, true);
    let run_legacy = full_run(GainKernel::LegacyHashMap, false);

    let speedup_single = single_legacy.secs_per_op / single_scratch.secs_per_op;
    let speedup_run = run_legacy.secs_per_op / run_scratch.secs_per_op;
    println!(
        "refinement_iteration/power_law_k64_w1: scratch {:.2} ms vs legacy {:.2} ms \
         ({speedup_single:.2}x); {RUN_ITERATIONS}-iteration run: {:.2} ms vs {:.2} ms \
         ({speedup_run:.2}x)",
        single_scratch.secs_per_op * 1e3,
        single_legacy.secs_per_op * 1e3,
        run_scratch.secs_per_op * 1e3,
        run_legacy.secs_per_op * 1e3,
    );

    let rows = vec![
        (
            "power_law_k64_w1_iteration_scratch_dirty".to_string(),
            bench_json::render_metrics(&single_scratch.metrics(n)),
        ),
        (
            "power_law_k64_w1_iteration_legacy_rescan".to_string(),
            bench_json::render_metrics(&single_legacy.metrics(n)),
        ),
        (
            format!("power_law_k64_w1_run{RUN_ITERATIONS}_scratch_dirty"),
            bench_json::render_metrics(&run_scratch.metrics(n * RUN_ITERATIONS)),
        ),
        (
            format!("power_law_k64_w1_run{RUN_ITERATIONS}_legacy_rescan"),
            bench_json::render_metrics(&run_legacy.metrics(n * RUN_ITERATIONS)),
        ),
        (
            "speedup_single_iteration".to_string(),
            bench_json::render_number(speedup_single),
        ),
        (
            "speedup_full_run".to_string(),
            bench_json::render_number(speedup_run),
        ),
    ];
    let path = bench_json::repo_root().join(bench_json::BENCH_JSON_NAME);
    bench_json::update_section(&path, "refinement_iteration", Json::object(rows))
        .expect("write BENCH_refinement.json");
    println!(
        "refinement_iteration: trajectory written to {}",
        path.display()
    );
}

criterion_group!(benches, bench_refinement);

fn main() {
    benches();
    hot_path_trajectory();
}

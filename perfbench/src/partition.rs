//! The partitioning workloads, `bisect` (SHP-2 in process) and `bsp` (SHP on the
//! vertex-centric engine): open the generated graph, partition it, write the partition file,
//! then serve the graph's queries from the partition.

use crate::serve;
use crate::stats::median;
use crate::trace::ROOT;
use crate::{probe, Ctx, Report, WORKERS};
use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionOutcome, PartitionSpec};
use shp_core::{partition_distributed, partition_recursive, ObjectiveKind, PartitionMode};
use shp_datagen::{Dataset, PowerLawStream};
use shp_hypergraph::io::{
    map_shpb_file, read_partition_file, read_shpb_file, stream_shpb_file, write_partition_file,
};
use shp_hypergraph::{average_fanout, BipartiteGraph};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Allowed imbalance of every partition.
pub const EPSILON: f64 = 0.05;
/// Partitioner seed: the `shp partition` default, so the CLI check needs no extra flag.
pub const PARTITION_SEED: u64 = 0x5047;

pub struct PartitionWorkload {
    pub dataset: Dataset,
    pub scale: f64,
    pub quick_scale: f64,
    pub k: u32,
    /// Registry name of the algorithm.
    pub algorithm: &'static str,
    /// Open the `.shpb` file memory-mapped (`map_shpb_file`) instead of reading it onto the
    /// heap (`read_shpb_file`).
    pub mapped: bool,
    /// Check the fanout against what `shp partition` prints for the same file.
    pub cli_check: bool,
}

/// SHP-2 at k=64 on a web-Stanford-shaped graph (63k queries × 70k data at scale 0.25).
pub const BISECT: PartitionWorkload = PartitionWorkload {
    dataset: Dataset::WebStanford,
    scale: 0.25,
    quick_scale: 0.02,
    k: 64,
    algorithm: "shp2",
    mapped: true,
    cli_check: true,
};

/// The BSP formulation at k=16 on an email-Enron-shaped graph (25k queries × 37k data).
pub const BSP: PartitionWorkload = PartitionWorkload {
    dataset: Dataset::EmailEnron,
    scale: 1.0,
    quick_scale: 0.1,
    k: 16,
    algorithm: "distributed",
    mapped: false,
    cli_check: false,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// The serving windows between repetitions run a controller epoch every this many
/// multigets.
const EPOCH_EVERY: u64 = 100_000;

pub fn spec(k: u32) -> PartitionSpec {
    PartitionSpec::new(k)
        .with_objective(ObjectiveKind::ProbabilisticFanout { p: 0.5 })
        .with_epsilon(EPSILON)
        .with_seed(PARTITION_SEED)
        .with_workers(WORKERS)
}

/// Stream-generates `dataset` at `scale` from the run's seed into a `.shpb` file.
pub fn generate(
    ctx: &Ctx,
    dataset: Dataset,
    scale: f64,
    path: &Path,
    parent: u64,
    op: u64,
) -> Result<Duration, String> {
    let config = dataset
        .power_law_config(scale, ctx.seed)
        .ok_or("dataset is not stream-generated")?;
    let (written, took) = ctx.tracer.step("datagen.stream_generate", parent, op, |_| {
        stream_shpb_file(&mut PowerLawStream::new(config), path)
    });
    written.map_err(|e| format!("generating {}: {e}", path.display()))?;
    Ok(took)
}

pub fn open(
    ctx: &Ctx,
    mapped: bool,
    path: &Path,
    parent: u64,
    op: u64,
) -> Result<(BipartiteGraph, Duration), String> {
    let (graph, took) = if mapped {
        ctx.tracer
            .step("hypergraph.map_shpb", parent, op, |_| map_shpb_file(path))
    } else {
        ctx.tracer
            .step("hypergraph.read_shpb", parent, op, |_| read_shpb_file(path))
    };
    Ok((
        graph.map_err(|e| format!("opening {}: {e}", path.display()))?,
        took,
    ))
}

/// Checks a written partition file: it assigns every data vertex, has `k` non-empty buckets
/// within the ε capacity, equals the returned partition, and has the reported fanout.
fn check_partition(
    graph: &BipartiteGraph,
    k: u32,
    path: &Path,
    outcome: &PartitionOutcome,
) -> Result<(), String> {
    let written = read_partition_file(graph, k, path).map_err(|e| format!("re-reading: {e}"))?;
    if written.num_buckets() != k || (0..k).any(|b| written.bucket_weight(b) == 0) {
        return Err(format!("expected {k} non-empty buckets"));
    }
    if !written.is_balanced(EPSILON) {
        return Err(format!(
            "imbalance {} exceeds the ε={EPSILON} capacity",
            written.imbalance()
        ));
    }
    if written.assignment() != outcome.partition.assignment() {
        return Err("written partition differs from the returned one".into());
    }
    let fanout = average_fanout(graph, &written);
    if fanout != outcome.fanout {
        return Err(format!(
            "fanout {fanout} of the file, {} reported",
            outcome.fanout
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, w: &PartitionWorkload, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let scale = if ctx.quick { w.quick_scale } else { w.scale };
    let graph_path = ctx.work.join("graph.shpb");
    let part_path = ctx.work.join("graph.part");

    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    for rep in 0..if ctx.quick { 2 } else { SETUP_REPS } {
        let (generated, took) = tracer.step("bench.setup", ROOT, rep as u64, |id| {
            let gen = generate(ctx, w.dataset, scale, &graph_path, id, rep as u64)?;
            open(ctx, w.mapped, &graph_path, id, rep as u64)?;
            Ok::<_, String>(gen)
        });
        generate_s.push(generated?.as_secs_f64());
        setups.push(took.as_secs_f64());
    }
    let registry = AlgorithmRegistry::core();
    let spec = spec(w.k);

    // Timed repetitions: open → partition → write, each followed by one serving window on
    // the partition, so that both sample the whole run. A traced run records spans on every
    // other repetition, so the rest measure the tracing overhead.
    let min_reps = if ctx.quick { 2 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let epoch_every = if ctx.quick {
        EPOCH_EVERY / 10
    } else {
        EPOCH_EVERY
    };
    let mut live: Option<(serve::Serving, serve::Served)> = None;
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut open_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut refinement_ns = 0u64;
    let mut last: Option<(BipartiteGraph, PartitionOutcome)> = None;
    let mut rep = 0u64;
    while rep < min_reps || Instant::now() < deadline {
        tracer.set_recording(rep.is_multiple_of(2));
        let iterations_before = refinement_iteration_ns();
        let (result, took) = tracer.step("bench.partition", ROOT, rep, |id| {
            let (graph, opened) = open(ctx, w.mapped, &graph_path, id, rep)?;
            let (outcome, _) = tracer.step("core.registry_run", id, rep, |_| {
                registry.run(w.algorithm, &graph, &spec, &mut NoopObserver)
            });
            let outcome = outcome.map_err(|e| format!("partitioning: {e}"))?;
            let (written, wrote) = tracer.step("hypergraph.write_partition", id, rep, |_| {
                write_partition_file(&outcome.partition, &part_path)
            });
            written.map_err(|e| format!("writing the partition: {e}"))?;
            Ok::<_, String>((graph, outcome, opened, wrote))
        });
        let (graph, outcome, opened, wrote) = result?;
        refinement_ns += refinement_iteration_ns() - iterations_before;
        if tracer.recording() {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(took.as_secs_f64());
        open_ms.push(opened.as_secs_f64() * 1e3);
        write_ms.push(wrote.as_secs_f64() * 1e3);

        let (checked, _) = tracer.step("bench.check_partition", ROOT, rep, |_| {
            check_partition(&graph, w.k, &part_path, &outcome)
        });
        report.check(checked.is_ok(), || {
            format!("partition {rep}: {}", checked.unwrap_err())
        });
        if let Some((_, previous)) = &last {
            report.check(previous.fanout == outcome.fanout, || {
                format!(
                    "fanout {} differs from the previous repetition's {}",
                    outcome.fanout, previous.fanout
                )
            });
        }
        if live.is_none() {
            let serving = serve::Serving::build(&outcome.partition, ctx.seed)?;
            let traffic = serve::Traffic::new(&graph, ctx.seed)?;
            let served = serve::Served::start(&serving, &graph, traffic, 0)?;
            live = Some((serving, served));
        }
        let (serving, served) = live.as_mut().expect("built above");
        serve::serve_loop(
            ctx,
            serving,
            &graph,
            serve::WINDOW,
            epoch_every,
            served,
            report,
        );
        last = Some((graph, outcome));
        rep += 1;
    }
    tracer.set_recording(true);
    let (graph, outcome) = last.expect("at least one repetition ran");
    let all_s: Vec<f64> = traced_s.iter().chain(&untraced_s).copied().collect();
    report.note("partition_samples", all_s.len().to_string());
    report.note("partition_max_s", crate::stats::max(&all_s).to_string());
    report.e2e("setup_s", median(&setups), "s");
    report.e2e("partition_s", median(&all_s), "s");
    report.e2e("fanout", outcome.fanout, "1");

    if w.cli_check {
        let (checked, _) = tracer.step("bench.cli_check", ROOT, 0, |_| {
            cli_check(ctx, w, &graph_path, &part_path, &outcome)
        });
        report.check(checked.is_ok(), || {
            format!("shp partition check: {}", checked.unwrap_err())
        });
    }

    let (serving, served) = live.expect("at least one repetition ran");
    serve::report_serving(&serving, &served, report);

    if !tracer.enabled() {
        return Ok(());
    }
    report.layer("datagen.stream_generate_s", median(&generate_s), "s");
    let other = open(ctx, !w.mapped, &graph_path, ROOT, 0)?.1.as_secs_f64() * 1e3;
    let opened = median(&open_ms);
    let (map_ms, read_ms) = if w.mapped {
        (opened, other)
    } else {
        (other, opened)
    };
    report.layer("hypergraph.map_shpb_ms", map_ms, "ms");
    report.layer("hypergraph.read_shpb_ms", read_ms, "ms");
    report.layer("hypergraph.write_partition_ms", median(&write_ms), "ms");
    let overhead = median(&traced_s) / median(&untraced_s) - 1.0;

    // One more run of the underlying entry point exposes what the registry's outcome does
    // not: the per-iteration history, the partition before balance repair, and (for BSP)
    // the engine's communication counters.
    let config = spec.shp_config(PartitionMode::recursive_bisection());
    let (pre_repair, iterations, moved_per_candidate, refinement_share) =
        if w.algorithm == "distributed" {
            let (run, _) = tracer.step("core.partition_distributed", ROOT, 0, |_| {
                partition_distributed(&graph, &config, WORKERS)
            });
            let run = run.map_err(|e| format!("partition_distributed: {e}"))?;
            probe::report_vertex_centric(&run.metrics, report);
            let share = run.metrics.total_duration().as_secs_f64() / run.elapsed.as_secs_f64();
            (run.partition, run.history.len(), None, share)
        } else {
            let (run, _) = tracer.step("core.partition_recursive", ROOT, 0, |_| {
                partition_recursive(&graph, &config)
            });
            let run = run.map_err(|e| format!("partition_recursive: {e}"))?;
            probe::report_vertex_centric_absent(report);
            let moved: usize = run.report.history.iter().map(|s| s.moved).sum();
            let candidates: usize = run.report.history.iter().map(|s| s.candidates).sum();
            let share = refinement_ns as f64 / 1e9 / all_s.iter().sum::<f64>();
            (
                run.partition,
                run.report.total_iterations(),
                Some(moved as f64 / candidates as f64),
                share,
            )
        };
    report.layer("core.iterations", iterations as f64, "count");
    report.layer("core.refinement_share", refinement_share, "1");
    let levels = probe::bisection_levels(&graph, &outcome.partition, &config);
    let probed_moved_per_candidate = probe::core_levels(ctx, &graph, &levels, &config, report);
    report.layer(
        "core.moved_per_candidate",
        moved_per_candidate.unwrap_or(probed_moved_per_candidate),
        "1",
    );
    probe::balance_repair(ctx, pre_repair, EPSILON, report);
    serve::report_serving_layers(ctx, &serving, &graph, &served, report);
    probe::self_times(ctx, overhead, report);
    Ok(())
}

/// Total nanoseconds the program's own telemetry has recorded in refinement iterations.
fn refinement_iteration_ns() -> u64 {
    shp_telemetry::global()
        .snapshot()
        .spans
        .get("partition/refinement/iteration")
        .map_or(0, |s| s.total_ns)
}

/// Runs `shp partition` on the same file with the same settings and checks that it prints
/// the same fanout and writes the same partition.
fn cli_check(
    ctx: &Ctx,
    w: &PartitionWorkload,
    graph_path: &Path,
    part_path: &Path,
    outcome: &PartitionOutcome,
) -> Result<(), String> {
    let shp = ctx.shp.as_ref().ok_or("no --shp binary given")?;
    let cli_part = ctx.work.join("cli.part");
    let output = Command::new(shp)
        .arg("partition")
        .arg(graph_path)
        .arg(w.k.to_string())
        .arg(&cli_part)
        .args(["--mode", w.algorithm, "--workers", &WORKERS.to_string()])
        .args([
            "--epsilon",
            &EPSILON.to_string(),
            "--seed",
            &PARTITION_SEED.to_string(),
        ])
        .args(["--p", "0.5", "--json"])
        .args(w.mapped.then_some("--mmap"))
        .output()
        .map_err(|e| format!("running {}: {e}", shp.display()))?;
    if !output.status.success() {
        return Err(format!(
            "exit status {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let printed = stdout
        .split("\"fanout\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .ok_or_else(|| format!("no fanout in {stdout:?}"))?;
    let ours = format!("{:.6}", outcome.fanout);
    if printed != ours {
        return Err(format!(
            "CLI printed fanout {printed}, benchmark measured {ours}"
        ));
    }
    let same_file = std::fs::read(&cli_part).map_err(|e| e.to_string())?
        == std::fs::read(part_path).map_err(|e| e.to_string())?;
    if !same_file {
        return Err("CLI wrote a different partition".into());
    }
    Ok(())
}

//! `shp` — command-line interface for the Social Hash Partitioner.
//!
//! Subcommands:
//!
//! * `generate <dataset> <scale> <output>` — synthesize a Table-1 dataset stand-in and
//!   write it in the format the output's extension names (hMetis when it names none). With
//!   `--stream` (power-law datasets, `.shpb` output) the
//!   graph is streamed to the container in bounded memory without ever being materialized.
//! * `algorithms` — list every partitioning algorithm registered in the workspace registry.
//! * `convert <input> <output> [--from <fmt>] [--to <fmt>] [--workers <n>]` — convert a
//!   graph between the edge-list, hMetis, and `.shpb` compact binary formats, with format
//!   autodetection by extension and contents (`shp convert --help` spells out the rules).
//! * `partition <input> <k> <output.part> [--mode <algorithm>] [--p <p>] [--epsilon <eps>]
//!   [--seed <seed>] [--iterations <n>] [--workers <n>] [--json]` — partition a graph file
//!   (any supported format, autodetected — a `.shpb` input skips parsing entirely) with
//!   **any registered algorithm** (SHP or baseline) and write the bucket of every vertex;
//!   `--json` emits the full `PartitionOutcome`. `--workers` sets the number of real threads
//!   driving both the text parse and the refinement hot paths — the output is bit-identical
//!   for every worker count (see the determinism contract in `shp-core`), only the
//!   wall-clock time changes.
//! * `evaluate <input> <partition.part> <k> [--json]` — report fanout, p-fanout, hyperedge
//!   cut, and imbalance of an existing partition (any graph format).
//! * `replay [options]` — drive a synthetic open-loop multiget workload through the
//!   `shp-serving` engine under a random and an SHP partition and compare mean fanout,
//!   latency percentiles, and shard load skew. `--graph <file>` serves a graph loaded from
//!   disk instead of a generated dataset.
//! * `serve [options]` — start serving, compute an SHP repartition in the background through
//!   the unified registry, and warm-start it *live* mid-run. `--graph <file>` (ideally a
//!   `.shpb` snapshot) plus `--partition <file>` warm-start serving from on-disk artifacts:
//!   the engine opens on the saved placement instead of a random one.
//!   `--repartition-every <n>` switches to closed-loop *online* repartitioning: a bounded
//!   trace collector rides the multiget hot path, and a controller thread re-partitions the
//!   live engine from the observed co-access graph every n served multigets, moving at most
//!   `--migration-budget <m>` keys per epoch (delta install, no full-map clone).
//! * `controller [options]` — run the hours-compressed drift scenario from `shp-controller`:
//!   key popularity rotates phase over phase, a never-repartition baseline decays, and the
//!   budgeted controller recovers fanout. Prints per-phase fanout/latency and the migration
//!   volume; `--json` emits the report machine-readably.
//! * `drill [options]` — run the kill → degrade → recover failure drill from
//!   `shp-controller`: a replicated engine serves through a scripted shard crash and a slow
//!   replica (failover + hedging keep availability ≥ 99%), an unreplicated leg degrades to
//!   precise typed partial results, and the controller drains the dead shard within the
//!   migration budget. Exits nonzero if any drill gate fails; `--json` emits the report
//!   machine-readably.
//! * `metrics <snapshot.json> [--prometheus]` — pretty-print a telemetry snapshot written by
//!   `--metrics`, or re-emit it in Prometheus text exposition format.
//!
//! `partition`, `replay`, and `serve` accept `--metrics <file>`: the run's telemetry —
//! counters, phase spans, latency/fanout histograms, and hot keys from `shp-telemetry` — is
//! exported as a JSON snapshot (or Prometheus text when the path ends in `.prom`). `replay`
//! and `serve` rewrite the file roughly once a second while the workload runs, so a live run
//! can be scraped mid-flight; the final write supersedes every periodic one.
//!
//! Every failure path is a typed [`ShpError`]; `?` composes from file parsing through
//! partitioning to the serving engine without a single stringly-typed error.
//!
//! The hMetis format is the one exchanged by hMetis/PaToH/Mondriaan/Parkway/Zoltan, so
//! partitions can be compared against other tools directly.

use shp_baselines::{full_registry, RandomPartitioner};
use shp_controller::{
    run_drift_scenario, run_drill_scenario_with_telemetry, AccessTraceCollector, ControllerConfig,
    DriftConfig, DriftReport, DrillConfig, DrillReport, RepartitionController,
};
use shp_core::api::{AlgorithmRegistry, NoopObserver, PartitionOutcome, PartitionSpec};
use shp_core::{ObjectiveKind, ShpError, ShpResult};
use shp_datagen::Dataset;
use shp_hypergraph::io::GraphFormat;
use shp_hypergraph::{
    average_fanout, average_p_fanout, hyperedge_cut, io, BipartiteGraph, GraphStats,
};
use shp_serving::{open_loop_schedule, EngineConfig, ServingEngine, WorkloadConfig, WorkloadEvent};
use shp_telemetry::export::write_atomically;
use shp_telemetry::json::Json;
use shp_telemetry::Snapshot;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("algorithms") => cmd_algorithms(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("controller") => cmd_controller(&args[1..]),
        Some("drill") => cmd_drill(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  shp generate <dataset> <scale> <output>
  shp generate <dataset> <scale> <output.shpb> --stream
  shp algorithms
  shp convert <input> <output> [--from <format>] [--to <format>] [--workers <n>]
  shp partition <input> <k> <output.part> [--mode <algorithm>] [--p <p>] [--epsilon <eps>]
                [--seed <seed>] [--iterations <n>] [--workers <n>] [--metrics <file>]
                [--json] [--mmap]
  shp evaluate <input> <partition.part> <k> [--json]
  shp replay [--dataset <name> | --graph <file>] [--scale <s>] [--shards <k>] [--rate <r>]
             [--duration <d>] [--clients <n>] [--cache <capacity>] [--seed <seed>]
             [--workers <n>] [--metrics <file>] [--mmap]
  shp serve  [--dataset <name> | --graph <file>] [--partition <file>] [--scale <s>]
             [--shards <k>] [--rate <r>] [--duration <d>] [--clients <n>]
             [--cache <capacity>] [--seed <seed>] [--workers <n>] [--metrics <file>]
             [--repartition-every <n>] [--migration-budget <m>] [--mmap]
  shp controller [--quick] [--phases <n>] [--every <n>] [--budget <m>] [--seed <seed>]
             [--json]
  shp drill  [--quick] [--budget <m>] [--replication <r>] [--seed <seed>] [--json]
             [--metrics <file>]
  shp metrics <snapshot.json> [--prometheus]

`shp algorithms` lists the names accepted by --mode. Graph inputs may be edge-list, hMetis,
or .shpb binary files (autodetected; see `shp convert --help`).
`shp generate` picks the output format from the extension (hMetis when it names none);
`shp generate --stream` writes a power-law dataset straight to a .shpb container in bounded
memory (byte-identical to materializing, but the graph never exists in RAM); --mmap serves
partition/replay/serve from a memory-mapped .shpb instead of loading it onto the heap.
--metrics exports the run's telemetry snapshot: JSON by default, Prometheus text exposition
format when the path ends in .prom; `shp metrics <file>` pretty-prints a JSON snapshot.
--repartition-every closes the serve->observe->repartition loop online: one controller epoch
per n served multigets, each moving at most --migration-budget keys (default 256).
`shp controller` runs the drift scenario against a never-repartition baseline.
`shp drill` runs the kill -> degrade -> recover failure drill: a replicated engine serves
through a scripted shard crash (failover keeps availability >= 99%), an unreplicated leg
degrades to typed partial results, and the controller drains the dead shard within budget.
datasets: email-Enron soc-Epinions web-Stanford web-BerkStan soc-Pokec soc-LJ FB-10M FB-50M FB-2B FB-5B FB-10B";

const CONVERT_HELP: &str =
    "usage: shp convert <input> <output> [--from <format>] [--to <format>] [--workers <n>]

Converts a graph between the three supported formats, losslessly:
  edgelist  plain text, one `query_id<TAB>data_id` pair per line, `#` comments
  hmetis    hMetis hypergraph text format (header `|Q| |D|`, one hyperedge per line)
  shpb      compact binary container (checksummed header + raw CSR sections);
            loads an order of magnitude faster than text — ideal for warm starts

Format autodetection, in order of precedence:
  1. an explicit --from / --to flag always wins;
  2. the file extension:  .shpb -> shpb;  .hgr .hmetis .graph -> hmetis;
     .txt .tsv .edges .edgelist .el -> edgelist;
  3. (inputs only) the contents: the `SHPB` magic -> shpb; a first non-blank
     byte of `#` -> edgelist; anything else -> hmetis.
The output format must be resolvable from the extension or --to.

--workers <n> parses text inputs with n threads (the result is bit-identical
for every worker count).

Caveat: an edge list stores only the edges, so queries with no pins and
trailing isolated data vertices are not representable in it; hmetis and shpb
round-trip every graph exactly (shpb including data weights).";

fn usage_error(message: impl Into<String>) -> ShpError {
    ShpError::InvalidArgument(format!("{}\n{USAGE}", message.into()))
}

/// Writes a telemetry snapshot to `path`, atomically so a concurrent reader never sees a
/// partial file: Prometheus text exposition format when the path ends in `.prom`, JSON
/// otherwise.
fn write_metrics_file(path: &str, snapshot: &Snapshot) -> ShpResult<()> {
    let body = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json()
    };
    write_atomically(std::path::Path::new(path), body.as_bytes())
        .map_err(|error| ShpError::Runtime(format!("cannot write metrics file {path:?}: {error}")))
}

/// The snapshotter polls the stop flag every tick and rewrites the `--metrics` file every
/// [`TICKS_PER_SNAPSHOT`] ticks (~1 s), so a finished run never waits a full period to exit.
const METRICS_TICK: Duration = Duration::from_millis(25);
const TICKS_PER_SNAPSHOT: u32 = 40;

/// Runs `body` while a background thread rewrites `path` with a fresh snapshot roughly once a
/// second (no thread, no writes when `path` is `None`). Mid-run write failures are tolerated —
/// the caller's final write after the run is the one that reports errors.
fn with_periodic_snapshots<T>(
    path: Option<&str>,
    snapshot_now: &(dyn Fn() -> Snapshot + Sync),
    body: impl FnOnce() -> ShpResult<T>,
) -> ShpResult<T> {
    let Some(path) = path else { return body() };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut ticks = 0u32;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(METRICS_TICK);
                ticks += 1;
                if ticks >= TICKS_PER_SNAPSHOT {
                    ticks = 0;
                    let _ = write_metrics_file(path, &snapshot_now());
                }
            }
        });
        let result = body();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("metrics snapshot thread panicked");
        result
    })
}

fn cmd_metrics(args: &[String]) -> ShpResult<()> {
    let (path, prometheus) = match args {
        [path] => (path, false),
        [path, flag] if flag == "--prometheus" => (path, true),
        _ => return Err(usage_error("metrics needs a snapshot file")),
    };
    let text = std::fs::read_to_string(path)
        .map_err(|error| ShpError::InvalidArgument(format!("cannot read {path:?}: {error}")))?;
    let snapshot = Snapshot::from_json(&text)
        .map_err(|error| ShpError::InvalidArgument(format!("{path}: {error}")))?;
    if prometheus {
        print!("{}", snapshot.to_prometheus());
        return Ok(());
    }
    println!("telemetry snapshot {path} (schema v{})", snapshot.version);
    if !snapshot.counters.is_empty() {
        println!("\ncounters:");
        for (name, value) in &snapshot.counters {
            println!("  {name:<44} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        println!("\ngauges:");
        for (name, value) in &snapshot.gauges {
            println!("  {name:<44} {value:>12.4}");
        }
    }
    if !snapshot.histograms.is_empty() {
        println!(
            "\nhistograms:{:36}{:>9} {:>11} {:>11} {:>11} {:>11}",
            "", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &snapshot.histograms {
            println!(
                "  {name:<44} {:>9} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            );
        }
    }
    if !snapshot.spans.is_empty() {
        println!(
            "\nspans:{:41}{:>9} {:>13} {:>13}",
            "", "count", "total ms", "max ms"
        );
        for (name, s) in &snapshot.spans {
            println!(
                "  {name:<44} {:>9} {:>13.3} {:>13.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6
            );
        }
    }
    if !snapshot.top_keys.is_empty() {
        println!("\nhot keys:");
        for (name, keys) in &snapshot.top_keys {
            let rendered: Vec<String> = keys
                .entries
                .iter()
                .take(8)
                .map(|(key, count)| format!("{key}x{count}"))
                .collect();
            println!("  {name:<44} {}", rendered.join("  "));
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> ShpResult<()> {
    let (name, scale, output, stream) = match args {
        [name, scale, output] => (name, scale, output, false),
        [name, scale, output, flag] if flag == "--stream" => (name, scale, output, true),
        _ => {
            return Err(usage_error(
                "generate needs 3 arguments (plus optional --stream)",
            ))
        }
    };
    let dataset = Dataset::from_name(name)
        .ok_or_else(|| ShpError::InvalidArgument(format!("unknown dataset {name:?}")))?;
    let scale: f64 = scale
        .parse()
        .map_err(|_| ShpError::InvalidArgument(format!("invalid scale {scale:?}")))?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(ShpError::InvalidArgument("scale must lie in (0, 1]".into()));
    }
    if stream {
        // Bounded-memory path: the graph goes straight from the generator to the container,
        // byte-identical to materializing it, but it never exists in RAM.
        if GraphFormat::from_extension(output) != Some(GraphFormat::Shpb) {
            return Err(ShpError::InvalidArgument(
                "--stream writes a .shpb container: give the output a .shpb extension".into(),
            ));
        }
        let config = dataset.power_law_config(scale, 0x5047).ok_or_else(|| {
            ShpError::InvalidArgument(format!(
                "dataset {:?} uses the social generator, which needs the whole graph in \
                 memory; --stream supports only the power-law datasets \
                 (email-Enron, web-Stanford, web-BerkStan)",
                dataset.spec().name
            ))
        })?;
        let mut stream = shp_datagen::PowerLawStream::new(config);
        let stats = io::stream_shpb_file(&mut stream, std::path::Path::new(output))?;
        println!(
            "{:<16} |Q| {:>12} |D| {:>12} |E| {:>14}  (streamed, {} source passes, {} bytes)",
            dataset.spec().name,
            stats.num_queries,
            stats.num_data,
            stats.num_pins,
            stats.source_passes,
            stats.bytes_written
        );
        println!("wrote {output}");
        return Ok(());
    }
    let graph = dataset.generate(scale, 0x5047);
    let format = GraphFormat::from_extension(output).unwrap_or(GraphFormat::Hmetis);
    io::write_graph_file(&graph, output, format)?;
    println!(
        "{}",
        GraphStats::compute(&graph).table1_row(dataset.spec().name)
    );
    println!("wrote {output}");
    Ok(())
}

fn cmd_algorithms(args: &[String]) -> ShpResult<()> {
    if !args.is_empty() {
        return Err(usage_error("algorithms takes no arguments"));
    }
    let registry = full_registry();
    println!("registered partitioning algorithms (accepted by `shp partition --mode <name>`):");
    for name in registry.names() {
        println!("  {name}");
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> ShpResult<()> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{CONVERT_HELP}");
        return Ok(());
    }
    if args.len() < 2 {
        return Err(usage_error("convert needs an input and an output path"));
    }
    let input = &args[0];
    let output = &args[1];
    let mut from: Option<GraphFormat> = None;
    let mut to: Option<GraphFormat> = None;
    let mut workers = 4usize;
    let mut i = 2;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| ShpError::InvalidArgument(format!("{flag} needs a value")))?;
        match flag {
            "--from" | "--to" => {
                let format = GraphFormat::from_name(value).ok_or_else(|| {
                    ShpError::InvalidArgument(format!(
                        "unknown format {value:?} (expected edgelist, hmetis, or shpb)"
                    ))
                })?;
                if flag == "--from" {
                    from = Some(format);
                } else {
                    to = Some(format);
                }
            }
            "--workers" => {
                workers = value
                    .parse()
                    .map_err(|_| ShpError::InvalidArgument("--workers needs a number".into()))?
            }
            other => {
                return Err(ShpError::InvalidArgument(format!(
                    "unknown option {other:?}"
                )))
            }
        }
        i += 2;
    }

    // Input: explicit flag > extension > content sniffing.
    let bytes = std::fs::read(input).map_err(shp_hypergraph::GraphError::from)?;
    let input_format = from.unwrap_or_else(|| GraphFormat::detect(input, &bytes));
    let graph = match input_format {
        GraphFormat::EdgeList => io::parse_edge_list_bytes(&bytes, workers),
        GraphFormat::Hmetis => io::parse_hmetis_bytes(&bytes, workers),
        GraphFormat::Shpb => io::parse_shpb_bytes(&bytes),
    }?;

    // Output: explicit flag > extension (contents cannot be sniffed for a file that does not
    // exist yet).
    let output_format = to
        .or_else(|| GraphFormat::from_extension(output))
        .ok_or_else(|| {
            ShpError::InvalidArgument(format!(
                "cannot infer the output format of {output:?}: use a known extension or --to"
            ))
        })?;
    io::write_graph_file(&graph, output, output_format)?;
    println!(
        "converted {input} ({}) -> {output} ({}): {} queries, {} data vertices, {} pins",
        input_format.name(),
        output_format.name(),
        graph.num_queries(),
        graph.num_data(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_partition(args: &[String]) -> ShpResult<()> {
    if args.len() < 3 {
        return Err(usage_error("partition needs at least 3 arguments"));
    }
    let input = &args[0];
    let k: u32 = args[1]
        .parse()
        .map_err(|_| ShpError::InvalidArgument(format!("invalid k {:?}", args[1])))?;
    let output = &args[2];
    let mut mode = "shp2".to_string();
    let mut p = 0.5f64;
    let mut epsilon = 0.05f64;
    let mut seed = 0x5047u64;
    let mut iterations: Option<usize> = None;
    let mut workers = 4usize;
    let mut json = false;
    let mut mmap = false;
    let mut metrics: Option<String> = None;
    let mut i = 3;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--json" {
            json = true;
            i += 1;
            continue;
        }
        if flag == "--mmap" {
            mmap = true;
            i += 1;
            continue;
        }
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| ShpError::InvalidArgument(format!("{flag} needs a value")))
        };
        match flag {
            "--mode" => mode = value()?.clone(),
            "--p" => {
                p = value()?
                    .parse()
                    .map_err(|_| ShpError::InvalidArgument("--p needs a number".into()))?
            }
            "--epsilon" => {
                epsilon = value()?
                    .parse()
                    .map_err(|_| ShpError::InvalidArgument("--epsilon needs a number".into()))?
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| ShpError::InvalidArgument("--seed needs a number".into()))?
            }
            "--iterations" => {
                iterations =
                    Some(value()?.parse().map_err(|_| {
                        ShpError::InvalidArgument("--iterations needs a number".into())
                    })?)
            }
            "--workers" => {
                workers = value()?
                    .parse()
                    .map_err(|_| ShpError::InvalidArgument("--workers needs a number".into()))?
            }
            "--metrics" => metrics = Some(value()?.clone()),
            other => {
                return Err(ShpError::InvalidArgument(format!(
                    "unknown option {other:?}"
                )))
            }
        }
        i += 2;
    }

    let objective = if p >= 1.0 {
        ObjectiveKind::Fanout
    } else if p <= 0.0 {
        ObjectiveKind::CliqueNet
    } else {
        ObjectiveKind::ProbabilisticFanout { p }
    };
    let mut spec = PartitionSpec::new(k)
        .with_objective(objective)
        .with_epsilon(epsilon)
        .with_seed(seed)
        .with_workers(workers);
    if let Some(iters) = iterations {
        spec = spec.with_max_iterations(iters);
    }

    let graph = if mmap {
        // Zero-copy open: adjacency stays on disk behind borrowed views; the kernel pages in
        // only what the partitioner touches.
        io::map_shpb_file(input)?
    } else {
        io::read_graph_file_with(input, workers)?
    };
    let registry = full_registry();
    let outcome = registry.run(&mode, &graph, &spec, &mut NoopObserver)?;
    io::write_partition_file(&outcome.partition, output)?;
    if let Some(path) = metrics.as_deref() {
        // The partition phases record into the process-global registry; one snapshot after
        // the run captures parse, CSR build, levels, refinement, and balance repair.
        write_metrics_file(path, &shp_telemetry::global().snapshot())?;
        eprintln!("wrote telemetry snapshot to {path}");
    }
    if json {
        // Keep stdout machine-readable: exactly one JSON object, nothing else.
        println!("{}", outcome.to_json());
        eprintln!("wrote {output}");
    } else {
        print_outcome(&outcome);
        println!("wrote {output}");
    }
    Ok(())
}

fn print_outcome(outcome: &PartitionOutcome) {
    println!(
        "{}: fanout {:.4}  p-fanout(0.5) {:.4}  imbalance {:.4}  iterations {}  moves {}  time {:.2}s",
        outcome.algorithm,
        outcome.fanout,
        outcome.p_fanout,
        outcome.imbalance,
        outcome.iterations,
        outcome.moves,
        outcome.elapsed.as_secs_f64()
    );
}

fn cmd_evaluate(args: &[String]) -> ShpResult<()> {
    let (positional, json) = match args {
        [a, b, c] => ([a, b, c], false),
        [a, b, c, flag] if flag == "--json" => ([a, b, c], true),
        _ => return Err(usage_error("evaluate needs 3 arguments")),
    };
    let [input, partition_path, k] = positional;
    let k: u32 = k
        .parse()
        .map_err(|_| ShpError::InvalidArgument(format!("invalid k {k:?}")))?;
    let graph = io::read_graph_file(input)?;
    let partition = io::read_partition_file(&graph, k, partition_path)?;
    let fanout = average_fanout(&graph, &partition);
    let p_fanout = average_p_fanout(&graph, &partition, 0.5);
    let cut = hyperedge_cut(&graph, &partition);
    let imbalance = partition.imbalance();
    if json {
        let report = Json::object([
            ("fanout", Json::fixed(fanout, 6)),
            ("p_fanout", Json::fixed(p_fanout, 6)),
            ("hyperedge_cut", Json::from(cut)),
            ("imbalance", Json::fixed(imbalance, 6)),
            ("num_buckets", Json::from(k)),
        ]);
        println!("{report}");
    } else {
        println!("{}", GraphStats::compute(&graph));
        println!(
            "fanout {fanout:.4}  p-fanout(0.5) {p_fanout:.4}  hyperedge-cut {cut}  imbalance {imbalance:.4}"
        );
    }
    Ok(())
}

/// Shared options of the serving subcommands.
struct ServeOptions {
    dataset: Dataset,
    /// Serve a graph loaded from this file (any supported format) instead of a generated
    /// dataset; a `.shpb` snapshot makes the warm start skip parsing entirely.
    graph: Option<String>,
    /// Warm-start serving from this partition file instead of a random placement (serve
    /// subcommand only).
    partition: Option<String>,
    scale: f64,
    shards: u32,
    rate: f64,
    duration: f64,
    clients: usize,
    cache: usize,
    seed: u64,
    workers: usize,
    /// Export the run's telemetry snapshot to this file (rewritten roughly once a second
    /// while the workload runs): JSON, or Prometheus text if the path ends in `.prom`.
    metrics: Option<String>,
    /// Online repartitioning cadence: one controller epoch every this many served multigets.
    /// 0 (the default) keeps the classic one-shot background SHP-2 warm start.
    repartition_every: usize,
    /// Per-epoch migration budget for online repartitioning (keys moved per delta install).
    migration_budget: usize,
    /// Memory-map the `--graph` file (must be a `.shpb` container) instead of loading it
    /// onto the heap: the warm start validates the header and offsets plus one checksum
    /// pass, then serves adjacency straight from the page cache.
    mmap: bool,
}

impl ServeOptions {
    fn parse(args: &[String]) -> ShpResult<Self> {
        let mut options = ServeOptions {
            dataset: Dataset::EmailEnron,
            graph: None,
            partition: None,
            scale: 0.05,
            shards: 16,
            rate: 200.0,
            duration: 60.0,
            clients: 4,
            cache: 0,
            seed: 0x5047,
            workers: 4,
            metrics: None,
            repartition_every: 0,
            migration_budget: 256,
            mmap: false,
        };
        let invalid = |message: String| ShpError::InvalidArgument(message);
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--mmap" {
                options.mmap = true;
                i += 1;
                continue;
            }
            // Recognize the flag before demanding a value, so an unknown trailing flag is
            // reported as unknown rather than as missing its (nonexistent) value.
            if !matches!(
                args[i].as_str(),
                "--dataset"
                    | "--graph"
                    | "--partition"
                    | "--scale"
                    | "--shards"
                    | "--rate"
                    | "--duration"
                    | "--clients"
                    | "--cache"
                    | "--seed"
                    | "--workers"
                    | "--metrics"
                    | "--repartition-every"
                    | "--migration-budget"
            ) {
                return Err(invalid(format!("unknown option {:?}", args[i])));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| invalid(format!("{} needs a value", args[i])))?;
            match args[i].as_str() {
                "--dataset" => {
                    options.dataset = Dataset::from_name(value)
                        .ok_or_else(|| invalid(format!("unknown dataset {value:?}")))?;
                }
                "--graph" => options.graph = Some(value.clone()),
                "--partition" => options.partition = Some(value.clone()),
                "--scale" => {
                    options.scale = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid scale {value:?}")))?;
                    if !(options.scale > 0.0 && options.scale <= 1.0) {
                        return Err(invalid("scale must lie in (0, 1]".into()));
                    }
                }
                "--shards" => {
                    options.shards = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid shard count {value:?}")))?;
                    if options.shards < 2 {
                        return Err(invalid("at least 2 shards are required".into()));
                    }
                }
                "--rate" => {
                    options.rate = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid rate {value:?}")))?;
                    if !(options.rate > 0.0 && options.rate.is_finite()) {
                        return Err(invalid("rate must be a positive number".into()));
                    }
                }
                "--duration" => {
                    options.duration = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid duration {value:?}")))?;
                    if !(options.duration > 0.0 && options.duration.is_finite()) {
                        return Err(invalid("duration must be a positive number".into()));
                    }
                }
                "--clients" => {
                    options.clients = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid client count {value:?}")))?;
                }
                "--cache" => {
                    options.cache = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid cache capacity {value:?}")))?;
                }
                "--seed" => {
                    options.seed = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid seed {value:?}")))?;
                }
                "--workers" => {
                    options.workers = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid worker count {value:?}")))?;
                    if options.workers == 0 {
                        return Err(invalid("at least 1 worker is required".into()));
                    }
                }
                "--metrics" => options.metrics = Some(value.clone()),
                "--repartition-every" => {
                    options.repartition_every = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid repartition cadence {value:?}")))?;
                }
                "--migration-budget" => {
                    options.migration_budget = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid migration budget {value:?}")))?;
                    if options.migration_budget == 0 {
                        return Err(invalid("the migration budget must be at least 1".into()));
                    }
                }
                _ => unreachable!("flag names are checked above"),
            }
            i += 2;
        }
        Ok(options)
    }

    fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            arrival_rate: self.rate,
            duration: self.duration,
            seed: self.seed,
            ..Default::default()
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            cache_capacity: self.cache,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The serving graph plus the optional on-disk placement: from `--graph` (and
    /// `--partition`) through the serving bootstrap, or a generated dataset otherwise.
    fn load_warm_start(&self) -> ShpResult<(BipartiteGraph, Option<shp_hypergraph::Partition>)> {
        match &self.graph {
            Some(path) => {
                let warm = shp_serving::load_warm_start_with(
                    path,
                    self.partition.as_ref(),
                    self.shards,
                    self.workers,
                    self.mmap,
                )?;
                Ok((warm.graph, warm.partition))
            }
            None => {
                if self.mmap {
                    return Err(ShpError::InvalidArgument(
                        "--mmap requires --graph <file.shpb> (a generated dataset has no \
                         on-disk container to map)"
                            .into(),
                    ));
                }
                if self.partition.is_some() {
                    return Err(ShpError::InvalidArgument(
                        "--partition requires --graph (a generated dataset has no saved \
                         placement)"
                            .into(),
                    ));
                }
                let graph = self
                    .dataset
                    .generate(self.scale, self.seed)
                    .filter_small_queries(2);
                Ok((graph, None))
            }
        }
    }

    fn graph_label(&self) -> String {
        match &self.graph {
            Some(path) => path.clone(),
            None => self.dataset.spec().name.to_string(),
        }
    }

    fn spec(&self) -> PartitionSpec {
        PartitionSpec::new(self.shards)
            .with_seed(self.seed)
            .with_workers(self.workers)
    }

    fn shp_outcome(
        &self,
        registry: &AlgorithmRegistry,
        graph: &BipartiteGraph,
    ) -> ShpResult<PartitionOutcome> {
        registry.run("shp2", graph, &self.spec(), &mut NoopObserver)
    }
}

fn cmd_replay(args: &[String]) -> ShpResult<()> {
    let options = ServeOptions::parse(args)?;
    if options.partition.is_some() {
        return Err(ShpError::InvalidArgument(
            "--partition is only meaningful for `shp serve`".into(),
        ));
    }
    if options.repartition_every != 0 {
        return Err(ShpError::InvalidArgument(
            "--repartition-every is only meaningful for `shp serve`".into(),
        ));
    }
    let (graph, _) = options.load_warm_start()?;
    println!(
        "workload: {} ({} queries, {} keys), {} shards, rate {}/t for {}t, {} clients",
        options.graph_label(),
        graph.num_queries(),
        graph.num_data(),
        options.shards,
        options.rate,
        options.duration,
        options.clients
    );

    let events = open_loop_schedule(graph.num_queries(), &options.workload());
    println!("schedule: {} multigets\n", events.len());

    let registry = full_registry();
    let random = registry.run("random", &graph, &options.spec(), &mut NoopObserver)?;
    println!("computing SHP-2 partition...");
    let shp = options.shp_outcome(&registry, &graph)?;

    let mut rows: Vec<(&str, shp_serving::ServingReport)> = Vec::new();
    // Telemetry from engines that already finished their workload, keyed by prefix; each
    // periodic snapshot folds the live engine and the process-global registry on top.
    let mut served = Snapshot::new();
    for (name, prefix, outcome) in [
        ("Random", "serving/random", &random),
        ("SHP-2", "serving/shp2", &shp),
    ] {
        let engine = ServingEngine::new(&outcome.partition, options.engine_config())?;
        let snapshot_now = || {
            let mut live = served.clone();
            live.merge(&engine.telemetry_snapshot(prefix));
            live.merge(&shp_telemetry::global().snapshot());
            live
        };
        let report = with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
            Ok(engine.run_workload(&graph, &events, options.clients)?)
        })?;
        served.merge(&engine.telemetry_snapshot(prefix));
        println!("=== {name} ===\n{report}\n");
        rows.push((name, report));
    }
    if let Some(path) = options.metrics.as_deref() {
        served.merge(&shp_telemetry::global().snapshot());
        write_metrics_file(path, &served)?;
        println!("wrote telemetry snapshot to {path}");
    }

    let (random_report, shp_report) = (&rows[0].1, &rows[1].1);
    println!(
        "SHP-2 vs Random: mean fanout {:.3} -> {:.3} ({:.1}% lower), p99 latency {:.3}t -> {:.3}t ({:.1}% lower)",
        random_report.mean_fanout,
        shp_report.mean_fanout,
        100.0 * (1.0 - shp_report.mean_fanout / random_report.mean_fanout),
        random_report.p99,
        shp_report.p99,
        100.0 * (1.0 - shp_report.p99 / random_report.p99),
    );
    if shp_report.mean_fanout >= random_report.mean_fanout {
        return Err(ShpError::Runtime(
            "SHP partition failed to lower mean fanout".into(),
        ));
    }
    if shp_report.p99 >= random_report.p99 {
        return Err(ShpError::Runtime(
            "SHP partition failed to lower p99 latency".into(),
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> ShpResult<()> {
    let options = ServeOptions::parse(args)?;
    let (graph, loaded_partition) = options.load_warm_start()?;
    let events = open_loop_schedule(graph.num_queries(), &options.workload());
    let start = match loaded_partition {
        Some(partition) => {
            println!(
                "serving {} multigets over {} keys on {} shards; warm start from the \
                 placement in {}",
                events.len(),
                graph.num_data(),
                options.shards,
                options.partition.as_deref().unwrap_or("?"),
            );
            partition
        }
        None => {
            println!(
                "serving {} multigets over {} keys on {} shards; starting from a random \
                 partition",
                events.len(),
                graph.num_data(),
                options.shards
            );
            RandomPartitioner::new(options.seed).partition_into(&graph, options.shards, 0.05)
        }
    };
    if options.repartition_every > 0 {
        return serve_online(&options, &graph, &events, &start);
    }
    let engine = ServingEngine::new(&start, options.engine_config())?;

    // Plan the repartition off the serving path, then warm-start it live once at least half of
    // the schedule has been served: the swapper thread races the concurrent clients, and every
    // in-flight multiget finishes on whichever generation it loaded.
    println!("planning SHP-2 repartition off the serving path...");
    let registry = full_registry();
    let shp = options.shp_outcome(&registry, &graph)?;
    let progress = AtomicUsize::new(0);
    let swap_at = events.len() / 2;
    let chunk = events.len().div_ceil(options.clients.max(1)).max(1);
    let snapshot_now = || {
        let mut live = engine.telemetry_snapshot("serving");
        live.merge(&shp_telemetry::global().snapshot());
        live
    };
    let outcome: ShpResult<()> =
        with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
            std::thread::scope(|scope| {
                let engine_ref = &engine;
                let graph_ref = &graph;
                let progress_ref = &progress;
                let shp_ref = &shp;
                let swapper = scope.spawn(move || -> ShpResult<u64> {
                    while progress_ref.load(Ordering::Relaxed) < swap_at {
                        std::thread::yield_now();
                    }
                    Ok(engine_ref.warm_start(shp_ref)?)
                });
                let clients: Vec<_> = events
                    .chunks(chunk)
                    .map(|slice| {
                        scope.spawn(move || -> ShpResult<()> {
                            for event in slice {
                                engine_ref.multiget(graph_ref.query_neighbors(event.query))?;
                                progress_ref.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(())
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().expect("client thread panicked")?;
                }
                let epoch = swapper.join().expect("swapper thread panicked")?;
                println!("installed SHP-2 partition live at epoch {epoch}");
                Ok(())
            })
        });
    outcome?;
    if let Some(path) = options.metrics.as_deref() {
        write_metrics_file(path, &snapshot_now())?;
        println!("wrote telemetry snapshot to {path}");
    }

    let report = engine.report();
    println!("\n{report}");
    if report.queries != events.len() as u64 {
        return Err(ShpError::Runtime(format!(
            "serving gap: only {} of {} multigets were served",
            report.queries,
            events.len()
        )));
    }
    if report.max_epoch == 0 {
        return Err(ShpError::Runtime(
            "the run finished before the repartition could be installed; \
             increase --duration or --rate so the swap lands mid-run"
                .into(),
        ));
    }
    println!(
        "\nno serving gap: all {} multigets answered across epochs {}..={}",
        report.queries, report.min_epoch, report.max_epoch
    );
    Ok(())
}

/// `shp serve --repartition-every <n>`: the closed observe→repartition loop, live.
///
/// A bounded [`AccessTraceCollector`] rides the multiget hot path as the engine's access
/// observer; a controller thread runs one [`RepartitionController`] epoch every `n` served
/// multigets, installing a budgeted delta placement while the client threads keep serving.
fn serve_online(
    options: &ServeOptions,
    graph: &BipartiteGraph,
    events: &[WorkloadEvent],
    start: &shp_hypergraph::Partition,
) -> ShpResult<()> {
    let collector = Arc::new(AccessTraceCollector::new(
        options.repartition_every.clamp(64, 4096),
        options.seed,
    ));
    let engine =
        ServingEngine::new(start, options.engine_config())?.with_access_observer(collector.clone());
    let controller = RepartitionController::new(
        collector,
        ControllerConfig {
            migration_budget: options.migration_budget,
            seed: options.seed,
            ..ControllerConfig::default()
        },
    );
    println!(
        "online repartitioning: one controller epoch every {} multigets, migration budget {} \
         keys/epoch",
        options.repartition_every, options.migration_budget
    );

    let progress = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let chunk = events.len().div_ceil(options.clients.max(1)).max(1);
    let snapshot_now = || {
        let mut live = engine.telemetry_snapshot("serving");
        live.merge(&shp_telemetry::global().snapshot());
        live
    };
    let (epochs_run, cumulative_moved, epochs_skipped) =
        with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
            std::thread::scope(|scope| {
                let engine_ref = &engine;
                let graph_ref = &graph;
                let progress_ref = &progress;
                let done_ref = &done;
                let every = options.repartition_every;
                let mut controller = controller;
                let driver = scope.spawn(move || -> (usize, usize, usize) {
                    let mut boundary = every;
                    loop {
                        while progress_ref.load(Ordering::Relaxed) < boundary {
                            if done_ref.load(Ordering::Relaxed) {
                                return (
                                    controller.epochs_run(),
                                    controller.cumulative_moved(),
                                    controller.epochs_skipped(),
                                );
                            }
                            std::thread::yield_now();
                        }
                        // A failed epoch (infeasible budget, torn trace, ...) must not tear
                        // down serving: skip it, report why, and keep the loop alive.
                        let skipped_before = controller.epochs_skipped();
                        match controller.run_epoch_or_skip(engine_ref) {
                            Some(outcome) => println!(
                                "epoch {}: moved {} keys (observed fanout {:.3} -> {:.3} over \
                                 {} multigets)",
                                outcome.epoch,
                                outcome.moved_keys,
                                outcome.fanout_before,
                                outcome.fanout_after,
                                outcome.observed_queries
                            ),
                            None if controller.epochs_skipped() > skipped_before => eprintln!(
                                "repartition epoch skipped (serving continues): {}",
                                controller.last_skip_reason().unwrap_or("unknown failure")
                            ),
                            None => {}
                        }
                        boundary += every;
                    }
                });
                let clients: Vec<_> = events
                    .chunks(chunk)
                    .map(|slice| {
                        scope.spawn(move || -> ShpResult<()> {
                            for event in slice {
                                engine_ref.multiget(graph_ref.query_neighbors(event.query))?;
                                progress_ref.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(())
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().expect("client thread panicked")?;
                }
                done.store(true, Ordering::Relaxed);
                Ok(driver.join().expect("controller thread panicked"))
            })
        })?;
    if let Some(path) = options.metrics.as_deref() {
        write_metrics_file(path, &snapshot_now())?;
        println!("wrote telemetry snapshot to {path}");
    }

    let report = engine.report();
    println!("\n{report}");
    if report.queries != events.len() as u64 {
        return Err(ShpError::Runtime(format!(
            "serving gap: only {} of {} multigets were served",
            report.queries,
            events.len()
        )));
    }
    if epochs_run == 0 {
        return Err(ShpError::Runtime(format!(
            "no controller epoch succeeded: the schedule served {} multigets at cadence {} \
             ({} epoch(s) skipped); lower --repartition-every or raise --rate/--duration",
            events.len(),
            options.repartition_every,
            epochs_skipped
        )));
    }
    println!(
        "\nonline loop closed: {} controller epoch(s) ({} skipped), {} key(s) moved in total \
         (budget {} keys/epoch), final epoch {}",
        epochs_run,
        epochs_skipped,
        cumulative_moved,
        options.migration_budget,
        engine.current_epoch()
    );
    Ok(())
}

/// Renders one scenario run as a JSON object (phase rows plus the headline totals).
fn drift_report_json(report: &DriftReport) -> Json {
    let phases = report.phases.iter().map(|p| {
        Json::object([
            ("phase", Json::from(p.phase)),
            ("mean_fanout", Json::fixed(p.mean_fanout, 6)),
            ("p99", Json::fixed(p.p99, 6)),
            ("p999", Json::fixed(p.p999, 6)),
            ("epochs", Json::from(p.epochs.len())),
            (
                "moved",
                Json::from(p.epochs.iter().map(|e| e.moved_keys).sum::<usize>()),
            ),
        ])
    });
    Json::object([
        ("phases", Json::Array(phases.collect())),
        ("cumulative_moved", Json::from(report.cumulative_moved)),
        ("migration_budget", Json::from(report.migration_budget)),
        ("max_epoch_moved", Json::from(report.max_epoch_moved)),
    ])
}

fn cmd_controller(args: &[String]) -> ShpResult<()> {
    let mut quick = false;
    let mut json = false;
    let mut phases: Option<usize> = None;
    let mut every: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--quick" || flag == "--json" {
            if flag == "--quick" {
                quick = true;
            } else {
                json = true;
            }
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| ShpError::InvalidArgument(format!("{flag} needs a value")))?;
        let parsed = |what: &str| {
            value
                .parse::<usize>()
                .map_err(|_| ShpError::InvalidArgument(format!("invalid {what} {value:?}")))
        };
        match flag {
            "--phases" => phases = Some(parsed("phase count")?),
            "--every" => every = Some(parsed("epoch cadence")?),
            "--budget" => budget = Some(parsed("migration budget")?),
            "--seed" => {
                seed =
                    Some(value.parse().map_err(|_| {
                        ShpError::InvalidArgument(format!("invalid seed {value:?}"))
                    })?)
            }
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
        i += 2;
    }

    let mut config = DriftConfig::default();
    if quick {
        config = config.quick();
    }
    if let Some(phases) = phases {
        config.phases = phases;
    }
    if let Some(every) = every {
        config.repartition_every = every;
    }
    if let Some(budget) = budget {
        config.migration_budget = budget;
    }
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if config.phases == 0 || config.repartition_every == 0 || config.migration_budget == 0 {
        return Err(ShpError::InvalidArgument(
            "--phases, --every, and --budget must all be at least 1".into(),
        ));
    }

    if !json {
        println!(
            "drift scenario: {} communities x {} keys on {} shards, {} phases x {} multigets, \
             structure shifts {} keys/phase",
            config.communities,
            config.community_size,
            config.shards,
            config.phases,
            config.queries_per_phase,
            config.shift_per_phase
        );
        println!(
            "controller: one epoch every {} multigets, migration budget {} keys/epoch\n",
            config.repartition_every, config.migration_budget
        );
    }
    let with = run_drift_scenario(&config)?;
    let baseline = run_drift_scenario(&DriftConfig {
        repartition_every: 0,
        ..config.clone()
    })?;

    if json {
        let report = Json::object([
            ("controller", drift_report_json(&with)),
            ("baseline", drift_report_json(&baseline)),
        ]);
        println!("{report}");
    } else {
        println!(
            "{:>5}  {:>17} {:>8} {:>8}  {:>15} {:>8}  {:>6} {:>6}",
            "phase",
            "controller fanout",
            "p99",
            "p999",
            "baseline fanout",
            "p99",
            "epochs",
            "moved"
        );
        for (c, b) in with.phases.iter().zip(&baseline.phases) {
            println!(
                "{:>5}  {:>17.4} {:>8.3} {:>8.3}  {:>15.4} {:>8.3}  {:>6} {:>6}",
                c.phase,
                c.mean_fanout,
                c.p99,
                c.p999,
                b.mean_fanout,
                b.p99,
                c.epochs.len(),
                c.epochs.iter().map(|e| e.moved_keys).sum::<usize>()
            );
        }
        println!(
            "\nfinal phase: controller fanout {:.4} vs baseline {:.4} ({:.1}% lower); \
             migration {} keys total, largest epoch {} (budget {})",
            with.final_phase_fanout(),
            baseline.final_phase_fanout(),
            100.0 * (1.0 - with.final_phase_fanout() / baseline.final_phase_fanout()),
            with.cumulative_moved,
            with.max_epoch_moved,
            with.migration_budget
        );
    }

    if with.max_epoch_moved > config.migration_budget {
        return Err(ShpError::Runtime(format!(
            "migration budget violated: an epoch moved {} keys (budget {})",
            with.max_epoch_moved, config.migration_budget
        )));
    }
    if with.final_phase_fanout() >= baseline.final_phase_fanout() {
        return Err(ShpError::Runtime(format!(
            "the controller failed to beat the never-repartition baseline: {:.4} vs {:.4}",
            with.final_phase_fanout(),
            baseline.final_phase_fanout()
        )));
    }
    Ok(())
}

/// Renders one drill run as a JSON object (phase rows plus the headline totals).
fn drill_report_json(report: &DrillReport) -> Json {
    let phases = report.phases.iter().map(|p| {
        Json::object([
            ("phase", Json::from(p.name.as_str())),
            ("mean_fanout", Json::fixed(p.mean_fanout, 6)),
            ("p99", Json::fixed(p.p99, 6)),
            ("availability", Json::fixed(p.availability, 6)),
            ("degraded_queries", Json::from(p.degraded_queries)),
            ("retries", Json::from(p.retries)),
            ("hedges_won", Json::from(p.hedges_won)),
        ])
    });
    Json::object([
        ("phases", Json::Array(phases.collect())),
        ("wrong_values", Json::from(report.wrong_values)),
        (
            "degraded_leg_availability",
            Json::fixed(report.degraded_leg_availability, 6),
        ),
        (
            "degraded_leg_degraded",
            Json::from(report.degraded_leg_degraded),
        ),
        ("missing_mismatches", Json::from(report.missing_mismatches)),
        ("recovery_epochs", Json::from(report.recovery_epochs)),
        ("recovery_moved", Json::from(report.recovery_moved)),
        ("max_epoch_moved", Json::from(report.max_epoch_moved)),
        ("recovery_remaining", Json::from(report.recovery_remaining)),
        ("migration_budget", Json::from(report.migration_budget)),
    ])
}

/// Every acceptance gate of the failure drill; the CLI (and CI through it) exits nonzero
/// when any fails.
fn check_drill_gates(report: &DrillReport) -> ShpResult<()> {
    if report.wrong_values > 0 {
        return Err(ShpError::Runtime(format!(
            "correctness violated: {} value(s) served wrong under faults",
            report.wrong_values
        )));
    }
    if report.missing_mismatches > 0 {
        return Err(ShpError::Runtime(format!(
            "partial results imprecise: {} quer(ies) misreported their missing keys",
            report.missing_mismatches
        )));
    }
    if report.incident_availability() < 0.99 {
        return Err(ShpError::Runtime(format!(
            "availability {:.4} under the incident (gate: >= 0.99 with replication)",
            report.incident_availability()
        )));
    }
    if report.max_epoch_moved > report.migration_budget {
        return Err(ShpError::Runtime(format!(
            "migration budget violated: a recovery epoch moved {} keys (budget {})",
            report.max_epoch_moved, report.migration_budget
        )));
    }
    if report.recovery_remaining > 0 {
        return Err(ShpError::Runtime(format!(
            "dead shard not drained: {} key(s) still assigned after recovery",
            report.recovery_remaining
        )));
    }
    if report.post_fanout() > 1.05 * report.baseline_fanout() {
        return Err(ShpError::Runtime(format!(
            "post-recovery fanout {:.4} not within 5% of the baseline {:.4}",
            report.post_fanout(),
            report.baseline_fanout()
        )));
    }
    Ok(())
}

fn cmd_drill(args: &[String]) -> ShpResult<()> {
    let mut quick = false;
    let mut json = false;
    let mut budget: Option<usize> = None;
    let mut replication: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut metrics: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--quick" || flag == "--json" {
            if flag == "--quick" {
                quick = true;
            } else {
                json = true;
            }
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| ShpError::InvalidArgument(format!("{flag} needs a value")))?;
        match flag {
            "--budget" => {
                budget = Some(value.parse().map_err(|_| {
                    ShpError::InvalidArgument(format!("invalid migration budget {value:?}"))
                })?)
            }
            "--replication" => {
                replication = Some(value.parse().map_err(|_| {
                    ShpError::InvalidArgument(format!("invalid replication factor {value:?}"))
                })?)
            }
            "--seed" => {
                seed =
                    Some(value.parse().map_err(|_| {
                        ShpError::InvalidArgument(format!("invalid seed {value:?}"))
                    })?)
            }
            "--metrics" => metrics = Some(value.clone()),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
        i += 2;
    }

    let mut config = DrillConfig::default();
    if quick {
        config = config.quick();
    }
    if let Some(budget) = budget {
        config.migration_budget = budget;
    }
    if let Some(replication) = replication {
        config.replication = replication;
    }
    if let Some(seed) = seed {
        config.seed = seed;
    }

    if !json {
        println!(
            "failure drill: {} communities x {} keys on {} shards (replication {}), 4 phases \
             x {} multigets",
            config.communities,
            config.community_size,
            config.shards,
            config.replication,
            config.queries_per_phase
        );
        println!(
            "incident script: shard {} crashes, shard {} serves {}x slow; recovery budget {} \
             keys/epoch\n",
            config.dead_shard, config.slow_shard, config.slow_factor, config.migration_budget
        );
    }
    let (report, mut snapshot) = run_drill_scenario_with_telemetry(&config)?;
    if let Some(path) = metrics.as_deref() {
        snapshot.merge(&shp_telemetry::global().snapshot());
        write_metrics_file(path, &snapshot)?;
    }

    if json {
        println!("{}", drill_report_json(&report));
    } else {
        println!(
            "{:>9}  {:>7} {:>8}  {:>12} {:>8} {:>7} {:>6}",
            "phase", "fanout", "p99", "availability", "degraded", "retries", "hedged"
        );
        for p in &report.phases {
            println!(
                "{:>9}  {:>7.4} {:>8.3}  {:>12.4} {:>8} {:>7} {:>6}",
                p.name,
                p.mean_fanout,
                p.p99,
                p.availability,
                p.degraded_queries,
                p.retries,
                p.hedges_won
            );
        }
        println!(
            "\ndegraded leg (no replicas): availability {:.4}, {} degraded quer(ies), every \
             partial result precise ({} mismatches)",
            report.degraded_leg_availability,
            report.degraded_leg_degraded,
            report.missing_mismatches
        );
        println!(
            "recovery: drained {} key(s) in {} epoch(s), largest epoch {} (budget {}), {} \
             remaining; {} wrong value(s) served",
            report.recovery_moved,
            report.recovery_epochs,
            report.max_epoch_moved,
            report.migration_budget,
            report.recovery_remaining,
            report.wrong_values
        );
    }
    if let Some(path) = metrics.as_deref() {
        // On stderr, as in `partition`: under --json, stdout holds exactly one JSON object.
        eprintln!("wrote telemetry snapshot to {path}");
    }

    check_drill_gates(&report)
}

//! `shp` — command-line interface for the Social Hash Partitioner.
//!
//! Subcommands:
//!
//! * `generate <dataset> <scale> <output>` — synthesize a Table-1 dataset stand-in and
//!   write it in the format the output's extension names (hMetis when it names none). With
//!   `--stream` (power-law datasets, `.shpb` output) the
//!   graph is streamed to the container in bounded memory without ever being materialized.
//! * `algorithms` — list every partitioning algorithm registered in the workspace registry.
//! * `convert <input> <output>` — convert a graph between the edge-list, hMetis, and `.shpb`
//!   compact binary formats, with format autodetection by extension and contents (`shp
//!   convert --help` spells out the rules).
//! * `partition <input> <k> <output.part>` — partition a graph file
//!   (any supported format, autodetected — a `.shpb` input skips parsing entirely) with
//!   **any registered algorithm** (SHP or baseline) and write the bucket of every vertex;
//!   `--json` emits the full `PartitionOutcome`. `--workers` sets the number of real threads
//!   driving both the text parse and the refinement hot paths — the output is bit-identical
//!   for every worker count (see the determinism contract in `shp-core`), only the
//!   wall-clock time changes. The partition file is replaced atomically.
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
//! `partition`, `replay`, `serve` and `drill` accept `--metrics <file>`: the run's telemetry —
//! counters, phase spans, latency/fanout histograms, and hot keys from `shp-telemetry` — is
//! exported as a JSON snapshot (or Prometheus text when the path ends in `.prom`). `replay`
//! and `serve` rewrite the file roughly once a second while the workload runs, so a live run
//! can be scraped mid-flight; the final write supersedes every periodic one.
//!
//! Every subcommand reads its argv through one flag table (a [`Spec`]): its positionals, its
//! valued flags and its switches. `shp <subcommand> --help` (or `-h`) prints the synopsis
//! rendered from that table and exits 0, and the `usage:` text lists the same synopses, so no
//! flag can be parsed but undocumented. Parsing is pure — it reads no file and starts no
//! workload — and its errors are typed [`ShpError::InvalidArgument`]s with one wording each:
//! an unknown option, a flag missing its value, a flag given twice, a wrong number of
//! positionals, an unparsable or out-of-range value. Such an argument error exits with code
//! 2; a runtime or gate failure exits with code 1.
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
use shp_serving::{
    open_loop_schedule, EngineConfig, ServingEngine, ServingReport, WorkloadConfig, WorkloadEvent,
};
use shp_telemetry::export::write_atomically;
use shp_telemetry::json::Json;
use shp_telemetry::Snapshot;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_command(&args) {
        Ok(command) => command,
        Err(error) => {
            let usage = match args.first().and_then(|name| find_spec(name)) {
                Some(spec) => format!("usage:\n{}", spec.synopsis()),
                None => usage(),
            };
            eprintln!("error: {error}\n{usage}");
            return ExitCode::from(2);
        }
    };
    match command() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's flag table. `"--name <value>"` is a flag that takes a value and a bare
/// `"--name"` is a switch; [`parse`] reads argv through the table, and `--help` and [`usage`]
/// render their synopses from it.
struct Spec {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [&'static str],
    /// Types and range-checks the parsed argv into the [`Command`] that runs it.
    build: fn(&Parsed) -> ShpResult<Command>,
    /// Printed under the synopsis by `--help` (from its own blank line on).
    help: &'static str,
}

#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { name: "generate", positionals: &["<dataset>", "<scale>", "<output>"],
        flags: &["--stream"], build: cmd_generate, help: "" },
    Spec { name: "algorithms", positionals: &[], flags: &[], build: cmd_algorithms, help: "" },
    Spec { name: "convert", positionals: &["<input>", "<output>"],
        flags: &["--from <format>", "--to <format>", "--workers <n>"],
        build: cmd_convert, help: CONVERT_HELP },
    Spec { name: "partition", positionals: &["<input>", "<k>", "<output.part>"],
        flags: &["--mode <algorithm>", "--p <p>", "--epsilon <eps>", "--seed <seed>",
            "--iterations <n>", "--workers <n>", "--metrics <file>", "--json", "--mmap"],
        build: cmd_partition, help: "" },
    Spec { name: "evaluate", positionals: &["<input>", "<partition.part>", "<k>"],
        flags: &["--json"], build: cmd_evaluate, help: "" },
    Spec { name: "replay", positionals: &[],
        flags: &["--dataset <name>", "--graph <file>", "--scale <s>", "--shards <k>",
            "--rate <r>", "--duration <d>", "--clients <n>", "--cache <capacity>",
            "--seed <seed>", "--workers <n>", "--metrics <file>", "--mmap"],
        build: cmd_replay, help: "" },
    Spec { name: "serve", positionals: &[],
        flags: &["--dataset <name>", "--graph <file>", "--partition <file>", "--scale <s>",
            "--shards <k>", "--rate <r>", "--duration <d>", "--clients <n>",
            "--cache <capacity>", "--seed <seed>", "--workers <n>", "--metrics <file>",
            "--repartition-every <n>", "--migration-budget <m>", "--mmap"],
        build: cmd_serve, help: "" },
    Spec { name: "controller", positionals: &[],
        flags: &["--quick", "--phases <n>", "--every <n>", "--budget <m>", "--seed <seed>",
            "--json"],
        build: cmd_controller, help: "" },
    Spec { name: "drill", positionals: &[],
        flags: &["--quick", "--budget <m>", "--replication <r>", "--seed <seed>", "--json",
            "--metrics <file>"],
        build: cmd_drill, help: "" },
    Spec { name: "metrics", positionals: &["<snapshot.json>"], flags: &["--prometheus"],
        build: cmd_metrics, help: "" },
];

/// Synopses wrap at this many columns, continuation lines aligned under the first argument.
const SYNOPSIS_WIDTH: usize = 92;

impl Spec {
    /// `  shp <name> <positionals> [flags]`, indented to sit under a `usage:` line.
    fn synopsis(&self) -> String {
        let head = format!("  shp {}", self.name);
        let flags = self.flags.iter().map(|flag| format!("[{flag}]"));
        let mut line = head.len();
        let mut out = head;
        for word in self.positionals.iter().map(|p| p.to_string()).chain(flags) {
            if line + 1 + word.len() > SYNOPSIS_WIDTH {
                out.push('\n');
                out.push_str(&" ".repeat(self.name.len() + 6));
                line = self.name.len() + 6;
            }
            out.push(' ');
            out.push_str(&word);
            line += 1 + word.len();
        }
        out
    }

    /// The table index of flag `name` (`--seed` matches the entry `"--seed <seed>"`).
    fn flag_index(&self, name: &str) -> Option<usize> {
        let flag = |entry: &&str| entry.split_once(' ').map_or(*entry, |(flag, _)| flag) == name;
        self.flags.iter().position(flag)
    }
}

fn find_spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// The top-level usage text: every subcommand's synopsis, then notes on the shared options.
fn usage() -> String {
    let synopses: Vec<String> = SPECS.iter().map(Spec::synopsis).collect();
    format!("usage:\n{}\n\n{USAGE_NOTES}", synopses.join("\n"))
}

const USAGE_NOTES: &str = "\
`shp <subcommand> --help` prints one subcommand's synopsis. A flag may be given once; an
argument error exits with code 2, a runtime or gate failure with code 1.
`shp algorithms` lists the names accepted by --mode. Graph inputs may be edge-list, hMetis,
or .shpb binary files (autodetected; see `shp convert --help`).
`shp generate` picks the output format from the extension (hMetis when it names none);
`shp generate --stream` writes a power-law dataset straight to a .shpb container in bounded
memory (byte-identical to materializing, but the graph never exists in RAM); --mmap serves
partition/replay/serve from a memory-mapped .shpb instead of loading it onto the heap.
`replay` and `serve` serve a generated --dataset unless --graph names a file.
--metrics exports the run's telemetry snapshot: JSON by default, Prometheus text exposition
format when the path ends in .prom; `shp metrics <file>` pretty-prints a JSON snapshot.
--repartition-every closes the serve->observe->repartition loop online: one controller epoch
per n served multigets, each moving at most --migration-budget keys (default 256).
`shp controller` runs the drift scenario against a never-repartition baseline.
`shp drill` runs the kill -> degrade -> recover failure drill: a replicated engine serves
through a scripted shard crash (failover keeps availability >= 99%), an unreplicated leg
degrades to typed partial results, and the controller drains the dead shard within budget.
datasets: email-Enron soc-Epinions web-Stanford web-BerkStan soc-Pokec soc-LJ FB-10M FB-50M FB-2B FB-5B FB-10B";

const CONVERT_HELP: &str = "

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

fn invalid(message: impl Into<String>) -> ShpError {
    ShpError::InvalidArgument(message.into())
}

/// A range check on a parsed argument.
fn check(holds: bool, message: &str) -> ShpResult<()> {
    holds.then_some(()).ok_or_else(|| invalid(message))
}

/// Argv split by a [`Spec`]: the positionals in order, and the raw text of each flag that was
/// given (`""` for a switch), indexed like the table.
struct Parsed<'a> {
    spec: &'static Spec,
    positionals: Vec<&'a str>,
    values: Vec<Option<&'a str>>,
}

/// Splits `args` (the argv after the subcommand) by `spec`. `Ok(None)` asks for `--help`.
/// A token that starts with `--` is a flag: its name is checked before its value is taken.
fn parse<'a>(spec: &'static Spec, args: &'a [String]) -> ShpResult<Option<Parsed<'a>>> {
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(None);
    }
    let mut parsed = Parsed {
        spec,
        positionals: Vec::new(),
        values: vec![None; spec.flags.len()],
    };
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg);
            continue;
        }
        let index = spec
            .flag_index(arg)
            .ok_or_else(|| invalid(format!("unknown option {arg:?}")))?;
        if parsed.values[index].is_some() {
            return Err(invalid(format!("{arg} is given more than once")));
        }
        let value = if spec.flags[index].contains(' ') {
            args.next()
        } else {
            Some("")
        };
        parsed.values[index] = Some(value.ok_or_else(|| invalid(format!("{arg} needs a value")))?);
    }
    let (name, wanted, got) = (spec.name, spec.positionals.len(), parsed.positionals.len());
    if wanted != got {
        return Err(invalid(format!(
            "`shp {name}` takes {wanted} positional argument(s), got {got}"
        )));
    }
    Ok(Some(parsed))
}

impl<'a> Parsed<'a> {
    /// The raw text of `name`, a positional (`<k>`) or a flag (`--seed`), if it was given. A
    /// flag outside this subcommand's table is never given.
    fn raw(&self, name: &str) -> Option<&'a str> {
        match self.spec.positionals.iter().position(|p| *p == name) {
            Some(index) => self.positionals.get(index).copied(),
            None => self
                .spec
                .flag_index(name)
                .and_then(|index| self.values[index]),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.raw(flag).is_some()
    }

    /// `name`'s value typed by `parse`, or `None` when an optional flag is absent.
    fn get_with<T>(&self, name: &str, parse: impl Fn(&str) -> Option<T>) -> ShpResult<Option<T>> {
        self.raw(name)
            .map(|value| {
                parse(value).ok_or_else(|| invalid(format!("invalid value {value:?} for {name}")))
            })
            .transpose()
    }

    fn get<T: FromStr>(&self, name: &str) -> ShpResult<Option<T>> {
        self.get_with(name, |value| value.parse().ok())
    }

    /// A positional's typed value; [`parse`] guarantees every positional is present.
    fn arg<T: FromStr>(&self, name: &str) -> ShpResult<T> {
        self.get(name)?
            .ok_or_else(|| invalid(format!("missing {name}")))
    }
}

/// A typed command line, ready to run: building one reads no file and starts no workload.
type Command = Box<dyn FnOnce() -> ShpResult<()>>;

/// Parses a whole `shp` argv (after the program name) into a [`Command`]. Every error is an
/// [`ShpError::InvalidArgument`].
fn parse_command(args: &[String]) -> ShpResult<Command> {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| invalid("no subcommand given"))?;
    let spec = find_spec(name).ok_or_else(|| invalid(format!("unknown subcommand {name:?}")))?;
    match parse(spec, rest)? {
        Some(parsed) => (spec.build)(&parsed),
        None => Ok(Box::new(move || {
            println!("usage:\n{}{}", spec.synopsis(), spec.help);
            Ok(())
        })),
    }
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

fn cmd_metrics(args: &Parsed) -> ShpResult<Command> {
    let path: String = args.arg("<snapshot.json>")?;
    let prometheus = args.switch("--prometheus");
    Ok(Box::new(move || {
        let text = std::fs::read_to_string(&path)
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
    }))
}

fn cmd_generate(args: &Parsed) -> ShpResult<Command> {
    let dataset = args
        .get_with("<dataset>", Dataset::from_name)?
        .ok_or_else(|| invalid("missing <dataset>"))?;
    let scale: f64 = args.arg("<scale>")?;
    check(scale > 0.0 && scale <= 1.0, "scale must lie in (0, 1]")?;
    let output: String = args.arg("<output>")?;
    let stream = args.switch("--stream");
    check(
        !stream || GraphFormat::from_extension(&output) == Some(GraphFormat::Shpb),
        "--stream writes a .shpb container: give the output a .shpb extension",
    )?;
    let stream = match dataset.power_law_config(scale, 0x5047) {
        None if stream => {
            return Err(invalid(format!(
                "dataset {:?} uses the social generator, which needs the whole graph in \
                 memory; --stream supports only the power-law datasets \
                 (email-Enron, web-Stanford, web-BerkStan)",
                dataset.spec().name
            )))
        }
        config => config.filter(|_| stream),
    };
    Ok(Box::new(move || {
        if let Some(config) = stream {
            // Bounded-memory path: the graph goes straight from the generator to the container,
            // byte-identical to materializing it, but it never exists in RAM.
            let mut stream = shp_datagen::PowerLawStream::new(config);
            let stats = io::stream_shpb_file(&mut stream, std::path::Path::new(&output))?;
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
        let format = GraphFormat::from_extension(&output).unwrap_or(GraphFormat::Hmetis);
        io::write_graph_file(&graph, &output, format)?;
        println!(
            "{}",
            GraphStats::compute(&graph).table1_row(dataset.spec().name)
        );
        println!("wrote {output}");
        Ok(())
    }))
}

fn cmd_algorithms(_: &Parsed) -> ShpResult<Command> {
    Ok(Box::new(|| {
        println!("registered partitioning algorithms (accepted by `shp partition --mode <name>`):");
        for name in full_registry().names() {
            println!("  {name}");
        }
        Ok(())
    }))
}

fn cmd_convert(args: &Parsed) -> ShpResult<Command> {
    let (input, output): (String, String) = (args.arg("<input>")?, args.arg("<output>")?);
    let from = args.get_with("--from", GraphFormat::from_name)?;
    let to = args.get_with("--to", GraphFormat::from_name)?;
    let workers = args.get("--workers")?.unwrap_or(4);
    check(workers >= 1, "at least 1 worker is required")?;
    Ok(Box::new(move || {
        // Input: explicit flag > extension > content sniffing.
        let bytes = std::fs::read(&input).map_err(shp_hypergraph::GraphError::from)?;
        let input_format = from.unwrap_or_else(|| GraphFormat::detect(&input, &bytes));
        let graph = match input_format {
            GraphFormat::EdgeList => io::parse_edge_list_bytes(&bytes, workers),
            GraphFormat::Hmetis => io::parse_hmetis_bytes(&bytes, workers),
            GraphFormat::Shpb => io::parse_shpb_bytes(&bytes),
        }?;

        // Output: explicit flag > extension (contents cannot be sniffed for a file that does not
        // exist yet).
        let output_format = to
            .or_else(|| GraphFormat::from_extension(&output))
            .ok_or_else(|| {
                ShpError::InvalidArgument(format!(
                    "cannot infer the output format of {output:?}: use a known extension or --to"
                ))
            })?;
        io::write_graph_file(&graph, &output, output_format)?;
        println!(
            "converted {input} ({}) -> {output} ({}): {} queries, {} data vertices, {} pins",
            input_format.name(),
            output_format.name(),
            graph.num_queries(),
            graph.num_data(),
            graph.num_edges()
        );
        Ok(())
    }))
}

/// `k`, `--p`, `--epsilon`, `--workers` and `--iterations` are range-checked by
/// [`PartitionSpec::validate`] when the run starts.
fn cmd_partition(args: &Parsed) -> ShpResult<Command> {
    let objective = match args.get("--p")?.unwrap_or(0.5) {
        p if p >= 1.0 => ObjectiveKind::Fanout,
        p if p <= 0.0 => ObjectiveKind::CliqueNet,
        p => ObjectiveKind::ProbabilisticFanout { p },
    };
    let mut spec = PartitionSpec::new(args.arg("<k>")?)
        .with_objective(objective)
        .with_epsilon(args.get("--epsilon")?.unwrap_or(0.05))
        .with_seed(args.get("--seed")?.unwrap_or(0x5047))
        .with_workers(args.get("--workers")?.unwrap_or(4));
    spec.max_iterations = args.get("--iterations")?;
    let (input, output): (String, String) = (args.arg("<input>")?, args.arg("<output.part>")?);
    let mode: String = args.get("--mode")?.unwrap_or_else(|| "shp2".into());
    let metrics: Option<String> = args.get("--metrics")?;
    let (json, mmap) = (args.switch("--json"), args.switch("--mmap"));
    Ok(Box::new(move || {
        let graph = if mmap {
            // Zero-copy open: adjacency stays on disk behind borrowed views; the kernel pages in
            // only what the partitioner touches.
            io::map_shpb_file(&input)?
        } else {
            io::read_graph_file_with(&input, spec.workers)?
        };
        let registry = full_registry();
        let outcome = registry.run(&mode, &graph, &spec, &mut NoopObserver)?;
        io::write_partition_file(&outcome.partition, &output)?;
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
    }))
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

fn cmd_evaluate(args: &Parsed) -> ShpResult<Command> {
    let (input, partition_path): (String, String) =
        (args.arg("<input>")?, args.arg("<partition.part>")?);
    let (k, json): (u32, bool) = (args.arg("<k>")?, args.switch("--json"));
    Ok(Box::new(move || {
        let graph = io::read_graph_file(&input)?;
        let partition = io::read_partition_file(&graph, k, &partition_path)?;
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
    }))
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
    /// Types and range-checks `replay`'s or `serve`'s flags; the serve-only ones keep their
    /// defaults under `replay`, whose table does not list them.
    fn from_args(args: &Parsed) -> ShpResult<Self> {
        let options = ServeOptions {
            dataset: args
                .get_with("--dataset", Dataset::from_name)?
                .unwrap_or(Dataset::EmailEnron),
            graph: args.get("--graph")?,
            partition: args.get("--partition")?,
            scale: args.get("--scale")?.unwrap_or(0.05),
            shards: args.get("--shards")?.unwrap_or(16),
            rate: args.get("--rate")?.unwrap_or(200.0),
            duration: args.get("--duration")?.unwrap_or(60.0),
            clients: args.get("--clients")?.unwrap_or(4),
            cache: args.get("--cache")?.unwrap_or(0),
            seed: args.get("--seed")?.unwrap_or(0x5047),
            workers: args.get("--workers")?.unwrap_or(4),
            metrics: args.get("--metrics")?,
            repartition_every: args.get("--repartition-every")?.unwrap_or(0),
            migration_budget: args.get("--migration-budget")?.unwrap_or(256),
            mmap: args.switch("--mmap"),
        };
        let positive = |value: f64| value > 0.0 && value.is_finite();
        for (holds, message) in [
            (
                options.scale > 0.0 && options.scale <= 1.0,
                "scale must lie in (0, 1]",
            ),
            (options.shards >= 2, "at least 2 shards are required"),
            (positive(options.rate), "rate must be a positive number"),
            (
                positive(options.duration),
                "duration must be a positive number",
            ),
            (options.clients >= 1, "at least 1 client is required"),
            (options.workers >= 1, "at least 1 worker is required"),
            (
                options.migration_budget >= 1,
                "the migration budget must be at least 1",
            ),
            (
                options.graph.is_some() || !options.mmap,
                "--mmap requires --graph <file.shpb> (a generated dataset has no on-disk \
                 container to map)",
            ),
            (
                options.graph.is_some() || options.partition.is_none(),
                "--partition requires --graph (a generated dataset has no saved placement)",
            ),
        ] {
            check(holds, message)?;
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

fn cmd_replay(args: &Parsed) -> ShpResult<Command> {
    let options = ServeOptions::from_args(args)?;
    Ok(Box::new(move || {
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

        let mut rows: Vec<(&str, ServingReport)> = Vec::new();
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
            let report =
                with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
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
    }))
}

fn cmd_serve(args: &Parsed) -> ShpResult<Command> {
    let options = ServeOptions::from_args(args)?;
    Ok(Box::new(move || {
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
        // the schedule has been served: the swap races the concurrent clients, and every
        // in-flight multiget finishes on whichever generation it loaded.
        println!("planning SHP-2 repartition off the serving path...");
        let shp = options.shp_outcome(&full_registry(), &graph)?;
        let swap_at = events.len() / 2;
        let ((), report) = serve_live(&options, &engine, &graph, &events, |progress| {
            if progress.wait_for(swap_at) {
                let epoch = engine.warm_start(&shp)?;
                println!("installed SHP-2 partition live at epoch {epoch}");
            }
            Ok(())
        })?;
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
    }))
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
    let mut controller = RepartitionController::new(
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

    let every = options.repartition_every;
    let (controller, _) = serve_live(options, &engine, graph, events, |progress| {
        let mut boundary = every;
        while progress.wait_for(boundary) {
            // A failed epoch (infeasible budget, torn trace, ...) must not tear down serving:
            // skip it, report why, and keep the loop alive.
            let skipped_before = controller.epochs_skipped();
            match controller.run_epoch_or_skip(&engine) {
                Some(outcome) => println!(
                    "epoch {}: moved {} keys (observed fanout {:.3} -> {:.3} over {} \
                     multigets)",
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
        Ok(controller)
    })?;
    if controller.epochs_run() == 0 {
        return Err(ShpError::Runtime(format!(
            "no controller epoch succeeded: the schedule served {} multigets at cadence {} \
             ({} epoch(s) skipped); lower --repartition-every or raise --rate/--duration",
            events.len(),
            every,
            controller.epochs_skipped()
        )));
    }
    println!(
        "\nonline loop closed: {} controller epoch(s) ({} skipped), {} key(s) moved in total \
         (budget {} keys/epoch), final epoch {}",
        controller.epochs_run(),
        controller.epochs_skipped(),
        controller.cumulative_moved(),
        options.migration_budget,
        engine.current_epoch()
    );
    Ok(())
}

/// How far the client threads of [`serve_live`] have got.
#[derive(Default)]
struct Progress {
    served: AtomicUsize,
    done: AtomicBool,
}

impl Progress {
    /// Spins until `target` multigets were served (`true`) or every client finished short of
    /// it (`false`).
    fn wait_for(&self, target: usize) -> bool {
        while self.served.load(Ordering::Relaxed) < target {
            if self.done.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

/// Serves `events` on `--clients` threads, one contiguous chunk each, while `side` (the live
/// swap or the controller loop) runs on a thread of its own and watches their [`Progress`].
/// Rewrites the `--metrics` file about once a second and once more at the end, prints the
/// engine's report, and fails with a serving gap unless every multiget was answered.
fn serve_live<T: Send>(
    options: &ServeOptions,
    engine: &ServingEngine,
    graph: &BipartiteGraph,
    events: &[WorkloadEvent],
    side: impl FnOnce(&Progress) -> ShpResult<T> + Send,
) -> ShpResult<(T, ServingReport)> {
    let progress = &Progress::default();
    let chunk = events.len().div_ceil(options.clients).max(1);
    let snapshot_now = || {
        let mut live = engine.telemetry_snapshot("serving");
        live.merge(&shp_telemetry::global().snapshot());
        live
    };
    let side_result = with_periodic_snapshots(options.metrics.as_deref(), &snapshot_now, || {
        std::thread::scope(|scope| {
            let side = scope.spawn(move || side(progress));
            let clients: Vec<_> = events
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || -> ShpResult<()> {
                        for event in slice {
                            engine.multiget(graph.query_neighbors(event.query))?;
                            progress.served.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    })
                })
                .collect();
            let served: ShpResult<()> = clients
                .into_iter()
                .try_for_each(|client| client.join().expect("client thread panicked"));
            // Raised on failure too, so a side thread waiting on progress never outlives
            // the clients.
            progress.done.store(true, Ordering::Relaxed);
            let side_result = side.join().expect("serving side thread panicked");
            served.and(side_result)
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
    Ok((side_result, report))
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

fn cmd_controller(args: &Parsed) -> ShpResult<Command> {
    let mut config = DriftConfig::default();
    if args.switch("--quick") {
        config = config.quick();
    }
    config.phases = args.get("--phases")?.unwrap_or(config.phases);
    config.repartition_every = args.get("--every")?.unwrap_or(config.repartition_every);
    config.migration_budget = args.get("--budget")?.unwrap_or(config.migration_budget);
    config.seed = args.get("--seed")?.unwrap_or(config.seed);
    check(
        config.phases >= 1 && config.repartition_every >= 1 && config.migration_budget >= 1,
        "--phases, --every, and --budget must all be at least 1",
    )?;
    let json = args.switch("--json");
    Ok(Box::new(move || {
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
    }))
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

fn cmd_drill(args: &Parsed) -> ShpResult<Command> {
    let mut config = DrillConfig::default();
    if args.switch("--quick") {
        config = config.quick();
    }
    config.migration_budget = args.get("--budget")?.unwrap_or(config.migration_budget);
    config.replication = args.get("--replication")?.unwrap_or(config.replication);
    config.seed = args.get("--seed")?.unwrap_or(config.seed);
    let (json, metrics): (bool, Option<String>) = (args.switch("--json"), args.get("--metrics")?);
    Ok(Box::new(move || {
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
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The message of the argument error `line` must produce.
    fn argument_error(line: &str) -> String {
        match parse_command(&argv(line)) {
            Err(ShpError::InvalidArgument(message)) => message,
            Err(other) => panic!("{line}: not an argument error: {other}"),
            Ok(_) => panic!("{line}: accepted"),
        }
    }

    fn assert_rejected(cases: &[(&str, &str)]) {
        for &(line, message) in cases {
            assert_eq!(argument_error(line), message, "shp {line}");
        }
    }

    #[test]
    fn a_flag_given_twice_is_rejected() {
        assert_rejected(&[
            (
                "partition g.hgr 8 g.part --seed 1 --seed 2",
                "--seed is given more than once",
            ),
            (
                "convert g.hgr g.shpb --to shpb --to hmetis",
                "--to is given more than once",
            ),
            (
                "serve --rate 10 --rate 20",
                "--rate is given more than once",
            ),
            (
                "drill --json --quick --json",
                "--json is given more than once",
            ),
        ]);
    }

    #[test]
    fn an_unknown_option_is_named_before_any_value_is_demanded() {
        assert_rejected(&[
            ("convert g.hgr g.shpb --bogus", "unknown option \"--bogus\""),
            (
                "partition g.hgr 8 g.part --bogus",
                "unknown option \"--bogus\"",
            ),
            ("controller --quick --bogus", "unknown option \"--bogus\""),
            // The serve-only flags are not in replay's table.
            (
                "replay --partition p.part",
                "unknown option \"--partition\"",
            ),
            (
                "replay --repartition-every 10",
                "unknown option \"--repartition-every\"",
            ),
        ]);
    }

    #[test]
    fn help_is_answered_by_every_subcommand_without_touching_a_file() {
        for spec in SPECS {
            for help in ["--help", "-h"] {
                let args = argv(&format!("{} x {help}", spec.name));
                assert!(matches!(parse(spec, &args[1..]), Ok(None)), "{args:?}");
            }
        }
        // `metrics --help` once tried to open a file named `--help`.
        let metrics = find_spec("metrics").unwrap();
        assert!(matches!(parse(metrics, &argv("--help")), Ok(None)));
    }

    #[test]
    fn zero_workers_and_zero_clients_are_rejected() {
        assert_rejected(&[
            (
                "convert g.hgr g.shpb --workers 0",
                "at least 1 worker is required",
            ),
            ("serve --workers 0", "at least 1 worker is required"),
            ("replay --clients 0", "at least 1 client is required"),
            ("serve --clients 0", "at least 1 client is required"),
        ]);
    }

    #[test]
    fn missing_values_positionals_and_unparsable_values_have_one_wording_each() {
        assert_rejected(&[
            ("partition g.hgr 8 g.part --seed", "--seed needs a value"),
            (
                "evaluate g.hgr g.part",
                "`shp evaluate` takes 3 positional argument(s), got 2",
            ),
            (
                "algorithms extra",
                "`shp algorithms` takes 0 positional argument(s), got 1",
            ),
            ("partition g.hgr x g.part", "invalid value \"x\" for <k>"),
            (
                "generate nowhere 0.1 g.hgr",
                "invalid value \"nowhere\" for <dataset>",
            ),
            ("serve --seed -1", "invalid value \"-1\" for --seed"),
            ("convert a b --from pdf", "invalid value \"pdf\" for --from"),
            ("generate email-Enron 2 g.hgr", "scale must lie in (0, 1]"),
            ("serve --shards 1", "at least 2 shards are required"),
            ("replay --rate NaN", "rate must be a positive number"),
            (
                "serve --migration-budget 0",
                "the migration budget must be at least 1",
            ),
            (
                "controller --phases 0",
                "--phases, --every, and --budget must all be at least 1",
            ),
            ("frobnicate", "unknown subcommand \"frobnicate\""),
            ("", "no subcommand given"),
        ]);
    }

    #[test]
    fn flag_combinations_are_checked_before_anything_runs() {
        assert_rejected(&[
            (
                "generate email-Enron 0.1 g.hgr --stream",
                "--stream writes a .shpb container: give the output a .shpb extension",
            ),
            (
                "serve --mmap",
                "--mmap requires --graph <file.shpb> (a generated dataset has no on-disk \
                 container to map)",
            ),
            (
                "serve --partition p.part",
                "--partition requires --graph (a generated dataset has no saved placement)",
            ),
        ]);
        let social = argument_error("generate soc-Pokec 0.1 g.shpb --stream");
        assert!(social.contains("uses the social generator"), "{social}");
    }

    #[test]
    fn every_documented_command_line_parses_without_touching_a_file() {
        for line in [
            "generate web-Stanford 0.02 /nonexistent/oc.shpb --stream",
            "algorithms",
            "convert /nonexistent/g.txt /nonexistent/g2.shpb --workers 4 --from edgelist",
            "partition /nonexistent/g.shpb 64 /nonexistent/cli.part --mode shp2 --workers 2 \
             --epsilon 0.05 --seed 1 --p 0.5 --json --mmap --iterations 2 --metrics m.json",
            "evaluate /nonexistent/g.shpb /nonexistent/g.part 8 --json",
            "replay --scale 0.02 --rate 400 --duration 20 --metrics m.json",
            "serve --graph /nonexistent/oc.shpb --partition p.part --shards 8 --mmap --rate 400",
            "serve --scale 0.05 --shards 4 --repartition-every 200 --migration-budget 64",
            "controller --quick --json",
            "drill --quick --json --metrics /nonexistent/drill.json",
            "metrics --prometheus /nonexistent/m.json",
        ] {
            assert!(parse_command(&argv(line)).is_ok(), "shp {line}");
        }
    }

    #[test]
    fn serve_options_default_as_documented() {
        let serve = find_spec("serve").unwrap();
        let options = ServeOptions::from_args(&parse(serve, &[]).unwrap().unwrap()).unwrap();
        assert_eq!(options.dataset, Dataset::EmailEnron);
        assert_eq!((options.graph, options.partition), (None, None));
        assert_eq!(
            (options.scale, options.rate, options.duration),
            (0.05, 200.0, 60.0)
        );
        assert_eq!((options.shards, options.clients, options.cache), (16, 4, 0));
        assert_eq!((options.seed, options.workers), (0x5047, 4));
        assert_eq!(
            (options.repartition_every, options.migration_budget),
            (0, 256)
        );
        assert!(options.metrics.is_none() && !options.mmap);
    }

    #[test]
    fn the_usage_text_lists_every_flag_of_every_table() {
        let usage = usage();
        for spec in SPECS {
            let synopsis = spec.synopsis();
            assert!(usage.contains(&synopsis), "{}", spec.name);
            for entry in spec.positionals.iter().chain(spec.flags) {
                let word = if entry.starts_with('<') {
                    entry.to_string()
                } else {
                    format!("[{entry}]")
                };
                assert!(synopsis.contains(&word), "{} lacks {word}", spec.name);
            }
            assert!(synopsis.lines().all(|line| line.len() <= SYNOPSIS_WIDTH));
        }
    }

    /// Values that have tripped hand-written parsers: empty, negative, not-a-number,
    /// overflowing floats and integers, and bare dashes.
    const VALUES: &[&str] = &[
        "",
        "-1",
        "0",
        "1",
        "2",
        "0.5",
        "NaN",
        "inf",
        "1e400",
        "18446744073709551616",
        "--",
        "-",
        "x",
        "email-Enron",
        "shpb",
        "g.shpb",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn any_argv_parses_or_is_an_argument_error(
            spec in 0usize..SPECS.len(),
            tokens in prop::collection::vec(0usize..10_000, 0..12),
        ) {
            // The subcommand's own flags, every other subcommand's flags, every positional
            // name, and the values above.
            let own = SPECS[spec].flags.iter();
            let every = SPECS.iter().flat_map(|s| s.flags.iter().chain(s.positionals));
            let soup: Vec<&str> = own
                .chain(every)
                .map(|entry| entry.split(' ').next().unwrap_or(entry))
                .chain(VALUES.iter().copied())
                .collect();
            let mut args = vec![SPECS[spec].name.to_string()];
            args.extend(tokens.iter().map(|&t| soup[t % soup.len()].to_string()));
            let outcome = parse_command(&args);
            prop_assert!(
                matches!(outcome, Ok(_) | Err(ShpError::InvalidArgument(_))),
                "{args:?} gave another error"
            );
        }
    }
}

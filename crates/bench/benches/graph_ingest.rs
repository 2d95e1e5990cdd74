//! Ingestion benchmark: dataset file → `BipartiteGraph`, across the three pipeline layers of
//! the ingestion rework.
//!
//! On a ~1M-pin power-law bipartite graph (the Table-1-style workload shape) this measures:
//!
//! * the **legacy oracle** text path (per-line `String`s + `str::parse` + the
//!   `BuildKernel::Legacy` per-query-`Vec` CSR build);
//! * the **zero-copy** text path at `workers = 1` and `workers = 4` (in-place byte scanning,
//!   hand-rolled decimal parser, flat-arena builder, counting-sort CSR);
//! * the **`.shpb` compact binary** path (checksummed container holding the CSR verbatim);
//! * the writers: `write_edge_list` through the reusable byte buffer vs the per-line
//!   formatting machinery it replaced.
//!
//! Before anything is timed, every variant's output is asserted **equal** to the legacy
//! oracle's (and the writers byte-identical) — the CI smoke job (`--quick`) relies on this
//! panicking on any conformance regression, exactly like the refinement benches.
//!
//! Headline numbers (MB/s, edges/s, allocation proxies, speedups) land in
//! `BENCH_ingest.json` at the repository root.

mod support;

use shp_bench::bench_json;
use shp_datagen::{power_law_bipartite, PowerLawConfig};
use shp_hypergraph::{io, BipartiteGraph};
use shp_telemetry::json::Json;
use std::io::Write as _;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

/// The measured graph: ~1M pins in full mode; a proportionally smaller graph in `--quick`
/// smoke mode (the conformance assertions are identical, only the timings shrink).
fn ingest_power_law() -> BipartiteGraph {
    let (num_queries, num_data) = if criterion::quick_mode() {
        (28_000, 15_000)
    } else {
        (280_000, 150_000)
    };
    power_law_bipartite(&PowerLawConfig {
        num_queries,
        num_data,
        min_degree: 2,
        max_degree: 60,
        seed: 0x5047,
        ..Default::default()
    })
}

/// The pre-rework writer: one `writeln!` formatting round trip per line.
fn write_edge_list_formatting(graph: &BipartiteGraph, out: &mut Vec<u8>) {
    writeln!(out, "# bipartite edge list: query_id\tdata_id").unwrap();
    for (q, v) in graph.edges() {
        writeln!(out, "{q}\t{v}").unwrap();
    }
}

fn main() {
    let graph = ingest_power_law();
    let edges = graph.num_edges();
    println!(
        "graph_ingest: power-law graph with {} queries, {} data vertices, {edges} pins{}",
        graph.num_queries(),
        graph.num_data(),
        if criterion::quick_mode() {
            " (quick mode)"
        } else {
            ""
        }
    );

    // Serialize once; all read measurements parse from memory so the numbers measure the
    // pipelines, not the page cache.
    let mut text = Vec::new();
    io::write_edge_list(&graph, &mut text).unwrap();
    let mut binary = Vec::new();
    io::write_shpb(&graph, &mut binary).unwrap();

    // ---- Correctness gates (CI smoke relies on these panicking on regression) ----------
    let oracle = io::read_edge_list_legacy(&text[..]).expect("legacy parse");
    for workers in [1usize, 2, 4, 8] {
        let parsed = io::parse_edge_list_bytes(&text, workers).expect("zero-copy parse");
        assert_eq!(
            parsed, oracle,
            "zero-copy parse (workers={workers}) diverged from the legacy oracle"
        );
    }
    let from_binary = io::parse_shpb_bytes(&binary).expect("shpb parse");
    assert_eq!(
        from_binary, graph,
        "shpb roundtrip diverged from the source graph"
    );
    assert_eq!(
        from_binary, oracle,
        "shpb graph diverged from the text-parsed graph"
    );
    let mut formatted = Vec::new();
    write_edge_list_formatting(&graph, &mut formatted);
    assert_eq!(
        text, formatted,
        "byte-buffer writer output diverged from the formatting writer"
    );
    println!(
        "graph_ingest: conformance gates passed (new == legacy == shpb, writers byte-identical)"
    );

    // ---- Measurements ------------------------------------------------------------------
    let rounds = support::rounds();
    let read_legacy = support::measure(
        rounds,
        || (),
        |()| {
            io::read_edge_list_legacy(&text[..]).unwrap();
        },
    );
    let read_new_w1 = support::measure(
        rounds,
        || (),
        |()| {
            io::parse_edge_list_bytes(&text, 1).unwrap();
        },
    );
    let read_new_w4 = support::measure(
        rounds,
        || (),
        |()| {
            io::parse_edge_list_bytes(&text, 4).unwrap();
        },
    );
    let read_shpb = support::measure(
        rounds,
        || (),
        |()| {
            io::parse_shpb_bytes(&binary).unwrap();
        },
    );
    let write_new = support::measure(
        rounds,
        || Vec::with_capacity(text.len()),
        |mut out| io::write_edge_list(&graph, &mut out).unwrap(),
    );
    let write_formatting = support::measure(
        rounds,
        || Vec::with_capacity(text.len()),
        |mut out| write_edge_list_formatting(&graph, &mut out),
    );

    let speedup_text_w1 = read_legacy.secs_per_op / read_new_w1.secs_per_op;
    let speedup_text_w4 = read_legacy.secs_per_op / read_new_w4.secs_per_op;
    let speedup_shpb = read_new_w1.secs_per_op / read_shpb.secs_per_op;
    let speedup_write = write_formatting.secs_per_op / write_new.secs_per_op;
    println!(
        "graph_ingest/read: legacy {:.1} ms, zero-copy w1 {:.1} ms ({speedup_text_w1:.2}x), \
         w4 {:.1} ms ({speedup_text_w4:.2}x), shpb {:.2} ms ({speedup_shpb:.2}x over w1 text)",
        read_legacy.secs_per_op * 1e3,
        read_new_w1.secs_per_op * 1e3,
        read_new_w4.secs_per_op * 1e3,
        read_shpb.secs_per_op * 1e3,
    );
    println!(
        "graph_ingest/write: formatting {:.1} ms, byte-buffer {:.1} ms ({speedup_write:.2}x); \
         text {:.1} MB, shpb {:.1} MB",
        write_formatting.secs_per_op * 1e3,
        write_new.secs_per_op * 1e3,
        text.len() as f64 / 1e6,
        binary.len() as f64 / 1e6,
    );

    let rows = vec![
        (
            "sizes".to_string(),
            bench_json::render_metrics(&[
                ("edges", edges as f64),
                ("text_bytes", text.len() as f64),
                ("shpb_bytes", binary.len() as f64),
            ]),
        ),
        (
            "read_text_legacy_w1".to_string(),
            bench_json::render_metrics(&read_legacy.throughput_metrics(text.len(), edges)),
        ),
        (
            "read_text_zero_copy_w1".to_string(),
            bench_json::render_metrics(&read_new_w1.throughput_metrics(text.len(), edges)),
        ),
        (
            "read_text_zero_copy_w4".to_string(),
            bench_json::render_metrics(&read_new_w4.throughput_metrics(text.len(), edges)),
        ),
        (
            "read_shpb".to_string(),
            bench_json::render_metrics(&read_shpb.throughput_metrics(binary.len(), edges)),
        ),
        (
            "write_text_formatting".to_string(),
            bench_json::render_metrics(&write_formatting.throughput_metrics(text.len(), edges)),
        ),
        (
            "write_text_byte_buffer".to_string(),
            bench_json::render_metrics(&write_new.throughput_metrics(text.len(), edges)),
        ),
        (
            "speedup_text_w1".to_string(),
            bench_json::render_number(speedup_text_w1),
        ),
        (
            "speedup_text_w4".to_string(),
            bench_json::render_number(speedup_text_w4),
        ),
        (
            "speedup_shpb_vs_text_w1".to_string(),
            bench_json::render_number(speedup_shpb),
        ),
        (
            "speedup_write".to_string(),
            bench_json::render_number(speedup_write),
        ),
    ];
    let path = bench_json::repo_root().join(bench_json::BENCH_INGEST_JSON_NAME);
    bench_json::update_section(&path, "graph_ingest", Json::object(rows))
        .expect("write BENCH_ingest.json");
    println!("graph_ingest: trajectory written to {}", path.display());
}

//! Out-of-core benchmark: datagen-streamed `.shpb` container → owned vs memory-mapped loads.
//!
//! On a datagen-streamed power-law container (10M+ pins in full mode — the out-of-core
//! workload shape the streaming writer and the mmap loader exist for) this measures:
//!
//! * the **streaming generation** path (`PowerLawStream` → `stream_shpb_file`): wall time and
//!   the bounded heap it allocates while writing a container it never materializes;
//! * the **owned open** (`read_shpb_file`): read the file, validate structure, copy every
//!   section onto the heap;
//! * the **mapped open** (`map_shpb_file`): map the file, validate the header and offsets,
//!   one body-checksum pass, zero section copies.
//!
//! Before anything is timed, the mapped graph is asserted **equal** to the owned graph and
//! the memory accounting is asserted to distinguish the two representations (`memory_bytes`
//! = 0 for a mapped graph; `mapped_bytes` = the owned heap it avoids). The CI smoke job
//! (`--quick`) relies on these panicking on any conformance regression.
//!
//! Headline numbers (open latency, speedup, resident-heap deltas) land in
//! `BENCH_outofcore.json` at the repository root. Full (non-quick) mode additionally
//! enforces the acceptance floor: mapped open ≥ 10x faster than the owned open.

mod support;

use shp_bench::bench_json;
use shp_datagen::{PowerLawConfig, PowerLawStream};
use shp_hypergraph::io;
use shp_telemetry::json::Json;
use std::time::Instant;

#[global_allocator]
static ALLOC: support::CountingAllocator = support::CountingAllocator;

/// The streamed container shape: ~10M pins in full mode (min_degree 4 with a fat power-law
/// tail averages ~8 pins per query), a proportionally smaller graph in `--quick` smoke mode
/// (identical assertions, smaller timings).
fn stream_config() -> PowerLawConfig {
    let (num_queries, num_data) = if criterion::quick_mode() {
        (40_000, 20_000)
    } else {
        (1_450_000, 750_000)
    };
    PowerLawConfig {
        num_queries,
        num_data,
        min_degree: 4,
        max_degree: 60,
        seed: 0x5047,
        ..Default::default()
    }
}

fn main() {
    let config = stream_config();
    let path = std::env::temp_dir().join(format!("shp-outofcore-{}.shpb", std::process::id()));

    // ---- Streaming generation (timed once: it is the expensive, run-once pipeline stage) --
    let stream_before = support::alloc_snapshot();
    let stream_start = Instant::now();
    let mut stream = PowerLawStream::new(config.clone());
    let stats = io::stream_shpb_file(&mut stream, &path).expect("stream container");
    let stream_secs = stream_start.elapsed().as_secs_f64();
    let (_, stream_alloc_bytes) = support::alloc_snapshot().delta(&stream_before);
    println!(
        "outofcore: streamed {} pins ({} queries over {} data vertices) into {:.1} MB in \
         {stream_secs:.2}s, {} source passes, {:.1} MB allocated{}",
        stats.num_pins,
        stats.num_queries,
        stats.num_data,
        stats.bytes_written as f64 / 1e6,
        stats.source_passes,
        stream_alloc_bytes as f64 / 1e6,
        if criterion::quick_mode() {
            " (quick mode)"
        } else {
            ""
        }
    );

    // ---- Correctness gates (CI smoke relies on these panicking on regression) ------------
    let owned = io::read_shpb_file(&path).expect("owned open");
    let mapped = io::map_shpb_file(&path).expect("mapped open");
    assert_eq!(owned, mapped, "mapped graph diverged from the owned graph");
    assert!(!owned.is_mapped() && mapped.is_mapped());
    assert_eq!(
        mapped.memory_bytes(),
        0,
        "a mapped graph must report zero owned heap"
    );
    assert_eq!(
        mapped.mapped_bytes(),
        owned.memory_bytes(),
        "mapped_bytes must account exactly the owned heap the mapping avoids"
    );
    assert_eq!(stats.num_pins as usize, owned.num_edges());
    let owned_heap = owned.memory_bytes();
    let mapped_span = mapped.mapped_bytes();
    let edges = owned.num_edges();
    drop(owned);
    drop(mapped);
    println!("outofcore: conformance gates passed (mapped == owned, memory accounting split)");

    // ---- Measurements --------------------------------------------------------------------
    let rounds = support::rounds();
    let file_bytes = std::fs::metadata(&path).expect("container metadata").len() as usize;
    let open_owned = support::measure(
        rounds,
        || (),
        |()| {
            io::read_shpb_file(&path).unwrap();
        },
    );
    let open_mapped = support::measure(
        rounds,
        || (),
        |()| {
            io::map_shpb_file(&path).unwrap();
        },
    );
    std::fs::remove_file(&path).ok();

    let speedup_open = open_owned.secs_per_op / open_mapped.secs_per_op;
    let resident_delta = open_owned.bytes_per_op - open_mapped.bytes_per_op;
    println!(
        "outofcore/open: owned {:.1} ms ({:.1} MB heap per open), mapped {:.2} ms \
         ({:.3} MB heap per open) — {speedup_open:.1}x faster, {:.1} MB less resident heap",
        open_owned.secs_per_op * 1e3,
        open_owned.bytes_per_op / 1e6,
        open_mapped.secs_per_op * 1e3,
        open_mapped.bytes_per_op / 1e6,
        resident_delta / 1e6,
    );

    let rows = vec![
        (
            "sizes".to_string(),
            bench_json::render_metrics(&[
                ("pins", stats.num_pins as f64),
                ("queries", stats.num_queries as f64),
                ("data_vertices", stats.num_data as f64),
                ("file_bytes", file_bytes as f64),
                ("owned_heap_bytes", owned_heap as f64),
                ("mapped_span_bytes", mapped_span as f64),
            ]),
        ),
        (
            "stream_generate".to_string(),
            bench_json::render_metrics(&[
                ("secs", stream_secs),
                ("mb_per_s", file_bytes as f64 / 1e6 / stream_secs),
                ("pins_per_s", stats.num_pins as f64 / stream_secs),
                ("source_passes", stats.source_passes as f64),
                ("alloc_bytes", stream_alloc_bytes as f64),
            ]),
        ),
        (
            "open_owned".to_string(),
            bench_json::render_metrics(&open_owned.throughput_metrics(file_bytes, edges)),
        ),
        (
            "open_mapped".to_string(),
            bench_json::render_metrics(&open_mapped.throughput_metrics(file_bytes, edges)),
        ),
        (
            "speedup_open_mapped".to_string(),
            bench_json::render_number(speedup_open),
        ),
        (
            "resident_heap_delta_bytes".to_string(),
            bench_json::render_number(resident_delta),
        ),
    ];
    let path_json = bench_json::repo_root().join(bench_json::BENCH_OUTOFCORE_JSON_NAME);
    bench_json::update_section(&path_json, "outofcore", Json::object(rows))
        .expect("write BENCH_outofcore.json");
    println!("outofcore: trajectory written to {}", path_json.display());

    // The acceptance floor only binds at the full graph size: at smoke scale the mapped
    // open's fixed syscall cost is a visible fraction of the tiny file.
    if !criterion::quick_mode() {
        assert!(
            speedup_open >= 10.0,
            "mapped open must be at least 10x faster than the owned open on the 10M-pin \
             container, measured {speedup_open:.2}x"
        );
    }
}

//! Machine-readable benchmark trajectory output.
//!
//! The hot-path benches (`refinement_iteration`, `gain_computation`) record their headline
//! numbers — ops/s, ns per vertex, and an allocation-count proxy — into a single
//! `BENCH_refinement.json` at the repository root, one top-level section per bench binary.
//! Future PRs diff that file to track the performance trajectory of the refinement hot path
//! without re-parsing human-oriented bench logs.
//!
//! Files are read and written through the workspace's one JSON codec, [`shp_telemetry::json`],
//! in its expanded layout: one top-level section per bench binary, one metric row per line. A
//! bench binary only rewrites its own section; sections written by other binaries survive
//! untouched.

use shp_telemetry::export::write_atomically;
use shp_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};

/// The refinement-trajectory file name, created at the repository root.
pub const BENCH_JSON_NAME: &str = "BENCH_refinement.json";

/// The ingestion-trajectory file name (written by the `graph_ingest` bench), created at the
/// repository root.
pub const BENCH_INGEST_JSON_NAME: &str = "BENCH_ingest.json";

/// The telemetry-trajectory file name (written by the `telemetry_overhead` bench), created at
/// the repository root.
pub const BENCH_TELEMETRY_JSON_NAME: &str = "BENCH_telemetry.json";

/// The online-repartitioning trajectory file name (written by the `controller_drift` bench),
/// created at the repository root.
pub const BENCH_CONTROLLER_JSON_NAME: &str = "BENCH_controller.json";

/// The out-of-core trajectory file name (written by the `outofcore` bench: streaming `.shpb`
/// generation and mmap-vs-owned open latency/residency), created at the repository root.
pub const BENCH_OUTOFCORE_JSON_NAME: &str = "BENCH_outofcore.json";

/// The fault-tolerance trajectory file name (written by the `drill` bench: availability,
/// retries, and recovery churn through the kill → degrade → recover failure drill), created
/// at the repository root.
pub const BENCH_DRILL_JSON_NAME: &str = "BENCH_drill.json";

/// The repository root, resolved relative to this crate's manifest (`crates/bench/../..`).
pub fn repo_root() -> PathBuf {
    let raw = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    raw.canonicalize().unwrap_or(raw)
}

/// A string→number map rendered as one JSON object (a bench metric row).
pub fn render_metrics(metrics: &[(&str, f64)]) -> Json {
    Json::object(metrics.iter().map(|&(k, v)| (k, render_number(v))))
}

/// Renders an f64 as a JSON number: an integer when it is one, else 3 decimals; non-finite
/// values become `null`.
pub fn render_number(v: f64) -> Json {
    if !v.is_finite() {
        Json::Null
    } else if v == v.trunc() && v.abs() < 1e15 {
        Json::from(v as i64)
    } else {
        Json::fixed(v, 3)
    }
}

/// Reads `path` (if it exists), replaces or appends the top-level `section` with `body`, and
/// writes the file back atomically. Other sections keep their values, numbers included, so
/// rewriting an unchanged section leaves the file byte-identical. A malformed existing file is
/// replaced wholesale (the trajectory file is generated output, not a source of truth).
pub fn update_section(path: &Path, section: &str, body: Json) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections = match json::parse(&existing) {
        Ok(Json::Object(sections)) => sections,
        _ => Vec::new(),
    };
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = body,
        None => sections.push((section.to_string(), body)),
    }
    write_atomically(path, format!("{:#}\n", Json::Object(sections)).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shp_bench_json_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sections(path: &Path) -> Vec<(String, Json)> {
        let text = std::fs::read_to_string(path).unwrap();
        match json::parse(&text).expect("written file parses") {
            Json::Object(sections) => sections,
            other => panic!("expected an object, got {other}"),
        }
    }

    #[test]
    fn parse_round_trips_nested_sections() {
        let input = "{\n  \"a\": {\n    \"x\": {\"y\": [1, 2, {\"z\": \"s,tr}ing\"}]}\n  },\n  \
                     \"b\": 3.5,\n  \"c\": {\n    \"nested\": {\"deep\": true}\n  }\n}\n";
        let path = temp_file("nested");
        std::fs::write(&path, input).unwrap();
        update_section(&path, "b", Json::fixed(3.5, 1)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), input);
        update_section(&path, "d", render_metrics(&[("v", 1.0)])).unwrap();
        let expected = input.replace("\n}\n", ",\n  \"d\": {\n    \"v\": 1\n  }\n}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn update_section_preserves_other_sections() {
        let path = temp_file("update");
        update_section(&path, "one", render_metrics(&[("v", 1.0)])).unwrap();
        update_section(&path, "two", render_metrics(&[("v", 2.0)])).unwrap();
        update_section(&path, "one", render_metrics(&[("v", 9.0)])).unwrap();
        assert_eq!(
            sections(&path),
            vec![
                ("one".to_string(), render_metrics(&[("v", 9.0)])),
                ("two".to_string(), render_metrics(&[("v", 2.0)])),
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_existing_content_is_replaced() {
        let path = temp_file("bad");
        std::fs::write(&path, "not json at all").unwrap();
        update_section(&path, "s", Json::object::<String>([])).unwrap();
        assert_eq!(
            sections(&path),
            vec![("s".to_string(), Json::object::<String>([]))]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn number_rendering_is_json_safe() {
        assert_eq!(render_number(3.0).to_string(), "3");
        assert_eq!(render_number(3.25).to_string(), "3.250");
        assert_eq!(render_number(f64::INFINITY).to_string(), "null");
        assert_eq!(render_number(f64::NAN).to_string(), "null");
        assert_eq!(
            render_metrics(&[("a", 1.0), ("b", 0.5)]).to_string(),
            "{\"a\":1,\"b\":0.500}"
        );
    }

    #[test]
    fn committed_trajectory_files_rewrite_byte_identically() {
        let mut checked = 0;
        for entry in std::fs::read_dir(repo_root()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let original = std::fs::read_to_string(&path).unwrap();
            let copy = temp_file(&name);
            std::fs::write(&copy, &original).unwrap();
            for (section, body) in sections(&copy) {
                update_section(&copy, &section, body).unwrap();
            }
            assert_eq!(std::fs::read_to_string(&copy).unwrap(), original, "{name}");
            std::fs::remove_file(&copy).unwrap();
            checked += 1;
        }
        assert!(checked > 0, "no BENCH_*.json at the repository root");
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}

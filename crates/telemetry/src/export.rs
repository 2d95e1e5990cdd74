//! Snapshot exporters: Prometheus text exposition ([`to_prometheus`]) and a self-describing
//! JSON document ([`Snapshot::to_json`] / [`Snapshot::from_json`]), plus [`write_atomically`]
//! for the files they end up in.
//!
//! The JSON side builds and reads a [`Json`] tree through the workspace's one codec,
//! [`crate::json`]. Both exporters are deterministic: a [`Snapshot`] renders to byte-identical
//! output however it was produced, because snapshots hold ordered maps and `f64` values render
//! through Rust's shortest round-tripping formatter.
//!
//! ## Prometheus mapping
//!
//! * counters → `<name>_total` with `# HELP`/`# TYPE` headers;
//! * gauges → `<name>`;
//! * histograms → classic `<name>_bucket{le="..."}` cumulative series (sparse: only occupied
//!   edges, always ending in `le="+Inf"`), plus `<name>_sum` and `<name>_count`;
//! * spans → `shp_span_seconds_total` / `shp_span_count_total` / `shp_span_seconds_max`
//!   labelled `{span="<path>"}`;
//! * top keys → `shp_hot_key_hits{sketch="<name>",key="<id>"}`.
//!
//! Metric names are sanitized to `[a-zA-Z0-9_:]` and label values are escaped per the
//! exposition-format rules (`\\`, `\"`, `\n`).
//!
//! ## JSON mapping
//!
//! One top-level object with `version`, `counters`, `gauges`, `histograms`, `spans`, and
//! `top_keys` members, in the codec's expanded layout. JSON cannot carry a non-finite number,
//! so an infinite bucket edge, or a NaN or infinite gauge, serializes as the string `"inf"`,
//! `"-inf"` or `"nan"` ([`Json::float`]). [`Snapshot::from_json`] accepts exactly what
//! [`Snapshot::to_json`] produces (field order is not significant; unknown fields are
//! rejected so schema drift is caught loudly).

use crate::json::{self, Json};
use crate::registry::{HistogramSnapshot, Snapshot, SpanSnapshot, TopKeysSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_` (and prefixes `_` if the name
/// would start with a digit), yielding a valid Prometheus metric name.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders an `f64` for the exposition format (`+Inf` for infinity).
fn format_value(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Renders `snapshot` in the Prometheus text exposition format (see the module docs).
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let base = sanitize_name(name);
        let full = if base.ends_with("_total") {
            base
        } else {
            format!("{base}_total")
        };
        let _ = writeln!(out, "# HELP {full} Counter {name}");
        let _ = writeln!(out, "# TYPE {full} counter");
        let _ = writeln!(out, "{full} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let full = sanitize_name(name);
        let _ = writeln!(out, "# HELP {full} Gauge {name}");
        let _ = writeln!(out, "# TYPE {full} gauge");
        let _ = writeln!(out, "{full} {}", format_value(*value));
    }
    for (name, h) in &snapshot.histograms {
        let full = sanitize_name(name);
        let _ = writeln!(out, "# HELP {full} Histogram {name}");
        let _ = writeln!(out, "# TYPE {full} histogram");
        for &(edge, cumulative) in &h.buckets {
            let _ = writeln!(
                out,
                "{full}_bucket{{le=\"{}\"}} {cumulative}",
                format_value(edge)
            );
        }
        if h.buckets.is_empty() {
            let _ = writeln!(out, "{full}_bucket{{le=\"+Inf\"}} 0");
        }
        let _ = writeln!(out, "{full}_sum {}", format_value(h.sum));
        let _ = writeln!(out, "{full}_count {}", h.count);
    }
    if !snapshot.spans.is_empty() {
        let _ = writeln!(
            out,
            "# HELP shp_span_count_total Completed spans per phase path"
        );
        let _ = writeln!(out, "# TYPE shp_span_count_total counter");
        for (path, s) in &snapshot.spans {
            let _ = writeln!(
                out,
                "shp_span_count_total{{span=\"{}\"}} {}",
                escape_label(path),
                s.count
            );
        }
        let _ = writeln!(
            out,
            "# HELP shp_span_seconds_total Wall seconds per phase path"
        );
        let _ = writeln!(out, "# TYPE shp_span_seconds_total counter");
        for (path, s) in &snapshot.spans {
            let _ = writeln!(
                out,
                "shp_span_seconds_total{{span=\"{}\"}} {}",
                escape_label(path),
                format_value(s.total_ns as f64 / 1e9)
            );
        }
        let _ = writeln!(
            out,
            "# HELP shp_span_seconds_max Longest single span per phase path"
        );
        let _ = writeln!(out, "# TYPE shp_span_seconds_max gauge");
        for (path, s) in &snapshot.spans {
            let _ = writeln!(
                out,
                "shp_span_seconds_max{{span=\"{}\"}} {}",
                escape_label(path),
                format_value(s.max_ns as f64 / 1e9)
            );
        }
    }
    if !snapshot.top_keys.is_empty() {
        let _ = writeln!(
            out,
            "# HELP shp_hot_key_hits Approximate hits for the hottest keys"
        );
        let _ = writeln!(out, "# TYPE shp_hot_key_hits gauge");
        for (name, keys) in &snapshot.top_keys {
            for &(key, count) in &keys.entries {
                let _ = writeln!(
                    out,
                    "shp_hot_key_hits{{sketch=\"{}\",key=\"{key}\"}} {count}",
                    escape_label(name)
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn json_map<T>(map: &BTreeMap<String, T>, render: impl Fn(&T) -> Json) -> Json {
    Json::object(
        map.iter()
            .map(|(name, value)| (name.as_str(), render(value))),
    )
}

fn json_pair(a: Json, b: impl Into<Json>) -> Json {
    Json::Array(vec![a, b.into()])
}

/// Renders `snapshot` as a JSON document in the expanded layout (see the module docs for the
/// schema).
pub(crate) fn to_json(snapshot: &Snapshot) -> String {
    let document = Json::object([
        ("version", Json::from(snapshot.version)),
        ("counters", json_map(&snapshot.counters, |&v| Json::from(v))),
        ("gauges", json_map(&snapshot.gauges, |&v| Json::float(v))),
        (
            "histograms",
            json_map(&snapshot.histograms, |h| {
                Json::object([
                    ("count", Json::from(h.count)),
                    ("sum", Json::float(h.sum)),
                    ("min", Json::float(h.min)),
                    ("max", Json::float(h.max)),
                    (
                        "buckets",
                        Json::Array(
                            h.buckets
                                .iter()
                                .map(|&(edge, cumulative)| json_pair(Json::float(edge), cumulative))
                                .collect(),
                        ),
                    ),
                ])
            }),
        ),
        (
            "spans",
            json_map(&snapshot.spans, |s| {
                Json::object([
                    ("count", Json::from(s.count)),
                    ("total_ns", Json::from(s.total_ns)),
                    ("max_ns", Json::from(s.max_ns)),
                ])
            }),
        ),
        (
            "top_keys",
            json_map(&snapshot.top_keys, |keys| {
                Json::Array(
                    keys.entries
                        .iter()
                        .map(|&(key, count)| json_pair(Json::from(key), count))
                        .collect(),
                )
            }),
        ),
    ]);
    format!("{document:#}\n")
}

fn histogram_from_json(value: &Json) -> Result<HistogramSnapshot, String> {
    let mut snap = HistogramSnapshot::default();
    for (key, member) in value.as_object()? {
        match key.as_str() {
            "count" => snap.count = member.as_u64()?,
            "sum" => snap.sum = member.as_f64()?,
            "min" => snap.min = member.as_f64()?,
            "max" => snap.max = member.as_f64()?,
            "buckets" => {
                for pair in member.as_array()? {
                    let pair = pair.as_array()?;
                    if pair.len() != 2 {
                        return Err("histogram bucket must be [edge, cumulative]".to_string());
                    }
                    snap.buckets.push((pair[0].as_f64()?, pair[1].as_u64()?));
                }
            }
            other => return Err(format!("unknown histogram field {other:?}")),
        }
    }
    Ok(snap)
}

fn span_from_json(value: &Json) -> Result<SpanSnapshot, String> {
    let mut snap = SpanSnapshot::default();
    for (key, member) in value.as_object()? {
        match key.as_str() {
            "count" => snap.count = member.as_u64()?,
            "total_ns" => snap.total_ns = member.as_u64()?,
            "max_ns" => snap.max_ns = member.as_u64()?,
            other => return Err(format!("unknown span field {other:?}")),
        }
    }
    Ok(snap)
}

fn top_keys_from_json(value: &Json) -> Result<TopKeysSnapshot, String> {
    let mut snap = TopKeysSnapshot::default();
    for pair in value.as_array()? {
        let pair = pair.as_array()?;
        if pair.len() != 2 {
            return Err("top-key entry must be [key, count]".to_string());
        }
        let key =
            u32::try_from(pair[0].as_u64()?).map_err(|_| "top-key id exceeds u32".to_string())?;
        snap.entries.push((key, pair[1].as_u64()?));
    }
    Ok(snap)
}

fn string_map<T>(
    value: &Json,
    mut convert: impl FnMut(&Json) -> Result<T, String>,
) -> Result<BTreeMap<String, T>, String> {
    let mut out = BTreeMap::new();
    for (key, member) in value.as_object()? {
        out.insert(key.clone(), convert(member)?);
    }
    Ok(out)
}

/// Parses a snapshot previously rendered by [`to_json`]. Unknown fields are an error.
pub(crate) fn from_json(text: &str) -> Result<Snapshot, String> {
    let document = json::parse(text).map_err(|error| error.to_string())?;
    let mut snapshot = Snapshot::new();
    for (key, member) in document.as_object()? {
        match key.as_str() {
            "version" => snapshot.version = member.as_u64()?,
            "counters" => snapshot.counters = string_map(member, Json::as_u64)?,
            "gauges" => snapshot.gauges = string_map(member, Json::as_f64)?,
            "histograms" => snapshot.histograms = string_map(member, histogram_from_json)?,
            "spans" => snapshot.spans = string_map(member, span_from_json)?,
            "top_keys" => snapshot.top_keys = string_map(member, top_keys_from_json)?,
            other => return Err(format!("unknown snapshot field {other:?}")),
        }
    }
    Ok(snapshot)
}

/// Replaces the file at `path` with `bytes` so that a concurrent reader sees the old file or
/// the new one, never a prefix: the bytes go to a synced sibling temp file that is then
/// renamed over `path`. One writer per `path` at a time.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let temp = path.with_extension(format!("{}.tmp", std::process::id()));
    let written = File::create(&temp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&temp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built snapshot touching every member kind, an escaped name, an infinite bucket
    /// edge, an empty histogram and an empty top-key list.
    fn fixed_snapshot() -> Snapshot {
        let mut snapshot = Snapshot::new();
        snapshot.counters.insert("ingest/bytes".into(), 1_000_000);
        snapshot.counters.insert("tab\there \"q\"".into(), 0);
        snapshot.gauges.insert("serving/shard_skew".into(), 1.25);
        snapshot.gauges.insert("tiny".into(), 1e-7);
        snapshot.gauges.insert("negative".into(), -0.5);
        snapshot.histograms.insert(
            "serving/latency_ms".into(),
            HistogramSnapshot {
                count: 5,
                sum: 74.5,
                min: 0.5,
                max: 64.0,
                buckets: vec![(0.5, 1), (1.0, 3), (8.0, 4), (f64::INFINITY, 5)],
            },
        );
        snapshot.histograms.insert(
            "empty".into(),
            HistogramSnapshot {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                buckets: Vec::new(),
            },
        );
        snapshot.spans.insert(
            "partition/refinement".into(),
            SpanSnapshot {
                count: 2,
                total_ns: 2_000_000,
                max_ns: 1_500_000,
            },
        );
        snapshot.top_keys.insert(
            "serving/hot_keys".into(),
            TopKeysSnapshot {
                entries: vec![(7, 9), (3, 1)],
            },
        );
        snapshot
            .top_keys
            .insert("cold".into(), TopKeysSnapshot::default());
        snapshot
    }

    fn sample() -> Snapshot {
        let registry = crate::Registry::new();
        registry.counter("serving/queries").add(42);
        registry.counter("ingest/bytes").add(1_000_000);
        registry.gauge("serving/shard_skew").set(1.25);
        let h = registry.histogram("serving/latency_ms");
        for v in [0.5, 1.0, 1.0, 8.0, 64.0] {
            h.record(v);
        }
        registry
            .span_stats("partition/refinement")
            .record_ns(2_000_000);
        registry
            .span_stats("partition/refinement/iteration")
            .record_ns(900_000);
        let sketch = registry.sketch("serving/hot_keys", 64);
        for _ in 0..9 {
            sketch.record(7);
        }
        sketch.record(3);
        registry.snapshot()
    }

    #[test]
    fn json_round_trips_exactly() {
        let snapshot = sample();
        let rendered = to_json(&snapshot);
        let parsed = from_json(&rendered).expect("parse back");
        assert_eq!(parsed, snapshot);
        // And rendering the parsed copy is byte-identical.
        assert_eq!(to_json(&parsed), rendered);
    }

    #[test]
    fn json_rendering_is_pinned() {
        assert_eq!(to_json(&fixed_snapshot()), GOLDEN);
    }

    const GOLDEN: &str = r#"{
  "version": 1,
  "counters": {
    "ingest/bytes": 1000000,
    "tab\there \"q\"": 0
  },
  "gauges": {
    "negative": -0.5,
    "serving/shard_skew": 1.25,
    "tiny": 0.0000001
  },
  "histograms": {
    "empty": {"count": 0, "sum": 0, "min": 0, "max": 0, "buckets": []},
    "serving/latency_ms": {"count": 5, "sum": 74.5, "min": 0.5, "max": 64, "buckets": [[0.5, 1], [1, 3], [8, 4], ["inf", 5]]}
  },
  "spans": {
    "partition/refinement": {"count": 2, "total_ns": 2000000, "max_ns": 1500000}
  },
  "top_keys": {
    "cold": [],
    "serving/hot_keys": [[7, 9], [3, 1]]
  }
}
"#;

    #[test]
    fn json_round_trips_non_finite_gauges() {
        let mut snapshot = Snapshot::new();
        snapshot.gauges.insert("nan".into(), f64::NAN);
        snapshot.gauges.insert("pos".into(), f64::INFINITY);
        snapshot.gauges.insert("neg".into(), f64::NEG_INFINITY);
        let parsed = from_json(&to_json(&snapshot)).expect("non-finite gauges parse back");
        assert!(parsed.gauges["nan"].is_nan());
        assert_eq!(parsed.gauges["pos"], f64::INFINITY);
        assert_eq!(parsed.gauges["neg"], f64::NEG_INFINITY);
    }

    #[test]
    fn json_rejects_unknown_fields_and_garbage() {
        assert!(from_json("{\"bogus\": 1}").is_err());
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"version\": 1} trailing").is_err());
        assert!(from_json("{\"counters\": {\"x\": -1}}").is_err());
    }

    #[test]
    fn json_carries_infinite_bucket_edges() {
        let snapshot = sample();
        let rendered = to_json(&snapshot);
        assert!(rendered.contains("\"inf\""));
        let parsed = from_json(&rendered).unwrap();
        let buckets = &parsed.histograms["serving/latency_ms"].buckets;
        assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
    }

    #[test]
    fn json_escapes_awkward_names() {
        let mut snapshot = Snapshot::new();
        snapshot
            .counters
            .insert("weird \"name\"\\with\nstuff".to_string(), 5);
        let parsed = from_json(&to_json(&snapshot)).unwrap();
        assert_eq!(parsed.counters["weird \"name\"\\with\nstuff"], 5);
    }

    #[test]
    fn write_atomically_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("shp_write_atomically_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_atomically(&path, b"{\"version\": 0}").unwrap();
        let snapshot = sample();
        write_atomically(&path, to_json(&snapshot).as_bytes()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(from_json(&text).unwrap(), snapshot);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["metrics.json"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE serving_queries_total counter"));
        assert!(text.contains("serving_queries_total 42"));
        assert!(text.contains("# TYPE serving_shard_skew gauge"));
        assert!(text.contains("serving_shard_skew 1.25"));
        assert!(text.contains("# TYPE serving_latency_ms histogram"));
        assert!(text.contains("serving_latency_ms_count 5"));
        assert!(text.contains("le=\"+Inf\"} 5"));
        assert!(text.contains("shp_span_count_total{span=\"partition/refinement\"} 1"));
        assert!(text.contains("shp_hot_key_hits{sketch=\"serving/hot_keys\",key=\"7\"} 9"));
    }

    #[test]
    fn sanitize_and_escape_rules() {
        assert_eq!(sanitize_name("serving/latency-ms"), "serving_latency_ms");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn empty_snapshot_renders_and_parses() {
        let empty = Snapshot::new();
        let parsed = from_json(&to_json(&empty)).unwrap();
        assert_eq!(parsed, empty);
        assert_eq!(to_prometheus(&empty), "");
    }
}

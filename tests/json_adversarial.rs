//! Adversarial JSON suite: no input may panic the workspace's JSON codec.
//!
//! `json::parse` reads files other processes write (`--metrics` snapshots that `shp metrics`
//! loads, BENCH trajectory files), so every byte pattern must come back as a typed error or a
//! value, never a panic or a stack overflow. `Snapshot::from_json` sits on top of it and must
//! hold the same line. Inputs come from three generators:
//!
//! * arbitrary bytes (decoded lossily, since both entry points take `&str`);
//! * token soup drawn from JSON's own alphabet, which reaches far deeper into the grammar
//!   than uniform bytes do;
//! * truncations and byte flips of a real snapshot document.
//!
//! Whatever parses must also re-render to a document that parses back to the same value.

use proptest::prelude::*;
use shp::telemetry::json;
use shp::telemetry::{Registry, Snapshot};

/// Fragments JSON documents are made of, plus a few that are almost right.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"k\"",
    "\"inf\"",
    "\"nan\"",
    "0",
    "1",
    "-",
    "2.5",
    "1e9",
    "e",
    ".",
    "+",
    " ",
    "\n",
    "\\",
    "\\u00e9",
    "\\ud800",
    "\\n",
    "true",
    "false",
    "null",
    "nul",
    "é",
    "\u{0}",
    "\"version\"",
    "\"counters\"",
    "\"histograms\"",
    "\"buckets\"",
];

/// Parses `text` with both entry points; neither may panic, and a parsed value must survive a
/// render/parse round trip in both layouts.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = json::parse(text) {
        prop_assert_eq!(json::parse(&value.to_string()), Ok(value.clone()));
        prop_assert_eq!(json::parse(&format!("{value:#}")), Ok(value));
    }
    if let Ok(snapshot) = Snapshot::from_json(text) {
        let again = Snapshot::from_json(&snapshot.to_json());
        prop_assert!(
            again.is_ok(),
            "a parsed snapshot renders to an unparsable document"
        );
    }
    Ok(())
}

fn snapshot_document() -> String {
    let registry = Registry::new();
    registry.counter("serving/queries").add(42);
    registry.gauge("serving/shard_skew").set(f64::NAN);
    let histogram = registry.histogram("serving/latency_ms");
    for value in [0.5, 1.0, 8.0, 1e9] {
        histogram.record(value);
    }
    registry.span_stats("partition/refinement").record_ns(900);
    registry.sketch("serving/hot_keys", 8).record(7);
    registry.snapshot().to_json()
}

#[test]
fn the_fixture_document_round_trips() {
    let text = snapshot_document();
    let snapshot = Snapshot::from_json(&text).expect("fixture parses");
    assert_eq!(snapshot.to_json(), text);
}

#[test]
fn a_deep_nest_is_an_error_not_a_stack_overflow() {
    for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        assert!(Snapshot::from_json(&deep).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_token_soup_never_panics(tokens in prop::collection::vec(0usize..TOKENS.len(), 0..96)) {
        let text: String = tokens.into_iter().map(|t| TOKENS[t]).collect();
        check(&text)?;
    }

    #[test]
    fn truncated_snapshots_are_typed_errors(cut_seed in 0usize..100_000) {
        let text = snapshot_document();
        let body = text.trim_end();
        let cut = cut_seed % body.len();
        prop_assume!(body.is_char_boundary(cut));
        prop_assert!(Snapshot::from_json(&body[..cut]).is_err());
    }

    #[test]
    fn byte_flips_in_snapshots_never_panic(pos_seed in 0usize..100_000, byte in 0u8..128) {
        let mut bytes = snapshot_document().into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte;
        check(&String::from_utf8_lossy(&bytes))?;
    }
}

//! Named-metric registration ([`Registry`]) and mergeable point-in-time snapshots
//! ([`Snapshot`]).
//!
//! A registry interns metrics by name: the first `counter("x")` call allocates the counter,
//! later calls return the same `Arc`. Interning takes a lock, but only on the *registration*
//! and *scrape* paths — instrumentation sites resolve their handles once (at construction or
//! first use) and record through lock-free atomics afterwards.
//!
//! [`Registry::snapshot`] freezes everything into a [`Snapshot`]: plain owned data, ordered
//! `BTreeMap`s so every rendering of the same state is byte-identical. Snapshots merge
//! ([`Snapshot::merge`]) and export to Prometheus text or JSON (see [`crate::export`]).

use crate::span::{SpanStats, Timer};
use crate::{Counter, Gauge, Histogram, TopKSketch};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Version stamp embedded in every JSON snapshot, bumped on breaking schema changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// How many top keys a snapshot captures from each registered [`TopKSketch`].
const SNAPSHOT_TOP_KEYS: usize = 32;

type Table<T> = RwLock<BTreeMap<String, Arc<T>>>;

fn intern<T>(table: &Table<T>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(existing) = table.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(existing);
    }
    let mut map = table.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

/// A collection of named metrics (see the module docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Table<Counter>,
    gauges: Table<Gauge>,
    histograms: Table<Histogram>,
    spans: Table<SpanStats>,
    sketches: Table<TopKSketch>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name, Histogram::new)
    }

    /// The span-stats cell for span path `path`, registering it on first use.
    pub fn span_stats(&self, path: &str) -> Arc<SpanStats> {
        intern(&self.spans, path, SpanStats::default)
    }

    /// A pre-resolved [`Timer`] over the span path `path` — resolve once, record lock-free.
    pub fn timer(&self, path: &str) -> Timer {
        Timer::new(self.span_stats(path))
    }

    /// The top-K sketch named `name` with (at least) `capacity` slots, registering it on
    /// first use. The capacity of an already-registered sketch is left unchanged.
    pub fn sketch(&self, name: &str, capacity: usize) -> Arc<TopKSketch> {
        intern(&self.sketches, name, || TopKSketch::new(capacity))
    }

    /// Freezes the current state of every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.value()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.value()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), HistogramSnapshot::of(h)))
            .collect();
        let spans = self
            .spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(_, s)| s.count() > 0)
            .map(|(path, s)| {
                (
                    path.clone(),
                    SpanSnapshot {
                        count: s.count(),
                        total_ns: s.total_ns(),
                        max_ns: s.max_ns(),
                    },
                )
            })
            .collect();
        let top_keys = self
            .sketches
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    TopKeysSnapshot {
                        entries: s.top(SNAPSHOT_TOP_KEYS),
                    },
                )
            })
            .collect();
        Snapshot {
            version: SNAPSHOT_VERSION,
            counters,
            gauges,
            histograms,
            spans,
            top_keys,
        }
    }

    /// Resets every registered metric in place (registrations survive; values zero).
    pub fn reset(&self) {
        for c in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
        for s in self
            .spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            s.reset();
        }
        for s in self
            .sketches
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            s.reset();
        }
    }
}

/// Frozen state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Fixed-point-accumulated sum of observations.
    pub sum: f64,
    /// Smallest observation (clamped into the tracked range; `0.0` when empty).
    pub min: f64,
    /// Largest observation (clamped into the tracked range; `0.0` when empty).
    pub max: f64,
    /// `(exclusive upper edge, cumulative count)` per non-empty bucket, ascending, ending
    /// with an `f64::INFINITY` edge whenever `count > 0`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.cumulative_buckets(),
        }
    }

    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile estimated from the cumulative buckets, using the same rank rule as
    /// [`Histogram::quantile`] but reporting the bucket's **upper** edge (the live histogram
    /// reports the lower edge; the snapshot only stores upper edges). The true value lies
    /// within one bucket width — `2^-6` relative — of either estimate.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        for &(edge, cumulative) in &self.buckets {
            if cumulative > rank {
                return edge;
            }
        }
        self.max
    }
}

/// Frozen state of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Completed spans on this path.
    pub count: u64,
    /// Total wall nanoseconds across them.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Frozen top keys of one [`TopKSketch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopKeysSnapshot {
    /// `(key, approximate count)`, count-descending, ties by ascending key.
    pub entries: Vec<(u32, u64)>,
}

/// A point-in-time copy of a [`Registry`]'s metrics: plain data, deterministic ordering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by `/`-joined path (paths with zero completed spans are omitted).
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Top-key lists by sketch name.
    pub top_keys: BTreeMap<String, TopKeysSnapshot>,
}

impl Snapshot {
    /// Creates an empty snapshot at the current schema version.
    pub fn new() -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            ..Snapshot::default()
        }
    }

    /// Folds `other` into `self`: counters and span stats add, gauges take `other`'s value,
    /// histograms merge bucket-by-bucket, top-key lists concatenate-and-resort (count
    /// descending, ties by ascending key).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, theirs) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name.clone(), theirs.clone());
                }
                Some(mine) => merge_histograms(mine, theirs),
            }
        }
        for (path, theirs) in &other.spans {
            let mine = self.spans.entry(path.clone()).or_insert(SpanSnapshot {
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.max_ns = mine.max_ns.max(theirs.max_ns);
        }
        for (name, theirs) in &other.top_keys {
            let mine = self.top_keys.entry(name.clone()).or_default();
            let mut by_key: BTreeMap<u32, u64> = mine.entries.iter().copied().collect();
            for &(key, count) in &theirs.entries {
                *by_key.entry(key).or_insert(0) += count;
            }
            let mut entries: Vec<(u32, u64)> = by_key.into_iter().collect();
            entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            mine.entries = entries;
        }
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.top_keys.is_empty()
    }

    /// Renders the snapshot as Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }

    /// Renders the snapshot as a self-describing JSON document.
    pub fn to_json(&self) -> String {
        crate::export::to_json(self)
    }

    /// Parses a snapshot previously rendered by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        crate::export::from_json(text)
    }
}

/// Merges two cumulative-bucket histograms: de-cumulate each, add per-edge counts, then
/// re-cumulate in ascending edge order (`+Inf` last).
fn merge_histograms(mine: &mut HistogramSnapshot, theirs: &HistogramSnapshot) {
    fn per_bucket(cumulative: &[(f64, u64)]) -> Vec<(f64, u64)> {
        let mut previous = 0u64;
        cumulative
            .iter()
            .map(|&(edge, cum)| {
                let delta = cum - previous;
                previous = cum;
                (edge, delta)
            })
            .collect()
    }
    let mut by_edge: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for (edge, delta) in per_bucket(&mine.buckets)
        .into_iter()
        .chain(per_bucket(&theirs.buckets))
    {
        // Key by the edge's bit pattern: edges come from one fixed bucket grid, and
        // non-negative f64 bits order the same as the values (with +Inf largest).
        let entry = by_edge.entry(edge.to_bits()).or_insert((edge, 0));
        entry.1 += delta;
    }
    let mut cumulative = 0u64;
    mine.buckets = by_edge
        .into_values()
        .filter(|&(edge, delta)| delta > 0 || edge == f64::INFINITY)
        .map(|(edge, delta)| {
            cumulative += delta;
            (edge, cumulative)
        })
        .collect();
    // min/max are only meaningful for non-empty sides (an empty histogram reports 0.0).
    mine.min = match (mine.count, theirs.count) {
        (0, _) => theirs.min,
        (_, 0) => mine.min,
        _ => mine.min.min(theirs.min),
    };
    mine.count += theirs.count;
    mine.sum += theirs.sum;
    mine.max = mine.max.max(theirs.max);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_instance() {
        let r = Registry::new();
        let a = r.counter("x");
        a.add(5);
        let b = r.counter("x");
        assert_eq!(b.value(), 5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.counter("y").value(), 0);
    }

    #[test]
    fn snapshot_captures_all_kinds_deterministically() {
        let r = Registry::new();
        r.counter("b_count").add(2);
        r.counter("a_count").add(1);
        r.gauge("skew").set(1.5);
        r.histogram("lat").record(1.0);
        r.histogram("lat").record(4.0);
        r.span_stats("phase/a").record_ns(100);
        r.sketch("hot", 64).record(9);
        r.sketch("hot", 64).record(9);
        let snap = r.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            vec!["a_count", "b_count"]
        );
        assert_eq!(snap.gauges["skew"], 1.5);
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(snap.histograms["lat"].sum, 5.0);
        assert_eq!(snap.spans["phase/a"].total_ns, 100);
        assert_eq!(snap.top_keys["hot"].entries, vec![(9, 2)]);
        assert_eq!(snap, r.snapshot());
    }

    #[test]
    fn snapshot_quantile_matches_live_histogram_within_one_bucket() {
        let r = Registry::new();
        let h = r.histogram("q");
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let snap = HistogramSnapshot::of(&h);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let live = h.quantile(q);
            let frozen = snap.quantile(q);
            assert!(
                frozen >= live
                    && frozen <= live * (1.0 + 2.0 * crate::histogram::QUANTIZATION_ERROR),
                "q={q}: live lower edge {live}, snapshot upper edge {frozen}"
            );
        }
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let ra = Registry::new();
        let rb = Registry::new();
        ra.counter("c").add(3);
        rb.counter("c").add(4);
        rb.counter("only_b").add(1);
        for v in [1.0, 2.0] {
            ra.histogram("h").record(v);
        }
        for v in [2.0, 8.0] {
            rb.histogram("h").record(v);
        }
        ra.span_stats("s").record_ns(10);
        rb.span_stats("s").record_ns(30);
        ra.sketch("k", 64).record(1);
        rb.sketch("k", 64).record(1);
        rb.sketch("k", 64).record(2);

        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot());

        assert_eq!(merged.counters["c"], 7);
        assert_eq!(merged.counters["only_b"], 1);
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 13.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.buckets.last().unwrap(), &(f64::INFINITY, 4));
        let cums: Vec<u64> = h.buckets.iter().map(|&(_, c)| c).collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            merged.spans["s"],
            SpanSnapshot {
                count: 2,
                total_ns: 40,
                max_ns: 30
            }
        );
        assert_eq!(merged.top_keys["k"].entries, vec![(1, 2), (2, 1)]);

        // Merging the snapshots in either order gives the identical result.
        let mut reversed = rb.snapshot();
        reversed.merge(&ra.snapshot());
        assert_eq!(merged.histograms, reversed.histograms);
        assert_eq!(merged.counters, reversed.counters);
    }

    #[test]
    fn reset_preserves_registrations_but_zeroes_values() {
        let r = Registry::new();
        r.counter("c").add(9);
        r.histogram("h").record(3.0);
        r.span_stats("s").record_ns(5);
        r.reset();
        assert_eq!(r.counter("c").value(), 0);
        assert_eq!(r.histogram("h").count(), 0);
        let snap = r.snapshot();
        assert!(snap.counters.contains_key("c"));
        assert!(snap.spans.is_empty(), "zero-count spans are omitted");
    }
}

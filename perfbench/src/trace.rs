//! In-memory spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end, a parent span, the id of the run or
//! query it belongs to, and a weight: a span recorded for one sampled query out of `w` stands
//! for `w` of them when self time is summed. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Id of "no parent".
pub const ROOT: u64 = 0;

struct SpanRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    weight: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    /// Whether this is a traced run at all.
    enabled: bool,
    /// Switched off for the untraced windows a traced run uses to measure its own overhead.
    recording: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes span recording in a traced run; no effect otherwise.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(self.enabled && on, Ordering::Relaxed);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Runs `f` (which receives this span's id, for its children) and returns its result and
    /// wall time. The time is measured in every run; the span is kept only while recording.
    pub fn step<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        self.step_weighted(name, parent, op, 1, f)
    }

    pub fn step_weighted<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        weight: u32,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let record = self.recording();
        let id = if record {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if record {
            let span = SpanRecord {
                id,
                parent,
                name,
                op,
                weight,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        (out, end - start)
    }

    pub fn num_spans(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Weighted self time per layer in milliseconds: each span's duration minus the part of
    /// it its children cover, summed by the layer prefix of its name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != ROOT) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 * s.weight as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"weight\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.weight, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(5, 10), (0, 3), (2, 4), (10, 12)]), 4 + 7);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_excludes_children_and_scales_by_weight() {
        let tracer = Tracer::new(true);
        tracer.step("outer.run", ROOT, 1, |id| {
            tracer.step("inner.call", id, 1, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        tracer.step_weighted("inner.sampled", ROOT, 2, 3, |_| {
            std::thread::sleep(Duration::from_millis(10))
        });
        let by_layer = tracer.self_ms_by_layer();
        assert!(by_layer["outer"] < 10.0, "{by_layer:?}");
        assert!(by_layer["inner"] >= 20.0 + 30.0, "{by_layer:?}");
    }

    #[test]
    fn untraced_runs_time_but_keep_no_spans() {
        let tracer = Tracer::new(false);
        let ((), took) = tracer.step("a.b", ROOT, 0, |_| {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(took >= Duration::from_millis(1));
        assert_eq!(tracer.num_spans(), 0);
    }
}

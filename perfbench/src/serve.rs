//! Serving: a `ServingEngine` with an access-trace collector, closed-loop clients replaying
//! `shp serve`'s query schedule, and controller epochs run inline by the first client. Used
//! by the `serve-live` workload and by the serving phase of the partitioning workloads.

use crate::partition::{generate, open, EPSILON};
use crate::stats::{histogram_quantile, median};
use crate::trace::ROOT;
use crate::{probe, Ctx, Report, CLIENTS};
use shp_baselines::RandomPartitioner;
use shp_controller::{
    AccessTraceCollector, ControllerConfig, EpochOutcome, RepartitionController, TraceStats,
};
use shp_core::{partition_incremental, IncrementalConfig, ShpConfig};
use shp_datagen::Dataset;
use shp_hypergraph::{average_fanout, BipartiteGraph, Partition};
use shp_serving::{
    open_loop_schedule, value_of, CacheStats, EngineConfig, MultigetResult, PartitionDelta,
    ServingEngine, WorkloadConfig,
};
use shp_telemetry::{Histogram, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CACHE_CAPACITY: usize = 1024;
const MIGRATION_BUDGET: usize = 512;
/// Reservoir slots of the access-trace collector: what `shp serve` uses for epochs of
/// 100k multigets.
pub const RESERVOIR_SLOTS: usize = 4096;
/// Arrivals in a replayed schedule before it starts over.
const SCHEDULE_EVENTS: f64 = 1_000_000.0;
/// Shards of the `serve-live` engine.
const LIVE_SHARDS: u32 = 16;
const LIVE_SCALE: f64 = 1.0;
const LIVE_QUICK_SCALE: f64 = 0.05;
const LIVE_EPOCH_EVERY: u64 = 100_000;
const LIVE_SETUP_REPS: usize = 7;
const WARMUP_MULTIGETS: u64 = 20_000;
/// A traced run records a span for one multiget in this many (weighted to stand for all).
const SPAN_EVERY: u64 = 256;
/// Latency samples are kept per window; per-window figures are reported as medians.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The query templates the clients replay, in order: the open-loop schedule `shp serve`
/// draws its multigets from, with its default skew (a 5% hot set takes 30% of the
/// arrivals, which is what the hot-key cache is for), stretched to about
/// [`SCHEDULE_EVENTS`] arrivals and cycled.
pub struct Traffic(Vec<u32>);

impl Traffic {
    pub fn new(queries: &BipartiteGraph, seed: u64) -> Result<Self, String> {
        let defaults = WorkloadConfig::default();
        let config = WorkloadConfig {
            duration: SCHEDULE_EVENTS / defaults.arrival_rate,
            seed,
            ..defaults
        };
        let schedule = open_loop_schedule(queries.num_queries(), &config);
        if schedule.is_empty() {
            return Err("the query schedule is empty".into());
        }
        Ok(Traffic(schedule.into_iter().map(|e| e.query).collect()))
    }

    /// The query template of the `n`-th multiget.
    pub fn query(&self, n: u64) -> u32 {
        self.0[(n % self.0.len() as u64) as usize]
    }
}

/// An engine and the collector attached to it as its access observer.
pub struct Serving {
    pub engine: ServingEngine,
    pub collector: Arc<AccessTraceCollector>,
}

impl Serving {
    pub fn build(partition: &Partition, seed: u64) -> Result<Self, String> {
        let collector = Arc::new(AccessTraceCollector::new(RESERVOIR_SLOTS, seed));
        let config = EngineConfig {
            cache_capacity: CACHE_CAPACITY,
            seed,
            ..EngineConfig::default()
        };
        let engine = ServingEngine::new(partition, config)
            .map_err(|e| format!("building the engine: {e}"))?
            .with_access_observer(collector.clone());
        Ok(Serving { engine, collector })
    }
}

pub fn controller_config() -> ControllerConfig {
    ControllerConfig {
        migration_budget: MIGRATION_BUDGET,
        ..ControllerConfig::default()
    }
}

/// Checks a multiget of the (strictly ascending) `keys`: every key answered, in order, with
/// its record.
fn verify(keys: &[u32], result: &MultigetResult) -> Result<(), String> {
    if !result.missing_keys.is_empty() {
        return Err(format!("{} keys missing", result.missing_keys.len()));
    }
    if result.values.len() != keys.len() {
        return Err(format!(
            "{} values for {} keys",
            result.values.len(),
            keys.len()
        ));
    }
    for (&(key, value), &asked) in result.values.iter().zip(keys) {
        if key != asked || value != value_of(asked) {
            return Err(format!("key {asked}: got ({key}, {value})"));
        }
    }
    Ok(())
}

/// Query templates must be strictly ascending key lists for [`verify`].
fn check_templates(graph: &BipartiteGraph) -> Result<(), String> {
    (0..graph.num_queries() as u32)
        .all(|q| graph.query_neighbors(q).windows(2).all(|w| w[0] < w[1]))
        .then_some(())
        .ok_or_else(|| "query templates are not strictly ascending key lists".to_string())
}

/// Serves multigets `from..from + count` of `traffic`, single-threaded and unchecked, on
/// each engine in turn.
fn replay(
    engines: &[&Serving],
    queries: &BipartiteGraph,
    traffic: &Traffic,
    from: u64,
    count: u64,
) -> Result<(), String> {
    for n in from..from + count {
        let keys = queries.query_neighbors(traffic.query(n));
        for s in engines {
            s.engine.multiget(keys).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One controller epoch.
pub struct Epoch {
    pub total_s: f64,
    /// The engine's epoch before this one installed.
    base_epoch: u64,
    outcome: EpochOutcome,
    /// Step times and refinement counts: only in a traced run (see [`epoch_steps`]).
    steps: Option<EpochSteps>,
}

pub struct EpochSteps {
    pub observed_s: f64,
    pub incremental_s: f64,
    pub delta_s: f64,
    pub install_s: f64,
    pub iterations: usize,
    pub moved: usize,
    pub candidates: usize,
}

/// Runs one epoch. An untraced run times `RepartitionController::run_epoch`, the call
/// `shp serve` makes; a traced run makes the same public calls one by one, so that it can
/// time each step. `Ok(None)` when the collector has sampled nothing yet.
fn run_epoch(
    ctx: &Ctx,
    controller: &mut RepartitionController,
    serving: &Serving,
    op: u64,
) -> Result<Option<Epoch>, String> {
    if ctx.tracer.enabled() {
        return epoch_steps(ctx, serving, op);
    }
    let base_epoch = serving.engine.current_snapshot().epoch();
    let (outcome, took) = ctx.tracer.step("controller.run_epoch", ROOT, op, |_| {
        controller.run_epoch(&serving.engine)
    });
    let outcome = outcome.map_err(|e| format!("run_epoch: {e}"))?;
    Ok(outcome.map(|outcome| Epoch {
        total_s: took.as_secs_f64(),
        base_epoch,
        outcome,
        steps: None,
    }))
}

/// One epoch made of the public calls `RepartitionController::run_epoch` makes (observed
/// graph → incremental partition → delta → install → trace reset), each timed.
/// `check_epoch_matches_controller` checks that the two install the same placement.
fn epoch_steps(ctx: &Ctx, serving: &Serving, op: u64) -> Result<Option<Epoch>, String> {
    let tracer = &ctx.tracer;
    let config = controller_config();
    let (result, total) = tracer.step("controller.epoch", ROOT, op, |id| {
        let (observed, observed_t) = tracer.step("controller.observed_graph", id, op, |_| {
            serving.collector.observed_graph(serving.engine.num_keys())
        });
        let Some(graph) = observed.map_err(|e| format!("observed graph: {e}"))? else {
            return Ok::<_, String>(None);
        };
        let snapshot = serving.engine.current_snapshot();
        let live = Partition::from_assignment(&graph, snapshot.num_shards(), snapshot.assignment())
            .map_err(|e| format!("live placement: {e}"))?;
        let mut shp = ShpConfig::direct(snapshot.num_shards())
            .with_seed(config.seed ^ snapshot.epoch())
            .with_max_iterations(config.max_iterations);
        shp.epsilon = config.epsilon;
        let incremental = IncrementalConfig {
            movement_penalty: config.movement_penalty,
            max_moved_fraction: 1.0,
            max_moves: Some(config.migration_budget),
        };
        let (result, incremental_t) = tracer.step("core.partition_incremental", id, op, |_| {
            partition_incremental(&graph, &shp, &incremental, &live)
        });
        let result = result.map_err(|e| format!("incremental partition: {e}"))?;
        let (delta, delta_t) = tracer.step("serving.partition_delta", id, op, |_| {
            PartitionDelta::between(&snapshot, &result.partition)
        });
        let delta = delta.map_err(|e| format!("delta: {e}"))?;
        let (installed, install_t) = tracer.step("serving.install_delta", id, op, |_| {
            serving.engine.install_delta(&delta)
        });
        let installed = installed.map_err(|e| format!("installing the delta: {e}"))?;
        serving.collector.reset();
        let history = &result.report.history;
        Ok(Some(Epoch {
            total_s: f64::NAN, // set below, once the epoch span has closed
            base_epoch: snapshot.epoch(),
            outcome: EpochOutcome {
                epoch: installed,
                moved_keys: delta.len(),
                observed_queries: graph.num_queries(),
                fanout_before: average_fanout(&graph, &live),
                fanout_after: average_fanout(&graph, &result.partition),
            },
            steps: Some(EpochSteps {
                observed_s: observed_t.as_secs_f64(),
                incremental_s: incremental_t.as_secs_f64(),
                delta_s: delta_t.as_secs_f64(),
                install_s: install_t.as_secs_f64(),
                iterations: history.len(),
                moved: history.iter().map(|s| s.moved).sum(),
                candidates: history.iter().map(|s| s.candidates).sum(),
            }),
        }))
    });
    Ok(result?.map(|mut e| {
        e.total_s = total.as_secs_f64();
        e
    }))
}

/// Checks an epoch: within the migration budget, a newer epoch than it started from, and
/// no worse fanout on the traffic it observed.
fn check_epoch(e: &Epoch) -> Result<(), String> {
    let o = &e.outcome;
    if o.moved_keys > MIGRATION_BUDGET {
        return Err(format!(
            "moved {} keys, budget {MIGRATION_BUDGET}",
            o.moved_keys
        ));
    }
    if o.epoch <= e.base_epoch {
        return Err(format!(
            "installed epoch {} after {}",
            o.epoch, e.base_epoch
        ));
    }
    if o.fanout_after > o.fanout_before + 1e-9 {
        return Err(format!(
            "observed fanout regressed from {} to {}",
            o.fanout_before, o.fanout_after
        ));
    }
    Ok(())
}

/// What the serving loops of a run measured, accumulated over every [`serve_loop`] call.
pub struct Served {
    traffic: Traffic,
    /// The event of `traffic` the first loop starts at.
    first_event: u64,
    /// Client-side multiget latencies in µs of each full window (both clients), and
    /// whether the window recorded spans.
    windows: Vec<(Histogram, bool)>,
    multigets: u64,
    epochs: Vec<Epoch>,
    export_ms: Vec<f64>,
    export_bytes: Vec<f64>,
    trace_before: TraceStats,
    trace_after: TraceStats,
    cache_before: CacheStats,
    cache_after: CacheStats,
}

impl Served {
    /// Starts accumulating: checks the query templates, resets the engine's per-query
    /// metrics and notes the collector and cache counters. The loops replay `traffic` from
    /// event `first_event` on.
    pub fn start(
        serving: &Serving,
        queries: &BipartiteGraph,
        traffic: Traffic,
        first_event: u64,
    ) -> Result<Self, String> {
        check_templates(queries)?;
        let trace = serving.collector.stats();
        let cache = serving.engine.report().cache;
        serving.engine.reset_metrics();
        Ok(Served {
            traffic,
            first_event,
            windows: Vec::new(),
            multigets: 0,
            epochs: Vec::new(),
            export_ms: Vec::new(),
            export_bytes: Vec::new(),
            trace_before: trace,
            trace_after: trace,
            cache_before: cache,
            cache_after: cache,
        })
    }

    /// The first event of `traffic` no loop has served yet.
    fn next_event(&self) -> u64 {
        self.first_event + self.multigets
    }
}

struct ClientOut {
    multigets: u64,
    failed: u64,
    failure: Option<String>,
    epochs: Vec<Epoch>,
    exports: Vec<(f64, usize)>,
    epoch_failures: Vec<String>,
}

/// Runs `CLIENTS` closed-loop clients for `duration`, taking the next multigets of the
/// run's traffic in turn; the first client also runs a controller epoch (plus one
/// telemetry export) every `epoch_every` multigets served in total. In a traced run, spans
/// are recorded in even windows only, so odd windows give the untraced throughput. Adds
/// what it measured to `served`.
pub fn serve_loop(
    ctx: &Ctx,
    serving: &Serving,
    queries: &BipartiteGraph,
    duration: Duration,
    epoch_every: u64,
    served: &mut Served,
    report: &mut Report,
) {
    let windows: Vec<Histogram> = (0..duration.as_nanos() / WINDOW.as_nanos())
        .map(|_| Histogram::new())
        .collect();
    let total = AtomicU64::new(served.multigets);
    let clients = Clients {
        ctx,
        serving,
        queries,
        traffic: &served.traffic,
        first_event: served.first_event,
        windows: &windows,
        total: &total,
        start: Instant::now(),
        duration,
        epoch_every,
    };
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let clients = &clients;
                scope.spawn(move || clients.run(client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    ctx.tracer.set_recording(true);

    served.multigets = total.into_inner();
    for out in outs {
        report.checks(out.multigets, out.failed, || {
            out.failure.unwrap_or_default()
        });
        for e in &out.epochs {
            let checked = check_epoch(e);
            report.check(checked.is_ok(), || {
                format!("epoch: {}", checked.unwrap_err())
            });
        }
        for failure in out.epoch_failures {
            report.check(false, || failure);
        }
        for (ms, bytes) in out.exports {
            served.export_ms.push(ms);
            served.export_bytes.push(bytes as f64);
        }
        served.epochs.extend(out.epochs);
    }
    served.windows.extend(
        windows
            .into_iter()
            .enumerate()
            .map(|(i, hist)| (hist, i.is_multiple_of(2))),
    );
    served.trace_after = serving.collector.stats();
    served.cache_after = serving.engine.report().cache;
}

/// What the clients of one [`serve_loop`] share.
struct Clients<'a> {
    ctx: &'a Ctx,
    serving: &'a Serving,
    queries: &'a BipartiteGraph,
    traffic: &'a Traffic,
    first_event: u64,
    windows: &'a [Histogram],
    /// Multigets taken so far by all clients, across loops.
    total: &'a AtomicU64,
    start: Instant,
    duration: Duration,
    epoch_every: u64,
}

impl Clients<'_> {
    fn run(&self, client: usize) -> ClientOut {
        let Clients {
            ctx,
            serving,
            queries,
            traffic,
            ..
        } = *self;
        let tracer = &ctx.tracer;
        let mut controller =
            RepartitionController::new(serving.collector.clone(), controller_config());
        let mut out = ClientOut {
            multigets: 0,
            failed: 0,
            failure: None,
            epochs: Vec::new(),
            exports: Vec::new(),
            epoch_failures: Vec::new(),
        };
        let every = self.epoch_every;
        let mut next_epoch = (self.total.load(Ordering::Relaxed) / every + 1) * every;
        loop {
            let now = self.start.elapsed();
            if now >= self.duration {
                break;
            }
            let window = (now.as_nanos() / WINDOW.as_nanos()) as usize;
            if client == 0 {
                tracer.set_recording(window.is_multiple_of(2));
            }
            let n = self.total.fetch_add(1, Ordering::Relaxed);
            let q = traffic.query(self.first_event + n);
            let keys = queries.query_neighbors(q);
            let (result, took) = if out.multigets.is_multiple_of(SPAN_EVERY) {
                tracer.step_weighted(
                    "serving.multiget",
                    ROOT,
                    q as u64,
                    SPAN_EVERY as u32,
                    |_| serving.engine.multiget(keys),
                )
            } else {
                let t = Instant::now();
                let result = serving.engine.multiget(keys);
                (result, t.elapsed())
            };
            if let Some(hist) = self.windows.get(window) {
                hist.record(took.as_secs_f64() * 1e6);
            }
            out.multigets += 1;
            if let Err(err) = result
                .map_err(|e| e.to_string())
                .and_then(|r| verify(keys, &r))
            {
                out.failed += 1;
                out.failure
                    .get_or_insert_with(|| format!("multiget of query {q}: {err}"));
            }
            if client == 0 && n + 1 >= next_epoch {
                next_epoch = ((n + 1) / every + 1) * every;
                match run_epoch(ctx, &mut controller, serving, n + 1) {
                    Ok(Some(e)) => out.epochs.push(e),
                    Ok(None) => {}
                    Err(err) => out.epoch_failures.push(err),
                }
                let (json, took) = tracer.step("telemetry.export", ROOT, n + 1, |_| {
                    serving
                        .engine
                        .telemetry_snapshot("serving/perfbench")
                        .to_json()
                });
                if Snapshot::from_json(&json).is_err() {
                    out.epoch_failures
                        .push("telemetry export does not parse back".into());
                }
                out.exports.push((took.as_secs_f64() * 1e3, json.len()));
            }
        }
        out
    }
}

impl Served {
    /// Median over the full windows of a per-window figure.
    fn per_window(&self, f: impl Fn(&Histogram) -> f64) -> f64 {
        median(&self.windows.iter().map(|(h, _)| f(h)).collect::<Vec<_>>())
    }

    /// Untraced over traced median window throughput, minus one.
    fn tracing_overhead(&self) -> f64 {
        let qps = |traced: bool| {
            let values: Vec<f64> = self
                .windows
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(h, _)| h.count() as f64)
                .collect();
            median(&values)
        };
        qps(false) / qps(true) - 1.0
    }

    fn epoch_s(&self) -> f64 {
        median(&self.epochs.iter().map(|e| e.total_s).collect::<Vec<_>>())
    }
}

/// End-to-end serving metrics of a loop.
pub fn report_serving(serving: &Serving, served: &Served, report: &mut Report) {
    let engine = serving.engine.report();
    let window_s = WINDOW.as_secs_f64();
    report.e2e(
        "serve_qps",
        served.per_window(|h| h.count() as f64 / window_s),
        "1/s",
    );
    report.e2e(
        "multiget_p50_us",
        served.per_window(|h| histogram_quantile(&h.cumulative_buckets(), 0.5)),
        "us",
    );
    report.e2e(
        "multiget_p99_us",
        served.per_window(|h| histogram_quantile(&h.cumulative_buckets(), 0.99)),
        "us",
    );
    report.e2e("serve_fanout", engine.mean_fanout, "shards");
    // `ServingReport::p99` is a bucket edge of the engine's latency histogram; the same
    // histogram, as the engine exports it, gives the figure inside the bucket.
    let exported = serving.engine.telemetry_snapshot("serving/perfbench");
    let sim_p99 = exported
        .histograms
        .get("serving/perfbench/latency")
        .map_or(f64::NAN, |h| histogram_quantile(&h.buckets, 0.99));
    report.e2e("sim_p99_t", sim_p99, "t");
    report.e2e("epoch_s", served.epoch_s(), "s");
    report.check(!served.epochs.is_empty(), || {
        "no controller epoch ran".into()
    });
    report.note("epochs", served.epochs.len().to_string());
    report.note("multigets", served.multigets.to_string());
    let per_window: Vec<String> = served
        .windows
        .iter()
        .map(|(h, _)| h.count().to_string())
        .collect();
    report.note("window_multigets", format!("[{}]", per_window.join(",")));
}

/// Replays the next traffic into two fresh engines on the current placement, runs one
/// epoch through [`epoch_steps`] on the first and `RepartitionController::run_epoch` on the
/// second, and checks that both install the same placement.
fn check_epoch_matches_controller(
    ctx: &Ctx,
    serving: &Serving,
    queries: &BipartiteGraph,
    served: &Served,
    report: &mut Report,
) {
    let outcome = (|| {
        let snapshot = serving.engine.current_snapshot();
        let placement =
            Partition::from_assignment(queries, snapshot.num_shards(), snapshot.assignment())
                .map_err(|e| e.to_string())?;
        let ours = Serving::build(&placement, ctx.seed)?;
        let theirs = Serving::build(&placement, ctx.seed)?;
        replay(
            &[&ours, &theirs],
            queries,
            &served.traffic,
            served.next_event(),
            WARMUP_MULTIGETS,
        )?;
        let mine = epoch_steps(ctx, &ours, 0)?.ok_or("no epoch from the benchmark")?;
        let mut controller =
            RepartitionController::new(theirs.collector.clone(), controller_config());
        let reference = controller
            .run_epoch(&theirs.engine)
            .map_err(|e| e.to_string())?
            .ok_or("no epoch from the controller")?;
        let same = mine.outcome == reference
            && ours.engine.current_snapshot().assignment()
                == theirs.engine.current_snapshot().assignment();
        same.then_some(()).ok_or_else(|| {
            format!(
                "epoch moved {} keys, controller moved {}",
                mine.outcome.moved_keys, reference.moved_keys
            )
        })
    })();
    report.check(outcome.is_ok(), || {
        format!(
            "epoch steps vs RepartitionController::run_epoch: {}",
            outcome.unwrap_err()
        )
    });
}

/// Per-layer serving, telemetry and controller metrics of a loop, plus the check that the
/// traced run's step-by-step epochs equal the controller's.
pub fn report_serving_layers(
    ctx: &Ctx,
    serving: &Serving,
    queries: &BipartiteGraph,
    served: &Served,
    report: &mut Report,
) {
    check_epoch_matches_controller(ctx, serving, queries, served, report);
    probe::serving_calls(ctx, serving, queries, &served.traffic, report);
    let (before, after) = (&served.cache_before, &served.cache_after);
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    report.layer("serving.cache_hit_rate", hits / lookups, "1");
    let (before, after) = (&served.trace_before, &served.trace_after);
    let recorded = (after.recorded - before.recorded) as f64;
    report.layer(
        "controller.sampled_share",
        (after.sampled - before.sampled) as f64 / recorded,
        "1",
    );
    report.layer(
        "controller.contended_share",
        (after.contended - before.contended) as f64 / recorded,
        "1",
    );
    let steps: Vec<&EpochSteps> = served
        .epochs
        .iter()
        .filter_map(|e| e.steps.as_ref())
        .collect();
    let ms =
        |f: fn(&EpochSteps) -> f64| median(&steps.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>());
    report.layer("controller.observed_graph_ms", ms(|s| s.observed_s), "ms");
    report.layer("controller.incremental_ms", ms(|s| s.incremental_s), "ms");
    report.layer("controller.delta_ms", ms(|s| s.delta_s), "ms");
    report.layer("serving.install_delta_ms", ms(|s| s.install_s), "ms");
    let moved: Vec<f64> = served
        .epochs
        .iter()
        .map(|e| e.outcome.moved_keys as f64)
        .collect();
    report.layer("controller.moved_keys", median(&moved), "count");
    report.layer("telemetry.export_ms", median(&served.export_ms), "ms");
    report.layer(
        "telemetry.export_bytes",
        median(&served.export_bytes),
        "bytes",
    );
}

/// The `serve-live` workload.
pub fn run_live(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let scale = if ctx.quick {
        LIVE_QUICK_SCALE
    } else {
        LIVE_SCALE
    };
    let path = ctx.work.join("graph.shpb");
    let warmup = if ctx.quick {
        WARMUP_MULTIGETS / 10
    } else {
        WARMUP_MULTIGETS
    };
    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    let mut map_ms = Vec::new();
    let mut live = None;
    for rep in 0..if ctx.quick { 2 } else { LIVE_SETUP_REPS } {
        let op = rep as u64;
        // Each set-up builds the whole state anew, so the previous one goes first: peak
        // memory is then one set-up's, not two.
        drop(live.take());
        let (built, took) = tracer.step("bench.setup", ROOT, op, |id| {
            generate_s
                .push(generate(ctx, Dataset::WebStanford, scale, &path, id, op)?.as_secs_f64());
            let (graph, opened) = open(ctx, true, &path, id, op)?;
            map_ms.push(opened.as_secs_f64() * 1e3);
            // `shp serve`'s baseline placement: the registry's `random` partitioner.
            let placement =
                RandomPartitioner::new(ctx.seed).partition_into(&graph, LIVE_SHARDS, EPSILON);
            let traffic = Traffic::new(&graph, ctx.seed)?;
            let (serving, _) = tracer.step("serving.engine_build", id, op, |_| {
                Serving::build(&placement, ctx.seed)
            });
            let serving = serving?;
            replay(&[&serving], &graph, &traffic, 0, warmup)?;
            serving.collector.reset();
            Ok::<_, String>((graph, traffic, serving))
        });
        live = Some(built?);
        setups.push(took.as_secs_f64());
    }
    let (graph, traffic, serving) = live.expect("at least one set-up ran");
    let initial = serving.engine.current_snapshot();
    let epoch_every = if ctx.quick {
        LIVE_EPOCH_EVERY / 10
    } else {
        LIVE_EPOCH_EVERY
    };
    let mut served = Served::start(&serving, &graph, traffic, warmup)?;
    serve_loop(
        ctx,
        &serving,
        &graph,
        Duration::from_secs_f64(ctx.seconds),
        epoch_every,
        &mut served,
        report,
    );
    let snapshot = serving.engine.current_snapshot();
    let placement = Partition::from_assignment(&graph, LIVE_SHARDS, snapshot.assignment())
        .map_err(|e| format!("final placement: {e}"))?;

    report.e2e("setup_s", median(&setups), "s");
    // The only partitioning this workload does is the controller's: each epoch.
    report.e2e("partition_s", served.epoch_s(), "s");
    report.e2e("fanout", average_fanout(&graph, &placement), "1");
    report_serving(&serving, &served, report);

    if !tracer.enabled() {
        return Ok(());
    }
    report.layer("datagen.stream_generate_s", median(&generate_s), "s");
    report.layer("hypergraph.map_shpb_ms", median(&map_ms), "ms");
    let read_ms = open(ctx, false, &path, ROOT, 0)?.1.as_secs_f64() * 1e3;
    report.layer("hypergraph.read_shpb_ms", read_ms, "ms");
    let (written, wrote) = tracer.step("hypergraph.write_partition", ROOT, 0, |_| {
        shp_hypergraph::io::write_partition_file(&placement, ctx.work.join("live.part"))
    });
    written.map_err(|e| format!("writing the live placement: {e}"))?;
    report.layer(
        "hypergraph.write_partition_ms",
        wrote.as_secs_f64() * 1e3,
        "ms",
    );
    probe::report_vertex_centric_absent(report);

    let steps: Vec<&EpochSteps> = served
        .epochs
        .iter()
        .filter_map(|e| e.steps.as_ref())
        .collect();
    let iterations: usize = steps.iter().map(|s| s.iterations).sum();
    report.layer(
        "core.iterations",
        iterations as f64 / steps.len() as f64,
        "count",
    );
    let moved: usize = steps.iter().map(|s| s.moved).sum();
    let candidates: usize = steps.iter().map(|s| s.candidates).sum();
    report.layer(
        "core.moved_per_candidate",
        moved as f64 / candidates as f64,
        "1",
    );
    let incremental: f64 = steps.iter().map(|s| s.incremental_s).sum();
    let total: f64 = served.epochs.iter().map(|e| e.total_s).sum();
    report.layer("core.refinement_share", incremental / total, "1");

    // The stage probes run the incremental kernel the epochs run, on the traffic observed
    // after the loop: from the first epoch's starting placement (`first`) and from the
    // final one (`last`).
    replay(
        &[&serving],
        &graph,
        &served.traffic,
        served.next_event(),
        warmup,
    )?;
    let observed = serving
        .collector
        .observed_graph(serving.engine.num_keys())
        .map_err(|e| format!("observed graph: {e}"))?
        .ok_or("nothing observed")?;
    let config = controller_config();
    let levels = [("first", &initial), ("last", &snapshot)]
        .into_iter()
        .map(|(label, s)| {
            probe::incremental_level(label, &observed, s.assignment(), s.epoch(), &config)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shp = ShpConfig::direct(LIVE_SHARDS).with_max_iterations(config.max_iterations);
    probe::core_levels(ctx, &observed, &levels, &shp, report);
    probe::balance_repair(ctx, placement, config.epsilon, report);
    report_serving_layers(ctx, &serving, &graph, &served, report);
    probe::self_times(ctx, served.tracing_overhead(), report);
    Ok(())
}

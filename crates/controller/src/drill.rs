//! The kill → degrade → recover failure drill: a replicated engine serves through a scripted
//! shard crash while the controller drains the dead shard under a hard migration budget.
//!
//! ## The incident script
//!
//! Four phases of `queries_per_phase` multigets run against one replicated engine
//! (`replication ≥ 2`), all driven by a deterministic [`FaultPlan`] whose clock is the
//! engine's query tick:
//!
//! 1. **baseline** — every shard healthy; records the pre-incident fanout and p99.
//! 2. **incident** — `dead_shard` crashes at the phase boundary and `slow_shard`
//!    serves `slow_factor`× slower for the whole phase. Failover routing keeps every
//!    query complete (availability stays at 1.0 with `replication = 2`), at the cost of
//!    retries against the dead shard and hedged duplicates against the slow one.
//! 3. **recovery** — the controller drains the dead shard with
//!    [`RepartitionController::recover_dead_shard`], moving at most `migration_budget`
//!    keys per epoch, every `recover_every` queries, until the shard holds nothing.
//! 4. **post** — the dead shard is still down but empty, so no query touches it:
//!    retries stop and fanout returns to the baseline.
//!
//! A separate **degraded leg** replays the baseline and incident phases on an
//! unreplicated (`replication = 1`) engine with the same fault plan: with no replica to
//! fail over to, every query touching the dead shard comes back as a typed partial
//! result. The leg cross-checks the engine's `missing_keys` against the exact set of
//! requested keys placed on the dead shard — graceful degradation must be *precise*,
//! not just non-crashing.
//!
//! Every returned value (on both legs) is verified against
//! [`value_of`](shp_serving::value_of); `wrong_values` in the report must be zero — a
//! failover or hedge must never serve a stale or corrupt record.
//!
//! The whole drill is deterministic for a given config (single serving thread, seeded
//! RNG, tick-scripted faults), so CI asserts the headline numbers instead of just
//! running them.

use crate::controller::{ControllerConfig, RepartitionController};
use crate::trace::AccessTraceCollector;
use rand::Rng;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_core::{ShpError, ShpResult};
use shp_faults::{FaultInjector, FaultPlan};
use shp_hypergraph::{GraphBuilder, Partition};
use shp_serving::{value_of, EngineConfig, ServingEngine};
use shp_telemetry::Snapshot;
use std::sync::Arc;

/// Configuration of a [`run_drill_scenario`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillConfig {
    /// Number of co-access communities. Must be a positive multiple of `shards`.
    pub communities: u32,
    /// Keys per community (`communities * community_size` keys total).
    pub community_size: u32,
    /// Serving shards. At least 2 (a drill needs a survivor).
    pub shards: u32,
    /// Replica chain length of the main engine (`≥ 2` for the availability story).
    pub replication: u32,
    /// Multigets served per phase (also the fault plan's phase length in query ticks).
    pub queries_per_phase: usize,
    /// Distinct keys per multiget.
    pub keys_per_query: usize,
    /// Shard that crashes at the start of the incident phase and stays down.
    pub dead_shard: u32,
    /// Shard that serves slowly during the incident phase (must differ from `dead_shard`).
    pub slow_shard: u32,
    /// Latency multiplier of `slow_shard` during the incident phase (`> 1`).
    pub slow_factor: f64,
    /// Hard cap on keys moved per recovery epoch.
    pub migration_budget: usize,
    /// Recovery cadence: one `recover_dead_shard` epoch every this many queries.
    pub recover_every: usize,
    /// Seed for the workload RNG, engine, fault injector, and controller.
    pub seed: u64,
}

impl Default for DrillConfig {
    fn default() -> Self {
        DrillConfig {
            communities: 8,
            community_size: 64,
            shards: 4,
            replication: 2,
            queries_per_phase: 1_200,
            keys_per_query: 6,
            dead_shard: 1,
            slow_shard: 2,
            slow_factor: 4.0,
            migration_budget: 64,
            recover_every: 150,
            seed: 0xD817,
        }
    }
}

impl DrillConfig {
    /// Total keys the scenario serves.
    pub fn num_keys(&self) -> usize {
        (self.communities * self.community_size) as usize
    }

    /// A smaller, faster variant for CI smoke runs (same structure, ~4× less work).
    pub fn quick(mut self) -> Self {
        self.community_size = 32;
        self.queries_per_phase = 400;
        self.migration_budget = 32;
        self.recover_every = 100;
        self
    }
}

/// Per-phase serving numbers of the replicated leg.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillPhase {
    /// Phase index (0-based).
    pub phase: usize,
    /// Phase name: `baseline`, `incident`, `recovery`, or `post`.
    pub name: String,
    /// Mean fanout over the phase's multigets.
    pub mean_fanout: f64,
    /// p99 latency (units of the latency model's `t`).
    pub p99: f64,
    /// Fraction of the phase's queries that came back complete.
    pub availability: f64,
    /// Queries that came back with at least one unreachable key.
    pub degraded_queries: u64,
    /// Failover attempts past each batch's primary.
    pub retries: u64,
    /// Hedged duplicates that beat the straggler they were racing.
    pub hedges_won: u64,
}

/// The full drill result. `PartialEq` over every field makes whole-report determinism
/// assertions possible.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillReport {
    /// One entry per phase, in order: baseline, incident, recovery, post.
    pub phases: Vec<DrillPhase>,
    /// Returned values that disagreed with [`value_of`] anywhere in the drill. Must be 0:
    /// failover and hedging may degrade availability, never correctness.
    pub wrong_values: usize,
    /// Availability of the unreplicated leg over the incident phase (expected well below
    /// 1.0 — this is what the drill's replication buys).
    pub degraded_leg_availability: f64,
    /// Degraded queries of the unreplicated leg over the incident phase.
    pub degraded_leg_degraded: u64,
    /// Leg queries whose typed `missing_keys` differed from the exact set of requested
    /// keys placed on the dead shard. Must be 0: partial results are precise.
    pub missing_mismatches: usize,
    /// Recovery epochs that moved at least one key.
    pub recovery_epochs: usize,
    /// Keys drained off the dead shard across all recovery epochs.
    pub recovery_moved: usize,
    /// Largest single-epoch move count (`≤ migration_budget` must hold).
    pub max_epoch_moved: usize,
    /// Keys still on the dead shard after the recovery phase. Must be 0.
    pub recovery_remaining: usize,
    /// The configured per-epoch budget, echoed for assertions.
    pub migration_budget: usize,
}

impl DrillReport {
    /// Mean fanout of the healthy baseline phase.
    pub fn baseline_fanout(&self) -> f64 {
        self.phases.first().map_or(0.0, |p| p.mean_fanout)
    }

    /// Mean fanout of the post-recovery phase — must return to within a few percent of
    /// [`baseline_fanout`](Self::baseline_fanout).
    pub fn post_fanout(&self) -> f64 {
        self.phases.last().map_or(0.0, |p| p.mean_fanout)
    }

    /// Worst per-phase availability of the replicated leg across the incident and
    /// recovery phases — the headline "≥ 0.99 while a primary is down" number.
    pub fn incident_availability(&self) -> f64 {
        self.phases
            .iter()
            .skip(1)
            .take(2)
            .map(|p| p.availability)
            .fold(1.0, f64::min)
    }
}

fn validate(config: &DrillConfig) -> ShpResult<()> {
    if config.shards < 2 {
        return Err(ShpError::InvalidConfig(format!(
            "a drill needs at least 2 shards (got {})",
            config.shards
        )));
    }
    if config.communities == 0 || !config.communities.is_multiple_of(config.shards) {
        return Err(ShpError::InvalidConfig(format!(
            "communities ({}) must be a positive multiple of shards ({})",
            config.communities, config.shards
        )));
    }
    if config.keys_per_query == 0 || config.keys_per_query as u32 > config.community_size {
        return Err(ShpError::InvalidConfig(format!(
            "keys_per_query ({}) must be in 1..={}",
            config.keys_per_query, config.community_size
        )));
    }
    if config.replication < 2 {
        return Err(ShpError::InvalidConfig(format!(
            "drill replication must be >= 2 to survive the crash (got {})",
            config.replication
        )));
    }
    if config.dead_shard >= config.shards || config.slow_shard >= config.shards {
        return Err(ShpError::InvalidConfig(format!(
            "dead_shard ({}) and slow_shard ({}) must be < shards ({})",
            config.dead_shard, config.slow_shard, config.shards
        )));
    }
    if config.dead_shard == config.slow_shard {
        return Err(ShpError::InvalidConfig(
            "dead_shard and slow_shard must differ (a dead shard cannot be slow)".to_string(),
        ));
    }
    if config.slow_factor <= 1.0 {
        return Err(ShpError::InvalidConfig(format!(
            "slow_factor must exceed 1.0 (got {})",
            config.slow_factor
        )));
    }
    if config.queries_per_phase == 0 || config.recover_every == 0 {
        return Err(ShpError::InvalidConfig(
            "queries_per_phase and recover_every must be positive".to_string(),
        ));
    }
    Ok(())
}

/// Fills `keys` with `keys_per_query` distinct members of one community.
fn draw_query_keys(config: &DrillConfig, rng: &mut Pcg64, keys: &mut [u32]) {
    let community = rng.gen_range(0..config.communities);
    let stride = config.community_size / config.keys_per_query as u32;
    let offset = rng.gen_range(0..config.community_size);
    for (slot, key) in keys.iter_mut().enumerate() {
        let index = (offset + slot as u32 * stride) % config.community_size;
        *key = community * config.community_size + index;
    }
}

/// The initial placement: whole communities per shard, aligned with the workload.
fn initial_partition(config: &DrillConfig) -> ShpResult<Partition> {
    let mut builder = GraphBuilder::new();
    for c in 0..config.communities {
        builder.add_query((0..config.community_size).map(|i| c * config.community_size + i));
    }
    let bootstrap_graph = builder.build()?;
    let per_shard = config.communities / config.shards;
    Ok(Partition::from_assignment(
        &bootstrap_graph,
        config.shards,
        (0..config.num_keys() as u32)
            .map(|key| (key / config.community_size) / per_shard)
            .collect(),
    )?)
}

fn run_drill(config: &DrillConfig) -> ShpResult<(DrillReport, Snapshot)> {
    validate(config)?;
    let initial = initial_partition(config)?;
    let qpp = config.queries_per_phase as u64;
    // The fault clock is the engine's query tick: with the cache disabled (the default)
    // every multiget advances it by exactly one, so phase boundaries land on multiples
    // of `queries_per_phase`.
    let plan = FaultPlan::new().crash(config.dead_shard, qpp).slow(
        config.slow_shard,
        qpp,
        2 * qpp,
        config.slow_factor,
    );

    let injector = Arc::new(FaultInjector::new(plan.clone(), config.seed));
    let engine = ServingEngine::new(
        &initial,
        EngineConfig {
            seed: config.seed,
            replication: config.replication,
            ..EngineConfig::default()
        },
    )
    .map_err(ShpError::from)?
    .with_fault_injector(injector);
    // `recover_dead_shard` works off the live placement, not traces, so a token
    // collector satisfies the controller's constructor.
    let collector = Arc::new(AccessTraceCollector::new(64, config.seed));
    let mut controller = RepartitionController::new(
        collector,
        ControllerConfig {
            migration_budget: config.migration_budget,
            seed: config.seed,
            ..ControllerConfig::default()
        },
    );

    let mut rng = Pcg64::seed_from_u64(config.seed ^ 0xD811);
    let mut keys = vec![0u32; config.keys_per_query];
    let mut wrong_values = 0usize;
    let mut phases = Vec::with_capacity(4);
    let mut telemetry = Snapshot::new();
    let mut recovery_epochs = 0usize;
    let mut recovery_moved = 0usize;
    let mut max_epoch_moved = 0usize;
    let mut recovery_remaining = usize::MAX;

    for (phase, name) in ["baseline", "incident", "recovery", "post"]
        .into_iter()
        .enumerate()
    {
        engine.reset_metrics();
        for query in 0..config.queries_per_phase {
            draw_query_keys(config, &mut rng, &mut keys);
            let result = engine.multiget(&keys).map_err(ShpError::from)?;
            for &(key, value) in &result.values {
                if value != value_of(key) {
                    wrong_values += 1;
                }
            }
            if name == "recovery"
                && recovery_remaining != 0
                && (query + 1) % config.recover_every == 0
            {
                let outcome = controller.recover_dead_shard(&engine, config.dead_shard)?;
                if outcome.moved_keys > 0 {
                    recovery_epochs += 1;
                    recovery_moved += outcome.moved_keys;
                    max_epoch_moved = max_epoch_moved.max(outcome.moved_keys);
                }
                recovery_remaining = outcome.remaining_keys;
            }
        }
        if name == "recovery" {
            // Drain whatever the cadence left behind so the post phase starts clean.
            while recovery_remaining != 0 {
                let outcome = controller.recover_dead_shard(&engine, config.dead_shard)?;
                if outcome.moved_keys > 0 {
                    recovery_epochs += 1;
                    recovery_moved += outcome.moved_keys;
                    max_epoch_moved = max_epoch_moved.max(outcome.moved_keys);
                }
                if outcome.remaining_keys == recovery_remaining {
                    break; // No progress possible; report the stall instead of spinning.
                }
                recovery_remaining = outcome.remaining_keys;
            }
        }
        let report = engine.report();
        phases.push(DrillPhase {
            phase,
            name: name.to_string(),
            mean_fanout: report.mean_fanout,
            p99: report.p99,
            availability: report.availability,
            degraded_queries: report.degraded_queries,
            retries: report.retries,
            hedges_won: report.hedges_won,
        });
        merge_snapshot(
            &mut telemetry,
            engine.telemetry_snapshot(&format!("serving/drill/{name}")),
        );
    }

    // The degraded leg: same plan and seed, no replicas — typed partial results instead
    // of failover. Replays the baseline phase first so the fault clock lines up.
    let leg_injector = Arc::new(FaultInjector::new(plan, config.seed));
    let leg = ServingEngine::new(
        &initial,
        EngineConfig {
            seed: config.seed,
            replication: 1,
            ..EngineConfig::default()
        },
    )
    .map_err(ShpError::from)?
    .with_fault_injector(leg_injector);
    let leg_snapshot = leg.current_snapshot();
    let mut leg_rng = Pcg64::seed_from_u64(config.seed ^ 0xDE6);
    let mut missing_mismatches = 0usize;
    for _ in 0..config.queries_per_phase {
        draw_query_keys(config, &mut leg_rng, &mut keys);
        let result = leg.multiget(&keys).map_err(ShpError::from)?;
        if !result.missing_keys.is_empty() {
            missing_mismatches += 1; // Nothing is down yet; any miss is a mismatch.
        }
    }
    leg.reset_metrics();
    for _ in 0..config.queries_per_phase {
        draw_query_keys(config, &mut leg_rng, &mut keys);
        let mut expected: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|&key| leg_snapshot.shard_of(key) == Ok(config.dead_shard))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let result = leg.multiget(&keys).map_err(ShpError::from)?;
        for &(key, value) in &result.values {
            if value != value_of(key) {
                wrong_values += 1;
            }
        }
        if result.missing_keys != expected {
            missing_mismatches += 1;
        }
    }
    let leg_report = leg.report();
    merge_snapshot(
        &mut telemetry,
        leg.telemetry_snapshot("serving/drill/degraded_leg"),
    );

    Ok((
        DrillReport {
            phases,
            wrong_values,
            degraded_leg_availability: leg_report.availability,
            degraded_leg_degraded: leg_report.degraded_queries,
            missing_mismatches,
            recovery_epochs,
            recovery_moved,
            max_epoch_moved,
            recovery_remaining,
            migration_budget: config.migration_budget,
        },
        telemetry,
    ))
}

fn merge_snapshot(into: &mut Snapshot, from: Snapshot) {
    into.counters.extend(from.counters);
    into.gauges.extend(from.gauges);
    into.histograms.extend(from.histograms);
    into.top_keys.extend(from.top_keys);
}

/// Runs the kill → degrade → recover drill and returns its report.
///
/// # Errors
/// Propagates configuration, serving, and partitioning failures. A degraded query is
/// *not* an error — it lands in the report as availability loss.
pub fn run_drill_scenario(config: &DrillConfig) -> ShpResult<DrillReport> {
    run_drill(config).map(|(report, _)| report)
}

/// Like [`run_drill_scenario`], but also returns a merged telemetry snapshot with
/// per-phase `serving/drill/<phase>/...` series (plus `serving/drill/degraded_leg/...`),
/// for metrics export from the CLI.
///
/// # Errors
/// Same failure modes as [`run_drill_scenario`].
pub fn run_drill_scenario_with_telemetry(
    config: &DrillConfig,
) -> ShpResult<(DrillReport, Snapshot)> {
    run_drill(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DrillConfig {
        DrillConfig {
            communities: 4,
            community_size: 16,
            shards: 4,
            queries_per_phase: 200,
            keys_per_query: 4,
            migration_budget: 16,
            recover_every: 50,
            seed: 42,
            ..DrillConfig::default()
        }
    }

    #[test]
    fn drill_meets_the_acceptance_gates() {
        let report = run_drill_scenario(&tiny()).unwrap();

        assert_eq!(report.wrong_values, 0, "failover served a wrong value");
        assert_eq!(
            report.missing_mismatches, 0,
            "partial results were imprecise"
        );
        assert!(
            report.incident_availability() >= 0.99,
            "replicated availability {} under the incident",
            report.incident_availability()
        );
        assert!(
            report.degraded_leg_availability < 0.99,
            "the unreplicated leg should visibly degrade (got {})",
            report.degraded_leg_availability
        );
        assert!(report.degraded_leg_degraded > 0);
        assert!(
            report.max_epoch_moved <= report.migration_budget,
            "epoch moved {} over budget {}",
            report.max_epoch_moved,
            report.migration_budget
        );
        assert_eq!(report.recovery_remaining, 0, "dead shard was not drained");
        assert!(report.recovery_moved > 0);
        assert!(
            report.post_fanout() <= 1.05 * report.baseline_fanout(),
            "post-recovery fanout {} vs baseline {}",
            report.post_fanout(),
            report.baseline_fanout()
        );
    }

    #[test]
    fn incident_phase_retries_and_post_phase_is_quiet() {
        let report = run_drill_scenario(&tiny()).unwrap();
        let incident = &report.phases[1];
        let post = &report.phases[3];

        // Queries hitting the dead shard's communities must fail over...
        assert!(incident.retries > 0, "no failover retries during the crash");
        // ...and the slow shard must provoke at least one winning hedge.
        assert!(
            incident.hedges_won > 0,
            "no hedge ever won against the slow shard"
        );
        // After the drain the dead shard holds nothing: no retries, no degradation.
        assert_eq!(post.retries, 0, "post-recovery queries still retried");
        assert_eq!(post.degraded_queries, 0);
        assert_eq!(post.availability, 1.0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_drill_scenario(&tiny()).unwrap();
        let b = run_drill_scenario(&tiny()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_snapshot_covers_every_phase_and_the_degraded_leg() {
        let (_, snap) = run_drill_scenario_with_telemetry(&tiny()).unwrap();
        for phase in ["baseline", "incident", "recovery", "post", "degraded_leg"] {
            assert!(
                snap.counters
                    .contains_key(&format!("serving/drill/{phase}/queries")),
                "missing {phase} series"
            );
        }
        assert!(snap.counters["serving/drill/incident/fault_retries"] > 0);
        assert!(snap.counters["serving/drill/degraded_leg/degraded_queries"] > 0);
        // Snapshots are taken at each phase boundary; by the end of the incident the dead
        // shard's gauge reads down while the survivors read up.
        assert_eq!(snap.gauges["serving/drill/incident/shard_up/0001"], 0.0);
        assert_eq!(snap.gauges["serving/drill/incident/shard_up/0000"], 1.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cases = [
            DrillConfig {
                shards: 1,
                ..tiny()
            },
            DrillConfig {
                communities: 3,
                ..tiny()
            },
            DrillConfig {
                keys_per_query: 99,
                ..tiny()
            },
            DrillConfig {
                replication: 1,
                ..tiny()
            },
            DrillConfig {
                dead_shard: 9,
                ..tiny()
            },
            DrillConfig {
                slow_shard: 1,
                dead_shard: 1,
                ..tiny()
            },
            DrillConfig {
                slow_factor: 1.0,
                ..tiny()
            },
            DrillConfig {
                recover_every: 0,
                ..tiny()
            },
        ];
        for config in cases {
            assert!(run_drill_scenario(&config).is_err(), "{config:?} accepted");
        }
    }
}

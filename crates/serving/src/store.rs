//! The shard set: concurrent in-memory KV shards executing routed batches.
//!
//! Shard contents are immutable once built (the synthetic record store is rebuilt wholesale
//! for every installed partition and swapped together with its [`PartitionSnapshot`]), so key
//! lookups are lock-free; only the per-shard latency RNG sits behind a mutex. Per-request
//! service time comes from `shp-sharding-sim`'s [`LatencyModel`], and a query's latency is the
//! **maximum** over its per-shard requests, which are modeled as parallel — the tail-at-scale
//! dependency of Figure 4. The batches themselves are served one after another in the calling
//! thread ([`ShardSet::execute`]); concurrency comes from many clients serving at once.
//!
//! ## Replication and failover
//!
//! With [`ShardSet::build_replicated`] every shard additionally stores the records of the
//! `R - 1` primaries chained before it (`shard s` replicates primaries `(s - r) mod n` for
//! `r < R`), mirroring [`PartitionSnapshot::replica_group`]. The fault-aware execution paths
//! ([`ShardSet::execute_with_faults`]) walk a batch's failover chain under a
//! [`FaultInjector`]: a down or dropped candidate costs a deterministic timeout, each retry
//! adds a backoff penalty, a slow-but-alive candidate may be hedged with a duplicate request
//! to the next replica (first success wins), and a batch whose entire chain is down degrades
//! into typed `missing` keys instead of an error. When no injector is supplied — or its plan
//! is empty — these paths are bit-identical to [`ShardSet::execute`].

use crate::error::{Result, ServingError};
use crate::partition_map::{PartitionDelta, PartitionSnapshot};
use crate::router::{RoutePlan, ShardBatch};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_faults::FaultInjector;
use shp_hypergraph::DataId;
use shp_sharding_sim::LatencyModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The synthetic record stored for `key`: a SplitMix64 hash, so that reads can be verified
/// end-to-end (a wrong or missing value indicates a torn swap or routing bug).
pub fn value_of(key: DataId) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One in-memory KV shard.
///
/// Records sit behind an `Arc` so that [`ShardSet::apply_delta`] can hand an untouched
/// shard's contents to the next generation without copying a single record.
#[derive(Debug)]
pub struct Shard {
    /// Immutable records held by this shard (shared with other generations when unchanged).
    data: Arc<HashMap<DataId, u64>>,
    /// Latency RNG, one stream per shard.
    rng: Mutex<Pcg64>,
    /// Number of batch requests served.
    requests: AtomicU64,
    /// Number of keys served.
    keys_served: AtomicU64,
}

impl Shard {
    fn new(keys: &[DataId], seed: u64) -> Self {
        Shard::with_data(
            Arc::new(keys.iter().map(|&k| (k, value_of(k))).collect()),
            seed,
        )
    }

    fn with_data(data: Arc<HashMap<DataId, u64>>, seed: u64) -> Self {
        Shard {
            data,
            rng: Mutex::new(Pcg64::seed_from_u64(seed)),
            requests: AtomicU64::new(0),
            keys_served: AtomicU64::new(0),
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of batch requests this shard has served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of keys this shard has served (batch sizes summed).
    pub fn keys_served(&self) -> u64 {
        self.keys_served.load(Ordering::Relaxed)
    }

    /// Looks up one key.
    pub fn get(&self, key: DataId) -> Option<u64> {
        self.data.get(&key).copied()
    }

    /// Serves one batch: fetches every key and samples the request's service time.
    fn serve(
        &self,
        shard_id: u32,
        keys: &[DataId],
        model: &LatencyModel,
        out: &mut Vec<(DataId, u64)>,
    ) -> Result<f64> {
        for &key in keys {
            let value = self
                .data
                .get(&key)
                .copied()
                .ok_or(ServingError::MissingKey {
                    key,
                    shard: shard_id,
                })?;
            out.push((key, value));
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.keys_served
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut rng = self.rng.lock().expect("shard rng poisoned");
        Ok(model.sample_request(&mut *rng, keys.len()))
    }
}

/// The result of executing one routed multiget.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResults {
    /// `(key, value)` pairs, concatenated in batch order.
    pub values: Vec<(DataId, u64)>,
    /// Simulated query latency: the maximum over the parallel per-shard requests.
    pub latency: f64,
    /// Keys whose entire failover chain was unreachable, ascending. Empty on the no-fault
    /// paths: a non-empty list is a typed partial result, never a silent drop.
    pub missing: Vec<DataId>,
    /// Failover retries performed across all batches of this multiget.
    pub retries: u64,
    /// Hedged duplicate requests that finished before the primary attempt they shadowed.
    pub hedges_won: u64,
}

/// Outcome of walking one batch through its failover chain.
struct BatchServe {
    /// Accumulated latency: timeouts + backoff + the winning attempt (0 when nothing served).
    latency: f64,
    /// Failover retries performed for this batch.
    retries: u64,
    /// Whether the hedged duplicate beat the attempt it shadowed.
    hedges_won: u64,
    /// Whether any candidate served the batch; `false` degrades the keys to `missing`.
    served: bool,
}

/// A set of shards holding one generation's records.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Shard>,
    model: LatencyModel,
    replication: u32,
}

impl ShardSet {
    /// Builds the shard set for a placement snapshot. Every key of the snapshot is stored on
    /// exactly the shard the snapshot assigns it to (replication factor 1).
    pub fn build(snapshot: &PartitionSnapshot, model: LatencyModel, seed: u64) -> Self {
        Self::build_replicated(snapshot, model, seed, 1)
    }

    /// Builds the shard set with `replication`-way chained replica groups: shard `s` stores
    /// its own primaries plus the records of primaries `(s - r) mod n` for `r < replication`
    /// (clamped to `1..=n`), matching [`PartitionSnapshot::replica_group`]. With
    /// `replication == 1` this is exactly [`ShardSet::build`] — including identical per-shard
    /// RNG streams — so the no-replication path is unchanged bit-for-bit.
    pub fn build_replicated(
        snapshot: &PartitionSnapshot,
        model: LatencyModel,
        seed: u64,
        replication: u32,
    ) -> Self {
        let n = snapshot.num_shards().max(1);
        let replication = replication.clamp(1, n);
        let by_primary = snapshot.keys_by_shard();
        let shards = (0..by_primary.len())
            .map(|shard_id| {
                let shard_seed = seed ^ (snapshot.epoch() << 20) ^ shard_id as u64;
                if replication == 1 {
                    return Shard::new(&by_primary[shard_id], shard_seed);
                }
                let mut keys = Vec::new();
                for r in 0..replication {
                    let primary = (shard_id as u32 + n - r) % n;
                    keys.extend_from_slice(&by_primary[primary as usize]);
                }
                Shard::new(&keys, shard_seed)
            })
            .collect();
        ShardSet {
            shards,
            model,
            replication,
        }
    }

    /// Builds the next generation's shard set from this one by applying `delta`: only shards
    /// that a moved key leaves or enters get their record map cloned and edited; every other
    /// shard shares its records with this generation via `Arc`. Per-shard RNG streams and
    /// request counters are freshly initialized exactly as [`ShardSet::build`] would for
    /// `new_epoch`, so a delta-derived generation behaves bit-identically to a full rebuild of
    /// the same placement at the same epoch.
    ///
    /// # Errors
    /// Propagates [`ServingError::KeyOutOfRange`] / [`ServingError::ShardOutOfRange`] for
    /// moves outside `base`'s placement. `base` must be the snapshot this set was built from.
    pub fn apply_delta(
        &self,
        base: &PartitionSnapshot,
        delta: &PartitionDelta,
        new_epoch: u64,
        seed: u64,
    ) -> Result<ShardSet> {
        let num_shards = self.shards.len();
        let n = num_shards as u32;
        let mut removed: Vec<Vec<DataId>> = vec![Vec::new(); num_shards];
        let mut added: Vec<Vec<DataId>> = vec![Vec::new(); num_shards];
        for &(key, to) in delta.moves() {
            let from = base.shard_of(key)?;
            if to >= n {
                return Err(ServingError::ShardOutOfRange {
                    shard: to,
                    num_shards: n,
                });
            }
            if from == to {
                continue;
            }
            // A moved key leaves every shard of its old replica chain that is not also on the
            // new chain, and enters every shard of the new chain it was not already on. With
            // replication 1 this degenerates to the plain from/to move.
            let old_chain: Vec<u32> = (0..self.replication).map(|r| (from + r) % n).collect();
            let new_chain: Vec<u32> = (0..self.replication).map(|r| (to + r) % n).collect();
            for &shard in &old_chain {
                if !new_chain.contains(&shard) {
                    removed[shard as usize].push(key);
                }
            }
            for &shard in &new_chain {
                if !old_chain.contains(&shard) {
                    added[shard as usize].push(key);
                }
            }
        }
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard_id, shard)| {
                let shard_seed = seed ^ (new_epoch << 20) ^ shard_id as u64;
                if removed[shard_id].is_empty() && added[shard_id].is_empty() {
                    return Shard::with_data(Arc::clone(&shard.data), shard_seed);
                }
                let mut data = (*shard.data).clone();
                for &key in &removed[shard_id] {
                    data.remove(&key);
                }
                for &key in &added[shard_id] {
                    data.insert(key, value_of(key));
                }
                Shard::with_data(Arc::new(data), shard_seed)
            })
            .collect();
        Ok(ShardSet {
            shards,
            model: self.model.clone(),
            replication: self.replication,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Replica-group size this set was built with (1 when unreplicated).
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Number of records stored on each shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::len).collect()
    }

    /// Number of batch requests each shard has served so far.
    pub fn shard_requests(&self) -> Vec<u64> {
        self.shards.iter().map(Shard::requests).collect()
    }

    /// Number of keys each shard has served so far (finer-grained load than request counts:
    /// two shards can see the same request rate while one ships far more records).
    pub fn shard_keys_served(&self) -> Vec<u64> {
        self.shards.iter().map(Shard::keys_served).collect()
    }

    /// The latency model shards sample service times from.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.model
    }

    /// Executes a routed multiget, one batch per contacted shard, in the calling thread. The
    /// batches are modeled as parallel requests: the query is charged the maximum of their
    /// service times (Figure 4's semantics). Concurrency comes from many client threads
    /// calling this at once, not from threads per query.
    ///
    /// # Errors
    /// Returns [`ServingError::MissingKey`] if a batch references a key its shard does not
    /// hold, which can only happen when a plan is replayed against a different generation.
    pub fn execute(&self, plan: &RoutePlan) -> Result<BatchResults> {
        let mut values = Vec::with_capacity(plan.num_keys());
        let mut latency = 0.0f64;
        for batch in &plan.batches {
            let shard = self
                .shards
                .get(batch.shard as usize)
                .ok_or(ServingError::MissingKey {
                    key: batch.keys[0],
                    shard: batch.shard,
                })?;
            let t = shard.serve(batch.shard, &batch.keys, &self.model, &mut values)?;
            latency = latency.max(t);
        }
        Ok(BatchResults {
            values,
            latency,
            missing: Vec::new(),
            retries: 0,
            hedges_won: 0,
        })
    }

    /// Walks one batch through its failover chain under `inj` at query-clock `tick`.
    ///
    /// Candidate `k` is `(batch.shard + k) % n`. A down or dropped candidate costs
    /// `timeout_factor × mean_t`; each retry adds `k × backoff_factor × mean_t` of budgeted
    /// backoff. The first live candidate serves the batch into `values`; if the injector marks
    /// it slow, a hedged duplicate is sent to the next live candidate in the chain and the
    /// faster of the two wins. An exhausted chain returns `served: false` (the caller degrades
    /// the keys), never an error.
    ///
    /// With no active faults the primary serves directly and the arithmetic reduces to
    /// `0.0 + t × 1.0`, which is bit-identical to the no-fault path.
    fn serve_batch_failover(
        &self,
        batch: &ShardBatch,
        inj: &FaultInjector,
        tick: u64,
        values: &mut Vec<(DataId, u64)>,
    ) -> Result<BatchServe> {
        let candidates = batch.failover_candidates(self.num_shards(), self.replication);
        let policy = inj.policy();
        let mean = self.model.mean_t;
        let mut cost = 0.0f64;
        let mut retries = 0u64;
        for (attempt, &shard_id) in candidates.iter().enumerate() {
            if attempt > 0 {
                retries += 1;
                cost += policy.backoff_factor * mean * attempt as f64;
            }
            if inj.is_down(shard_id, tick) || inj.drops(shard_id, tick, attempt as u64) {
                cost += policy.timeout_factor * mean;
                continue;
            }
            let shard = &self.shards[shard_id as usize];
            let factor = inj.slow_factor(shard_id, tick);
            let t = shard.serve(shard_id, &batch.keys, &self.model, values)? * factor;
            let mut best = t;
            let mut hedges_won = 0u64;
            if factor > 1.0 {
                let hedge_attempt = attempt + 1;
                if hedge_attempt < candidates.len() {
                    let hedge_shard = candidates[hedge_attempt];
                    if !inj.is_down(hedge_shard, tick)
                        && !inj.drops(hedge_shard, tick, hedge_attempt as u64)
                    {
                        // The duplicate fetches the same records; only its latency matters.
                        let mut scratch = Vec::with_capacity(batch.keys.len());
                        let hedge_t = self.shards[hedge_shard as usize].serve(
                            hedge_shard,
                            &batch.keys,
                            &self.model,
                            &mut scratch,
                        )? * inj.slow_factor(hedge_shard, tick);
                        let hedge_total = policy.hedge_delay_factor * mean + hedge_t;
                        if hedge_total < best {
                            best = hedge_total;
                            hedges_won = 1;
                        }
                    }
                }
            }
            return Ok(BatchServe {
                latency: cost + best,
                retries,
                hedges_won,
                served: true,
            });
        }
        Ok(BatchServe {
            latency: cost,
            retries,
            hedges_won: 0,
            served: false,
        })
    }

    /// [`ShardSet::execute`] with optional fault injection: with `faults: None` it delegates
    /// verbatim; with an injector it advances the query clock one tick and serves every batch
    /// through [`ShardSet::serve_batch_failover`], degrading unreachable batches into
    /// `missing` keys. An empty [`shp_faults::FaultPlan`] produces bit-identical results to
    /// the no-fault path (the retained conformance oracle).
    ///
    /// # Errors
    /// Same contract as [`ShardSet::execute`]: stale plans (a key the contacted shard does not
    /// hold, or a shard outside this generation) fail loudly — injected faults never do.
    pub fn execute_with_faults(
        &self,
        plan: &RoutePlan,
        faults: Option<&FaultInjector>,
    ) -> Result<BatchResults> {
        let Some(inj) = faults else {
            return self.execute(plan);
        };
        let tick = inj.begin_query();
        let mut values = Vec::with_capacity(plan.num_keys());
        let mut missing: Vec<DataId> = Vec::new();
        let mut latency = 0.0f64;
        let mut retries = 0u64;
        let mut hedges_won = 0u64;
        for batch in &plan.batches {
            if batch.shard as usize >= self.shards.len() {
                return Err(ServingError::MissingKey {
                    key: batch.keys[0],
                    shard: batch.shard,
                });
            }
            let outcome = self.serve_batch_failover(batch, inj, tick, &mut values)?;
            retries += outcome.retries;
            hedges_won += outcome.hedges_won;
            latency = latency.max(outcome.latency);
            if !outcome.served {
                missing.extend_from_slice(&batch.keys);
            }
        }
        missing.sort_unstable();
        Ok(BatchResults {
            values,
            latency,
            missing,
            retries,
            hedges_won,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use shp_hypergraph::{GraphBuilder, Partition};

    fn snapshot(k: u32, assignment: Vec<u32>) -> PartitionSnapshot {
        let mut b = GraphBuilder::new();
        b.add_query(0..assignment.len() as u32);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, k, assignment).unwrap();
        PartitionSnapshot::from_partition(&p, 0).unwrap()
    }

    #[test]
    fn build_places_every_key_on_its_assigned_shard() {
        let snap = snapshot(3, vec![0, 1, 2, 1, 0]);
        let set = ShardSet::build(&snap, LatencyModel::default(), 1);
        assert_eq!(set.num_shards(), 3);
        assert_eq!(set.shard_sizes(), vec![2, 2, 1]);
        for key in 0..5u32 {
            let shard = snap.shard_of(key).unwrap();
            assert_eq!(set.shards[shard as usize].get(key), Some(value_of(key)));
        }
    }

    #[test]
    fn execute_returns_every_key_exactly_once_with_correct_values() {
        let snap = snapshot(4, vec![3, 1, 0, 2, 1, 3, 0, 2]);
        let set = ShardSet::build(&snap, LatencyModel::default(), 2);
        let plan = ShardRouter::new()
            .route(&snap, &[6, 1, 3, 0, 7, 2])
            .unwrap();
        let results = set.execute(&plan).unwrap();
        let mut keys: Vec<u32> = results.values.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 6, 7]);
        for (k, v) in results.values {
            assert_eq!(v, value_of(k));
        }
        assert!(results.latency > 0.0);
    }

    #[test]
    fn stale_plan_against_wrong_generation_is_detected() {
        let old = snapshot(2, vec![0, 0, 1, 1]);
        let new = snapshot(2, vec![1, 1, 0, 0]);
        let set_new = ShardSet::build(&new, LatencyModel::default(), 4);
        // A plan routed on the old snapshot fetches key 0 from shard 0; the new generation
        // stores it on shard 1, so execution must fail loudly instead of dropping the key.
        let stale_plan = ShardRouter::new().route(&old, &[0]).unwrap();
        let err = set_new.execute(&stale_plan).unwrap_err();
        assert_eq!(err, ServingError::MissingKey { key: 0, shard: 0 });
    }

    #[test]
    fn request_counters_track_batches() {
        let snap = snapshot(2, vec![0, 1, 0, 1]);
        let set = ShardSet::build(&snap, LatencyModel::default(), 5);
        let plan = ShardRouter::new().route(&snap, &[0, 1, 2, 3]).unwrap();
        set.execute(&plan).unwrap();
        set.execute(&plan).unwrap();
        assert_eq!(set.shard_requests(), vec![2, 2]);
        assert_eq!(set.shard_keys_served(), vec![4, 4]);
    }

    #[test]
    fn values_are_deterministic_hashes() {
        assert_eq!(value_of(7), value_of(7));
        assert_ne!(value_of(7), value_of(8));
    }

    #[test]
    fn apply_delta_moves_records_and_shares_untouched_shards() {
        let snap = snapshot(3, vec![0, 0, 1, 1, 2, 2]);
        let set = ShardSet::build(&snap, LatencyModel::default(), 9);
        let delta = PartitionDelta::new(0, vec![(0, 1)]);
        let next = set.apply_delta(&snap, &delta, 1, 9).unwrap();
        assert_eq!(next.shard_sizes(), vec![1, 3, 2]);
        assert_eq!(next.shards[1].get(0), Some(value_of(0)));
        assert_eq!(next.shards[0].get(0), None);
        // Shard 2 was untouched by the move: its record map is shared, not copied.
        assert!(Arc::ptr_eq(&set.shards[2].data, &next.shards[2].data));
        assert!(!Arc::ptr_eq(&set.shards[0].data, &next.shards[0].data));
        assert_eq!(next.shard_requests(), vec![0, 0, 0]);
    }

    #[test]
    fn delta_generation_behaves_bit_identically_to_a_full_rebuild() {
        let base = snapshot(2, vec![0, 0, 1, 1]);
        let set = ShardSet::build(&base, LatencyModel::default(), 7);
        let delta = PartitionDelta::new(0, vec![(1, 1), (2, 0)]);
        let next_snap = base.apply_delta(&delta, 3).unwrap();
        let via_delta = set.apply_delta(&base, &delta, 3, 7).unwrap();
        let via_full = ShardSet::build(&next_snap, LatencyModel::default(), 7);
        assert_eq!(via_delta.shard_sizes(), via_full.shard_sizes());
        // Same epoch + seed → same per-shard RNG streams → identical sampled latencies.
        let plan = ShardRouter::new().route(&next_snap, &[0, 1, 2, 3]).unwrap();
        let a = via_delta.execute(&plan).unwrap();
        let b = via_full.execute(&plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replicated_build_chains_each_primary_onto_the_next_shards() {
        let snap = snapshot(3, vec![0, 0, 1, 2]);
        let set = ShardSet::build_replicated(&snap, LatencyModel::default(), 1, 2);
        assert_eq!(set.replication(), 2);
        // Shard s holds its own primaries plus those of shard (s - 1) mod 3.
        assert_eq!(set.shard_sizes(), vec![3, 3, 2]);
        assert_eq!(set.shards[0].get(3), Some(value_of(3))); // replica of primary 2
        assert_eq!(set.shards[1].get(0), Some(value_of(0))); // replica of primary 0
        assert_eq!(set.shards[2].get(2), Some(value_of(2))); // replica of primary 1
        assert_eq!(set.shards[0].get(2), None); // shard 0 does not replicate shard 1
    }

    #[test]
    fn replication_one_build_matches_the_plain_build_bitwise() {
        let snap = snapshot(3, vec![0, 1, 2, 1, 0]);
        let plain = ShardSet::build(&snap, LatencyModel::default(), 11);
        let replicated = ShardSet::build_replicated(&snap, LatencyModel::default(), 11, 1);
        let plan = ShardRouter::new().route(&snap, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(
            plain.execute(&plan).unwrap(),
            replicated.execute(&plan).unwrap()
        );
    }

    #[test]
    fn replicated_apply_delta_updates_every_chain_member() {
        let snap = snapshot(3, vec![0, 0, 1, 2]);
        let set = ShardSet::build_replicated(&snap, LatencyModel::default(), 1, 2);
        // Move key 0 from primary 0 to primary 2: chains {0,1} -> {2,0}, so shard 1 loses it,
        // shard 2 gains it, and shard 0 keeps it (primary before, replica after).
        let delta = PartitionDelta::new(0, vec![(0, 2)]);
        let next = set.apply_delta(&snap, &delta, 1, 1).unwrap();
        assert_eq!(next.shards[0].get(0), Some(value_of(0)));
        assert_eq!(next.shards[1].get(0), None);
        assert_eq!(next.shards[2].get(0), Some(value_of(0)));
        // The delta-derived set matches a full replicated rebuild of the new placement.
        let moved = snapshot(3, vec![2, 0, 1, 2]);
        let rebuilt = ShardSet::build_replicated(&moved, LatencyModel::default(), 1, 2);
        assert_eq!(next.shard_sizes(), rebuilt.shard_sizes());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_the_no_fault_path() {
        use shp_faults::FaultPlan;
        let snap = snapshot(4, (0..32).map(|v| v % 4).collect());
        let build = || ShardSet::build_replicated(&snap, LatencyModel::default(), 6, 2);
        let plain = build();
        let faulty = build();
        let inj = FaultInjector::new(FaultPlan::new(), 99);
        let keys: Vec<u32> = (0..32).collect();
        let plan = ShardRouter::new().route(&snap, &keys).unwrap();
        for _ in 0..5 {
            let a = plain.execute(&plan).unwrap();
            let b = faulty.execute_with_faults(&plan, Some(&inj)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.shard_requests(), faulty.shard_requests());
    }

    #[test]
    fn failover_serves_from_the_replica_when_the_primary_is_down() {
        use shp_faults::{FaultInjector, FaultPlan};
        let snap = snapshot(3, vec![0, 1, 2]);
        let set = ShardSet::build_replicated(&snap, LatencyModel::default(), 6, 2);
        let inj = FaultInjector::new(FaultPlan::new().crash(0, 0), 5);
        let plan = ShardRouter::new().route(&snap, &[0, 1, 2]).unwrap();
        let results = set.execute_with_faults(&plan, Some(&inj)).unwrap();
        // Key 0's primary (shard 0) is down; its replica on shard 1 serves it.
        assert!(results.missing.is_empty());
        assert_eq!(results.retries, 1);
        let mut keys: Vec<u32> = results.values.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2]);
        for &(k, v) in &results.values {
            assert_eq!(v, value_of(k));
        }
        // The failed attempt + backoff makes the failover batch strictly slower than mean.
        assert!(results.latency > set.latency_model().mean_t);
    }

    #[test]
    fn exhausted_failover_chain_degrades_to_typed_missing_keys() {
        use shp_faults::{FaultInjector, FaultPlan};
        let snap = snapshot(3, vec![0, 1, 2]);
        let set = ShardSet::build_replicated(&snap, LatencyModel::default(), 6, 2);
        // Both shards of key 0's chain (0 and 1) are down: key 0 and key 1 are unreachable
        // (key 1's chain is {1, 2}; shard 2 is up, so key 1 survives via its replica).
        let inj = FaultInjector::new(FaultPlan::new().crash(0, 0).crash(1, 0), 5);
        let plan = ShardRouter::new().route(&snap, &[0, 1, 2]).unwrap();
        let results = set.execute_with_faults(&plan, Some(&inj)).unwrap();
        assert_eq!(results.missing, vec![0]);
        let mut keys: Vec<u32> = results.values.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn hedged_duplicate_wins_only_when_faster() {
        use shp_faults::{FaultInjector, FaultPlan, RetryPolicy};
        let snap = snapshot(2, vec![0, 1]);
        // A huge slow factor guarantees the hedge (replica at normal speed) wins.
        let model = LatencyModel {
            body_cv: 0.0,
            outlier_probability: 0.0,
            ..LatencyModel::default()
        };
        let set = ShardSet::build_replicated(&snap, model, 6, 2);
        let inj = FaultInjector::new(FaultPlan::new().slow(0, 0, u64::MAX, 1000.0), 5)
            .with_policy(RetryPolicy::default());
        let plan = ShardRouter::new().route(&snap, &[0]).unwrap();
        let results = set.execute_with_faults(&plan, Some(&inj)).unwrap();
        assert_eq!(results.hedges_won, 1);
        assert!(results.missing.is_empty());
        assert_eq!(results.values, vec![(0, value_of(0))]);
        // Winner latency = hedge delay + replica time, far below the 1000x slow primary.
        assert!(results.latency < 100.0);
    }

    #[test]
    fn apply_delta_rejects_out_of_range_moves() {
        let snap = snapshot(2, vec![0, 1]);
        let set = ShardSet::build(&snap, LatencyModel::default(), 1);
        let err = set
            .apply_delta(&snap, &PartitionDelta::new(0, vec![(0, 5)]), 1, 1)
            .unwrap_err();
        assert_eq!(
            err,
            ServingError::ShardOutOfRange {
                shard: 5,
                num_shards: 2
            }
        );
    }
}

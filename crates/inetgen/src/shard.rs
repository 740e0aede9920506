//! Prefix-sharded world generation.
//!
//! A sharded census partitions the synthetic Internet into `K` disjoint
//! shards and builds one self-contained [`crate::Internet`] (with its own
//! [`netsim::Simulator`]) per shard. The partition key is the country:
//! every country owns a fixed, disjoint region of probe-address space
//! (see `build::Allocator`), so assigning countries to shards *is* a
//! disjoint prefix partition.
//!
//! Determinism contract: every per-country random decision is drawn from
//! a stream derived only from `(config.seed, country index)` via
//! [`netsim::shard::derive_seed`] — never from the shard count or from
//! other countries. Re-partitioning the same seed therefore replants the
//! byte-identical population in every country, which is what makes the
//! sharded census produce identical classification counts for any `K`
//! (`generate(config)` is exactly `generate_shard(config,
//! ShardSpec::solo())`).

use crate::build::{generate_shard, Internet};
use crate::config::GenConfig;
use crate::geodb::GeoDb;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Which shard of how many a generated world is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's index, in `0..count`.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
}

impl ShardSpec {
    /// The unsharded (single-simulator) world.
    pub fn solo() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Shard `index` of `count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count >= 1, "a partition needs at least one shard");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        ShardSpec { index, count }
    }

    /// All shards of a `count`-way partition.
    pub fn partition(count: u32) -> Vec<ShardSpec> {
        (0..count).map(|i| ShardSpec::new(i, count)).collect()
    }
}

/// Which shard a country (by its index in [`crate::COUNTRIES`]) belongs
/// to. Round-robin keeps the large head countries spread across shards so
/// shard workloads stay balanced.
///
/// Panics on `shard_count == 0`, exactly like [`ShardSpec::new`]: a
/// zero-way partition is a caller bug, and quietly mapping every country
/// to shard 0 would mask it.
pub fn shard_of_country(global_index: usize, shard_count: u32) -> u32 {
    assert!(shard_count >= 1, "a partition needs at least one shard");
    (global_index as u32) % shard_count
}

/// A shard whose job failed — panicked twice, once on the original run
/// and once on the automatic retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The failing shard's index.
    pub shard: u32,
    /// The panic message of the *second* (retried) failure.
    pub message: String,
}

/// The result of driving one experiment over every shard of a partition:
/// the surviving shards' outputs, the lookup database merged over those
/// shards, and the ledger of shards that failed. Take it apart with
/// [`ShardedRun::into_complete`] when every shard must have survived, or
/// with [`ShardedRun::into_partial`] to degrade gracefully.
#[derive(Debug)]
#[must_use = "shard failures only surface through into_complete or into_partial"]
pub struct ShardedRun<T> {
    /// `(shard, output)` for every surviving shard, in ascending shard
    /// order regardless of worker scheduling.
    outputs: Vec<(u32, T)>,
    /// The union lookup database over the surviving shards, merged in
    /// shard order. Disjoint per-country regions make the merge
    /// collision-free by construction.
    geo: GeoDb,
    /// Shards whose job panicked twice, in ascending shard order.
    failures: Vec<ShardFailure>,
    /// How many shards the partition had in total.
    shards: u32,
}

impl<T> ShardedRun<T> {
    /// Fraction of the partition that completed, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.outputs.len() as f64 / f64::from(self.shards)
    }

    /// Whether every shard completed (no degradation happened).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// One output per shard, in ascending shard order, plus the merged
    /// [`GeoDb`].
    ///
    /// # Panics
    ///
    /// If any shard failed, naming the lowest failed shard and the panic
    /// message of its retry.
    pub fn into_complete(self) -> (Vec<T>, GeoDb) {
        if let Some(ShardFailure { shard, message }) = self.failures.into_iter().next() {
            panic!("shard {shard} worker panicked: {message}");
        }
        let outputs = self.outputs.into_iter().map(|(_, output)| output).collect();
        (outputs, self.geo)
    }

    /// Graceful degradation: `(shard, output)` for every surviving shard,
    /// the [`GeoDb`] over those shards, and the failure ledger.
    ///
    /// Use this for long campaigns where losing 1 shard of 64 should cost
    /// 1/64th of the census, not the whole night's run. Treat a run with
    /// failures as a *lower bound*: absolute counts are missing the failed
    /// shards' populations (rates within surviving shards are unaffected,
    /// because shards are disjoint by construction).
    pub fn into_partial(self) -> (Vec<(u32, T)>, GeoDb, Vec<ShardFailure>) {
        (self.outputs, self.geo, self.failures)
    }
}

/// The sharded experiment runner, and its cache of per-shard worlds.
///
/// Both entry points drive one worker pool: each shard's world is
/// generated (or taken warm from its slot and [`Internet::reset`]) and
/// the experiment runs against it on a worker thread — worker `w` handles
/// shards `w, w + workers, w + 2·workers, …` — so the wall-clock cost of
/// a large experiment divides by the worker count, while the partition
/// invariance of [`generate_shard`] keeps results independent of `K`.
///
/// - [`ShardWorldCache::run`] keeps the worlds: generate once, scan many.
///   Repeated sweeps (the scaling benches, parameter studies, the
///   million-target census) pay generation once instead of once per
///   sweep, and the reset contract keeps every run bit-identical to a run
///   over freshly generated worlds (property-tested in
///   `tests/warm_world_reuse.rs`).
/// - [`ShardWorldCache::run_once`] is a one-shot cache: each world lives
///   and dies on the worker that built it, and only the experiment's
///   output and the world's [`GeoDb`] survive — peak memory stays at one
///   world per worker however many shards run.
///
/// A panicking shard job is retried once on the same worker, from a
/// freshly generated world: a transient failure costs one extra world
/// generation instead of the whole run. A shard that fails twice is
/// recorded in the [`ShardedRun`]'s ledger while every other shard still
/// completes, and its slot stays empty, so the next run regenerates that
/// world rather than reusing one in an unknown state.
///
/// Changing the shard count rebuilds the cache: shard worlds are
/// partition-specific.
pub struct ShardWorldCache {
    config: GenConfig,
    slots: Vec<Mutex<Option<Internet>>>,
}

impl ShardWorldCache {
    /// A cache that generates worlds from `config`. No worlds are built
    /// until the first run.
    pub fn new(config: GenConfig) -> Self {
        ShardWorldCache {
            config,
            slots: Vec::new(),
        }
    }

    /// The generation config worlds are built from.
    pub fn config(&self) -> &GenConfig {
        &self.config
    }

    /// How many shard worlds are currently cached (warm slots).
    pub fn warm_shards(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.lock().unwrap().is_some())
            .count()
    }

    /// Drop every cached world (e.g. to bound memory between phases).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Run `experiment` over every shard of a `shards`-way partition,
    /// over warm worlds where they exist, and keep every world that
    /// survives its experiment for the next run.
    ///
    /// The experiment closure receives the shard's [`ShardSpec`] and its
    /// world (mutable: scans and sweeps drive the shard's own simulator).
    pub fn run<T, F>(&mut self, shards: u32, experiment: F) -> ShardedRun<T>
    where
        T: Send,
        F: Fn(ShardSpec, &mut Internet) -> T + Sync,
    {
        self.repartition(shards);
        let slots = &self.slots;
        self.pool(shards, experiment, |index, world| {
            let geo = world.geo.clone();
            *slots[index as usize].lock().unwrap() = Some(world);
            geo
        })
    }

    /// [`ShardWorldCache::run`] as the cache's last run: each world is
    /// dropped on its worker right after its experiment, and its
    /// [`GeoDb`] is moved out rather than cloned.
    pub fn run_once<T, F>(mut self, shards: u32, experiment: F) -> ShardedRun<T>
    where
        T: Send,
        F: Fn(ShardSpec, &mut Internet) -> T + Sync,
    {
        self.repartition(shards);
        self.pool(shards, experiment, |_, world| world.geo)
    }

    /// Size the slots for a `shards`-way partition, dropping the worlds
    /// of any other partition.
    fn repartition(&mut self, shards: u32) {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        if self.slots.len() != shards as usize {
            self.slots = (0..shards).map(|_| Mutex::new(None)).collect();
        }
    }

    /// The worker pool behind [`ShardWorldCache::run`] and
    /// [`ShardWorldCache::run_once`]. `settle` receives each world after
    /// its experiment succeeded, on the worker, and returns the shard's
    /// lookup database.
    fn pool<T, F, S>(&self, shards: u32, experiment: F, settle: S) -> ShardedRun<T>
    where
        T: Send,
        F: Fn(ShardSpec, &mut Internet) -> T + Sync,
        S: Fn(u32, Internet) -> GeoDb + Sync,
    {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1)
            .min(shards)
            .max(1);
        let job = |index: u32| {
            let spec = ShardSpec::new(index, shards);
            // Take the world OUT of its slot for the experiment: no lock
            // is held while it runs, and a panicking experiment leaves
            // the slot empty instead of poisoned.
            let taken = self.slots[index as usize].lock().unwrap().take();
            let mut world = match taken {
                Some(mut warm) => {
                    warm.reset();
                    warm
                }
                None => generate_shard(&self.config, spec),
            };
            let output = experiment(spec, &mut world);
            (output, settle(index, world))
        };
        let mut per_shard: Vec<_> = std::thread::scope(|scope| {
            let job = &job;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // detlint::allow(ad-hoc-spawn): this IS the sanctioned
                    // ShardWorldCache worker pool; outputs are re-sorted by
                    // shard index below, so scheduling order cannot escape.
                    scope.spawn(move || {
                        (w..shards)
                            .step_by(workers as usize)
                            .map(|index| {
                                let attempt = || catch_unwind(AssertUnwindSafe(|| job(index)));
                                // Retry a panicked job once before giving up
                                // on the shard: transient blips recover,
                                // deterministic failures reproduce and get
                                // recorded.
                                let result = attempt()
                                    .or_else(|_first| attempt())
                                    .map_err(|payload| panic_message(&*payload));
                                (index, result)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard worker died outside a job"))
                .collect()
        });
        // Deterministic order regardless of worker scheduling.
        per_shard.sort_by_key(|(shard, _)| *shard);
        let mut outputs = Vec::with_capacity(per_shard.len());
        let mut failures = Vec::new();
        let mut geo: Option<GeoDb> = None;
        for (shard, result) in per_shard {
            match result {
                Ok((output, shard_geo)) => {
                    match &mut geo {
                        None => geo = Some(shard_geo),
                        Some(merged) => merged.merge(shard_geo),
                    }
                    outputs.push((shard, output));
                }
                Err(message) => failures.push(ShardFailure { shard, message }),
            }
        }
        // A run whose every shard failed still reports the paper's 99.9 %
        // geo coverage semantics, not the derived (full-miss) default.
        let geo = match geo {
            Some(geo) => geo,
            None => GeoDb::new(),
        };
        ShardedRun {
            outputs,
            geo,
            failures,
            shards,
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_is_shard_zero_of_one() {
        assert_eq!(ShardSpec::solo(), ShardSpec::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_index() {
        let _ = ShardSpec::new(3, 3);
    }

    #[test]
    fn run_once_outputs_in_shard_order() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let (outputs, geo) = ShardWorldCache::new(config.clone())
            .run_once(3, |spec, world| (spec.index, world.targets.len()))
            .into_complete();
        assert_eq!(outputs.len(), 3);
        for (i, (index, _)) in outputs.iter().enumerate() {
            assert_eq!(*index, i as u32, "outputs sorted by shard index");
        }
        // The merged geo covers every shard's population.
        let total: usize = outputs.iter().map(|(_, n)| n).sum();
        assert!(total > 0);
        let solo = crate::generate(&config);
        assert_eq!(total, solo.targets.len());
        for host in &solo.truth.hosts {
            assert_eq!(geo.asn_of(host.ip), Some(host.asn));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_country_rejects_zero_shards() {
        let _ = shard_of_country(0, 0);
    }

    #[test]
    #[should_panic(expected = "shard 1 worker panicked: boom in shard 1")]
    fn worker_panic_names_the_failing_shard() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let _ = ShardWorldCache::new(config)
            .run_once(2, |spec, _world| {
                if spec.index == 1 {
                    panic!("boom in shard {}", spec.index);
                }
                0u32
            })
            .into_complete();
    }

    #[test]
    fn one_transient_panic_recovers_via_retry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let tripped = AtomicBool::new(false);
        let (outputs, _) = ShardWorldCache::new(config.clone())
            .run_once(2, |spec, world| {
                if spec.index == 1 && !tripped.swap(true, Ordering::SeqCst) {
                    panic!("transient blip in shard {}", spec.index);
                }
                world.targets.len()
            })
            .into_complete();
        assert!(tripped.load(Ordering::SeqCst), "the flaky path ran");
        assert_eq!(outputs.len(), 2, "retry recovered the flaky shard");
        let (clean, _) = ShardWorldCache::new(config)
            .run_once(2, |_, world| world.targets.len())
            .into_complete();
        assert_eq!(outputs, clean, "retried run matches clean run");
    }

    #[test]
    fn degraded_run_reports_partial_results_and_failures() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let run = ShardWorldCache::new(config.clone()).run_once(3, |spec, world| {
            if spec.index == 1 {
                panic!("deterministic failure in shard {}", spec.index);
            }
            world.targets.clone()
        });
        assert!(!run.is_complete());
        assert!((run.coverage() - 2.0 / 3.0).abs() < 1e-9);
        let (outputs, geo, failures) = run.into_partial();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 1);
        assert!(failures[0].message.contains("deterministic failure"));
        let shards: Vec<u32> = outputs.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 2], "surviving shards, in order");
        // Surviving shards' outputs are bit-identical to a healthy run's.
        let (healthy, healthy_geo) = ShardWorldCache::new(config)
            .run_once(3, |_, world| world.targets.clone())
            .into_complete();
        assert_eq!(outputs[0].1, healthy[0]);
        assert_eq!(outputs[1].1, healthy[2]);
        // The geo covers exactly the surviving populations.
        for (_, targets) in &outputs {
            for ip in targets {
                assert_eq!(geo.asn_of(*ip), healthy_geo.asn_of(*ip));
            }
        }
    }

    #[test]
    fn degraded_run_with_no_failures_matches_a_complete_run() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let degraded =
            ShardWorldCache::new(config.clone()).run_once(2, |_, world| world.targets.clone());
        assert!(degraded.is_complete());
        assert_eq!(degraded.coverage(), 1.0);
        let (full, _) = ShardWorldCache::new(config)
            .run_once(2, |_, world| world.targets.clone())
            .into_complete();
        let outputs: Vec<_> = degraded
            .into_partial()
            .0
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(outputs, full);
    }

    #[test]
    fn cached_worlds_rerun_identically_and_survive_count_changes() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut cache = ShardWorldCache::new(config.clone());
        let experiment = |_: ShardSpec, world: &mut Internet| world.targets.clone();
        let (cold, _) = cache.run(2, experiment).into_complete();
        assert_eq!(cache.warm_shards(), 2);
        let (warm, warm_geo) = cache.run(2, experiment).into_complete();
        assert_eq!(cold, warm, "warm rerun matches cold");
        let (fresh, fresh_geo) = ShardWorldCache::new(config)
            .run_once(2, experiment)
            .into_complete();
        assert_eq!(cold, fresh, "cache matches run_once");
        assert_eq!(warm_geo.prefix_count(), fresh_geo.prefix_count());
        assert_eq!(warm_geo.asn_count(), fresh_geo.asn_count());
        for ip in fresh.iter().flatten() {
            assert_eq!(warm_geo.asn_of(*ip), fresh_geo.asn_of(*ip));
        }
        // Count change rebuilds the partition.
        let (three, _) = cache.run(3, experiment).into_complete();
        assert_eq!(cache.warm_shards(), 3);
        let total: usize = three.iter().map(|t| t.len()).sum();
        let total2: usize = cold.iter().map(|t| t.len()).sum();
        assert_eq!(total, total2, "partition change keeps the population");
    }

    #[test]
    fn cache_regenerates_a_slot_after_an_experiment_panic() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut cache = ShardWorldCache::new(config);
        let (baseline, _) = cache
            .run(2, |_, world| world.targets.clone())
            .into_complete();
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache
                .run(2, |spec, _world: &mut Internet| {
                    if spec.index == 1 {
                        panic!("mid-experiment failure");
                    }
                    0u32
                })
                .into_complete()
        }));
        assert!(boom.is_err());
        assert!(cache.warm_shards() < 2, "failed shard's slot is empty");
        let (after, _) = cache
            .run(2, |_, world| world.targets.clone())
            .into_complete();
        assert_eq!(baseline, after, "regenerated identically");
    }

    fn targets(_: ShardSpec, world: &mut Internet) -> Vec<std::net::Ipv4Addr> {
        world.targets.clone()
    }

    /// A three-shard cache whose worlds are warm.
    fn warm_cache() -> ShardWorldCache {
        let mut cache = ShardWorldCache::new(GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        });
        let _ = cache.run(3, targets).into_complete();
        cache
    }

    /// A run in which every shard that `fails` selects panics on its
    /// first attempt and on its retry.
    fn run_failing(
        cache: &mut ShardWorldCache,
        fails: fn(u32) -> bool,
    ) -> ShardedRun<Vec<std::net::Ipv4Addr>> {
        cache.run(3, |spec, world| {
            if fails(spec.index) {
                panic!("shard {} broke on a warm world", spec.index);
            }
            targets(spec, world)
        })
    }

    #[test]
    fn warm_partial_run_keeps_survivors_and_regenerates_the_failed_slot() {
        let mut cache = warm_cache();
        let (healthy, healthy_geo) = cache.run(3, targets).into_complete();
        let run = run_failing(&mut cache, |i| i == 1);
        assert!(!run.is_complete());
        assert!((run.coverage() - 2.0 / 3.0).abs() < 1e-9);
        let (outputs, geo, failures) = run.into_partial();
        assert_eq!(
            failures,
            vec![ShardFailure {
                shard: 1,
                message: "shard 1 broke on a warm world".into()
            }]
        );
        assert_eq!(
            outputs,
            vec![(0, healthy[0].clone()), (2, healthy[2].clone())],
            "survivors bit-identical to a healthy warm run"
        );
        for (_, targets) in &outputs {
            for ip in targets {
                assert_eq!(geo.asn_of(*ip), healthy_geo.asn_of(*ip));
            }
        }
        assert!(
            cache.slots[1].lock().unwrap().is_none(),
            "failed slot stays empty"
        );
        assert_eq!(cache.warm_shards(), 2);
        let (after, _) = cache.run(3, targets).into_complete();
        assert_eq!(after, healthy, "failed slot regenerated identically");
        assert_eq!(cache.warm_shards(), 3);
    }

    #[test]
    #[should_panic(expected = "shard 1 worker panicked: shard 1 broke on a warm world")]
    fn warm_complete_run_panics_naming_the_lowest_failed_shard() {
        let _ = run_failing(&mut warm_cache(), |i| i >= 1).into_complete();
    }

    #[test]
    fn every_country_lands_in_exactly_one_shard() {
        for k in [1u32, 2, 3, 8] {
            for idx in 0..crate::COUNTRIES.len() {
                let s = shard_of_country(idx, k);
                assert!(s < k);
            }
            // Round-robin: all shards non-empty once indexes >= k exist.
            let hit: std::collections::HashSet<u32> = (0..crate::COUNTRIES.len())
                .map(|i| shard_of_country(i, k))
                .collect();
            assert_eq!(hit.len(), k as usize);
        }
    }
}

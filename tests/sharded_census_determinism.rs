//! Shard-count invariance of the census.
//!
//! The sharded engine's contract: partitioning the synthetic Internet
//! into K shards changes wall-clock behavior only — the classification
//! counts coming out of the merged offline correlation pass are identical
//! for every K, and identical to the classic single-simulator path.

use inetgen::{CountrySelection, GenConfig};
use scanner::{ClassifierConfig, OdnsClass};

/// The classification counts that must be invariant under sharding. The
/// raw probe count is *not* included: unresponsive dud targets are a
/// per-shard `floor(hosts · dud_fraction)` and flooring per shard may
/// yield one or two fewer duds than flooring once — duds never classify,
/// so every count below is untouched.
fn counts(census: &analysis::Census) -> (usize, usize, usize, usize) {
    (
        census.odns_total(),
        census.count(OdnsClass::TransparentForwarder),
        census.count(OdnsClass::RecursiveForwarder),
        census.count(OdnsClass::RecursiveResolver),
    )
}

#[test]
fn shard_counts_match_single_simulator_path() {
    let config = GenConfig::test_small();
    let mut internet = inetgen::generate(&config);
    let single = analysis::run_census(&mut internet, &ClassifierConfig::default());
    let baseline = counts(&single);
    assert!(baseline.1 > 0, "world must contain transparent forwarders");

    for k in [1u32, 2, 8] {
        let sharded = analysis::run_census_sharded(&config, k, &ClassifierConfig::default());
        assert_eq!(
            counts(&sharded),
            baseline,
            "classification counts diverged at K={k}"
        );
    }
}

#[test]
fn sharding_preserves_per_country_attribution() {
    // Beyond global counts: the merged geo database must attribute every
    // classified row to the same country the single path does.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM", "AFG"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    };
    let mut internet = inetgen::generate(&config);
    let single = analysis::run_census(&mut internet, &ClassifierConfig::default());
    let sharded = analysis::run_census_sharded(&config, 3, &ClassifierConfig::default());

    let per_country = |census: &analysis::Census| -> std::collections::BTreeMap<&str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for row in census.of_class(OdnsClass::TransparentForwarder) {
            *m.entry(row.country.unwrap_or("?")).or_insert(0) += 1;
        }
        m
    };
    assert_eq!(per_country(&single), per_country(&sharded));
}

#[test]
fn shard_worlds_probe_disjoint_population_targets() {
    // The partition really is disjoint: no planted address appears in two
    // shards, and the union covers the unsharded world exactly.
    let config = GenConfig::test_small();
    let shards: Vec<_> = inetgen::ShardSpec::partition(4)
        .into_iter()
        .map(|spec| inetgen::generate_shard(&config, spec))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for world in &shards {
        for host in &world.truth.hosts {
            assert!(
                seen.insert(host.ip),
                "address {} planted in two shards",
                host.ip
            );
        }
    }
    let solo = inetgen::generate(&config);
    let solo_ips: std::collections::HashSet<_> = solo.truth.hosts.iter().map(|h| h.ip).collect();
    assert_eq!(
        seen, solo_ips,
        "shard union must equal the unsharded population"
    );
}

#[test]
fn quick_census_sharded_matches_quick_census() {
    let base = transparent_forwarders::quick_census(2_000);
    for k in [1u32, 2, 8] {
        assert_eq!(
            transparent_forwarders::quick_census_sharded(2_000, k),
            base,
            "K={k}"
        );
    }
}

//! The census pipeline: run the transactional scan over a generated
//! Internet, classify every transaction, and enrich with geo/ASN data —
//! producing the dataframe every table and figure is computed from
//! (the paper's `dns-measurement-analysis` artifact).

use inetgen::{GeoDb, Internet, ShardWorldCache};
use scanner::records::{ProbeRecord, ResponseRecord};
use scanner::{
    classify, ClassifierConfig, Discard, OdnsClass, ScanConfig, ScanOutcome, Transaction, Verdict,
};
use std::net::Ipv4Addr;

/// One classified probe, enriched with mapping data.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusRow {
    /// Probed address.
    pub target: Ipv4Addr,
    /// Classification verdict.
    pub verdict: Verdict,
    /// Target's origin ASN (Routeviews-style lookup; `None` for the 0.1 %
    /// coverage gap).
    pub asn: Option<u32>,
    /// Target's country (via ASN → country).
    pub country: Option<&'static str>,
    /// Who answered (for classified rows).
    pub response_src: Option<Ipv4Addr>,
    /// The dynamic `A_resolver` record (for classified rows).
    pub a_resolver: Option<Ipv4Addr>,
}

impl CensusRow {
    /// The ODNS class, if classified.
    pub fn class(&self) -> Option<OdnsClass> {
        self.verdict.class()
    }
}

/// The census dataset. `PartialEq` row for row — what the capture-driven
/// verification asserts against the live census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Census {
    /// One row per probe.
    pub rows: Vec<CensusRow>,
    /// Responses that matched no probe.
    pub unmatched_responses: usize,
    /// Responses that arrived past the timeout.
    pub late_responses: usize,
    /// Answers discarded because their probe was already answered — wire
    /// duplicates and answers from superseded retransmission attempts.
    pub late_answers_discarded: usize,
}

impl Census {
    /// Build from correlated transactions plus the lookup database.
    pub fn from_transactions(
        transactions: &[Transaction],
        geo: &GeoDb,
        config: &ClassifierConfig,
    ) -> Self {
        let rows = transactions
            .iter()
            .map(|t| {
                let verdict = classify(t, config);
                let (response_src, a_resolver) = match verdict {
                    Verdict::Classified {
                        response_src,
                        a_resolver,
                        ..
                    } => (Some(response_src), Some(a_resolver)),
                    Verdict::Discarded(_) => (None, None),
                };
                let asn = geo.asn_of(t.probe.target);
                CensusRow {
                    target: t.probe.target,
                    verdict,
                    asn,
                    country: asn.and_then(|a| geo.country_of_asn(a)),
                    response_src,
                    a_resolver,
                }
            })
            .collect();
        Census {
            rows,
            ..Census::default()
        }
    }

    /// Build from a correlated scan: its transactions become rows, and
    /// its unmatched, late and discarded-answer counts carry over.
    pub fn from_outcome(outcome: &ScanOutcome, geo: &GeoDb, config: &ClassifierConfig) -> Self {
        Census {
            unmatched_responses: outcome.unmatched_responses,
            late_responses: outcome.late_responses,
            late_answers_discarded: outcome.late_answers_discarded,
            ..Census::from_transactions(&outcome.transactions, geo, config)
        }
    }

    /// Rows classified as `class`.
    pub fn of_class(&self, class: OdnsClass) -> impl Iterator<Item = &CensusRow> {
        self.rows.iter().filter(move |r| r.class() == Some(class))
    }

    /// Count per class.
    pub fn count(&self, class: OdnsClass) -> usize {
        self.of_class(class).count()
    }

    /// Total classified ODNS components.
    pub fn odns_total(&self) -> usize {
        self.rows.iter().filter(|r| r.class().is_some()).count()
    }

    /// Count of discarded probes by reason.
    pub fn discarded(&self, reason: Discard) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Discarded(reason))
            .count()
    }

    /// The transparent forwarders' addresses (DNSRoute++ targets).
    pub fn transparent_targets(&self) -> Vec<Ipv4Addr> {
        self.of_class(OdnsClass::TransparentForwarder)
            .map(|r| r.target)
            .collect()
    }

    /// Share of a class among all ODNS components, in [0, 1].
    pub fn share(&self, class: OdnsClass) -> f64 {
        let total = self.odns_total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// Export the full dataframe as CSV — the paper's
    /// `dns-measurement-analysis` artifact produces exactly such a table
    /// for downstream notebooks.
    pub fn to_csv(&self) -> String {
        let mut t = crate::table::TextTable::new([
            "target",
            "verdict",
            "class",
            "response_src",
            "a_resolver",
            "asn",
            "country",
        ]);
        for row in &self.rows {
            let (verdict, class) = match &row.verdict {
                Verdict::Classified { class, .. } => ("classified".to_string(), class.to_string()),
                Verdict::Discarded(reason) => (format!("{reason:?}"), String::new()),
            };
            t.row([
                row.target.to_string(),
                verdict,
                class,
                row.response_src.map(|i| i.to_string()).unwrap_or_default(),
                row.a_resolver.map(|i| i.to_string()).unwrap_or_default(),
                row.asn.map(|a| a.to_string()).unwrap_or_default(),
                row.country.unwrap_or("").to_string(),
            ]);
        }
        t.to_csv()
    }
}

/// Run the full transactional census against a generated Internet and
/// classify with `config`. Scanner state lives at the pre-provisioned
/// fixture node; the simulator's event loop drains completely (probe
/// pacing + 20 s timeout are simulated time, not wall time).
pub fn run_census(internet: &mut Internet, config: &ClassifierConfig) -> Census {
    let scan = census_scan_config(internet);
    let outcome = scanner::run_scan(&mut internet.sim, internet.fixtures.scanner, scan);
    Census::from_outcome(&outcome, &internet.geo, config)
}

/// Correlate one shard's raw record streams and classify them into that
/// shard's census part — the single in-worker tail every sharded driver
/// shares. Raw responses (payload-bearing, the bulk of a sweep's memory)
/// die here, on the worker thread; only classified rows cross back.
///
/// Using the shard's own [`GeoDb`] is exact, not approximate: countries
/// own disjoint address regions and a shard generates every prefix its
/// own targets can fall in, so shard-local lookups equal merged-database
/// lookups for every probed address (the `0.1 %` coverage gap is a pure
/// per-prefix hash, independent of partitioning).
pub(crate) fn census_part(
    probes: Vec<ProbeRecord>,
    responses: Vec<ResponseRecord>,
    geo: &GeoDb,
    config: &ClassifierConfig,
) -> Census {
    let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    Census::from_outcome(&outcome, geo, config)
}

/// The scan configuration a census world gets: the paper's defaults on a
/// clean network; on a faulty one, target-keyed tuples — the fault
/// plane's verdicts hash each probe's flow identity, and only the
/// target-keyed identity is the same for every shard count, so lossy
/// censuses stay partition-invariant (see [`scanner::TupleScheme`]).
fn census_scan_config(world: &Internet) -> ScanConfig {
    let scan = ScanConfig::new(world.targets.clone());
    if world.sim.faults_active() {
        scan.with_target_keyed_tuples()
    } else {
        scan
    }
}

/// One shard's census experiment: transactional scan, correlated and
/// classified in-worker against the shard's own lookup database.
pub(crate) fn census_shard_pass(world: &mut Internet, config: &ClassifierConfig) -> Census {
    let scan = census_scan_config(world);
    let (probes, responses, _retry) =
        scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
    census_part(probes, responses, &world.geo, config)
}

/// Concatenate per-shard census parts (ascending shard order, which is
/// how every sharded runner returns its outputs) into the merged census —
/// row for row what one scanner over the union target list would have
/// produced, since rows carry no probe index and classification is
/// per-transaction.
pub(crate) fn merge_census_parts(parts: Vec<Census>) -> Census {
    let mut merged = Census::default();
    merged
        .rows
        .reserve(parts.iter().map(|p| p.rows.len()).sum());
    for part in parts {
        merged.rows.extend(part.rows);
        merged.unmatched_responses += part.unmatched_responses;
        merged.late_responses += part.late_responses;
        merged.late_answers_discarded += part.late_answers_discarded;
    }
    merged
}

/// Run a `shards`-way sharded census: generate one world shard per
/// partition member, drive every shard's transactional scan on a worker
/// thread pool, and correlate + classify each shard's records *on its
/// worker* — only classified census rows survive the shard, so the
/// merge is a concatenation and peak memory stays per-shard-sized.
///
/// Built on [`ShardWorldCache::run_once`], the shared sharded experiment
/// runner: generation *and* scanning happen on the workers — each shard's
/// simulator lives and dies on one thread — so the wall-clock cost of a
/// large census divides by the worker count. Classification counts are
/// independent of `shards`: per-country generation derives only from
/// `(seed, country)` (see [`inetgen::generate_shard`]), and rows carry
/// no cross-shard state. `shards = 1` reproduces [`run_census`] over
/// [`inetgen::generate`] exactly.
pub fn run_census_sharded(
    gen_config: &inetgen::GenConfig,
    shards: u32,
    config: &ClassifierConfig,
) -> Census {
    let run = ShardWorldCache::new(gen_config.clone())
        .run_once(shards, |_, world| census_shard_pass(world, config));
    merge_census_parts(run.into_complete().0)
}

/// [`run_census_sharded`] over a warm [`ShardWorldCache`]: the first call
/// generates the shard worlds, every later call resets and reuses them —
/// generate once, scan many. Output is bit-identical to
/// [`run_census_sharded`] with the cache's configuration at any shard
/// count (the reset restores a world to its exact post-generation state).
pub fn run_census_cached(
    cache: &mut ShardWorldCache,
    shards: u32,
    config: &ClassifierConfig,
) -> Census {
    let run = cache.run(shards, |_, world| census_shard_pass(world, config));
    merge_census_parts(run.into_complete().0)
}

/// The offline-ingest tail: merge per-shard record collections through
/// [`scanner::merge_shard_records`] (the `(port, txid)` key space
/// restarts per shard) and classify the merged transactions. The
/// live drivers classify in-worker instead; this path serves capture
/// replay ([`crate::pcap_ingest::census_from_captures`]), where records
/// arrive shard-by-shard from pcap bytes and no worker exists.
pub(crate) fn census_from_shard_records(
    streams: Vec<scanner::ShardRecords>,
    geo: &inetgen::GeoDb,
    config: &ClassifierConfig,
) -> Census {
    let outcome = scanner::merge_shard_records(streams, ScanConfig::DEFAULT_TIMEOUT);
    Census::from_outcome(&outcome, geo, config)
}

/// Run a Shadowserver-style campaign pass over the same Internet and
/// aggregate its reported ODNS addresses per country. Returned map:
/// country → reported count (country-sorted, so downstream renderings are
/// byte-stable). Used for the Table 5 comparison.
pub fn run_shadowserver_census(
    internet: &mut Internet,
) -> std::collections::BTreeMap<&'static str, usize> {
    use scanner::{run_campaign, Campaign, CampaignConfig};
    let report = run_campaign(
        &mut internet.sim,
        internet.fixtures.campaign_scanners[0],
        CampaignConfig::new(Campaign::Shadowserver, internet.targets.clone()),
    );
    campaign_country_counts(&report, &internet.geo)
}

/// Per-country counts of a campaign's reported ODNS addresses — the raw
/// material of the paper's Table 5 comparison, shared by the unsharded
/// Shadowserver pass above and the sharded campaign sweep.
pub fn campaign_country_counts(
    report: &scanner::CampaignReport,
    geo: &GeoDb,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut per_country = std::collections::BTreeMap::new();
    for ip in &report.odns {
        if let Some(country) = geo.country_of(*ip) {
            *per_country.entry(country).or_insert(0) += 1;
        }
    }
    per_country
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanner::records::{ProbeRecord, ResponseRecord};

    fn geo() -> GeoDb {
        let mut g = GeoDb::perfect();
        g.add_prefix24(Ipv4Addr::new(203, 0, 113, 0), 65001);
        g.add_asn(65001, "BRA", netsim::AsKind::EyeballIsp);
        g
    }

    fn tx(target: Ipv4Addr, response_src: Ipv4Addr, addrs: &[Ipv4Addr]) -> Transaction {
        use dnswire::{DnsName, MessageBuilder, Record, RrType};
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let q = MessageBuilder::query(5, qname.clone(), RrType::A).build();
        let mut resp = MessageBuilder::response_to(&q).build();
        for a in addrs {
            resp.answers.push(Record::a(qname.clone(), 300, *a));
        }
        Transaction {
            probe: ProbeRecord {
                index: 0,
                target,
                sent_at: netsim::SimTime(0),
                src_port: 33000,
                txid: 5,
            },
            response: Some(ResponseRecord {
                received_at: netsim::SimTime(100),
                src: response_src,
                dst_port: 33000,
                payload: resp.encode().into(),
            }),
        }
    }

    #[test]
    fn census_rows_enriched_with_geo() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let t = tx(target, resolver, &[resolver, odns::study::CONTROL_A]);
        let census = Census::from_transactions(&[t], &geo(), &ClassifierConfig::default());
        assert_eq!(census.rows.len(), 1);
        let row = &census.rows[0];
        assert_eq!(row.class(), Some(OdnsClass::TransparentForwarder));
        assert_eq!(row.country, Some("BRA"));
        assert_eq!(row.asn, Some(65001));
        assert_eq!(row.a_resolver, Some(resolver));
        assert_eq!(census.transparent_targets(), vec![target]);
        assert_eq!(census.odns_total(), 1);
        assert!((census.share(OdnsClass::TransparentForwarder) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn discard_counting() {
        let target = Ipv4Addr::new(203, 0, 113, 2);
        let t = tx(target, target, &[target]); // single record: strict discard
        let census = Census::from_transactions(&[t], &geo(), &ClassifierConfig::default());
        assert_eq!(census.odns_total(), 0);
        assert_eq!(census.discarded(Discard::WrongRecordCount), 1);
    }

    #[test]
    fn csv_export_contains_every_row() {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let resolver = Ipv4Addr::new(8, 8, 8, 8);
        let classified = tx(target, resolver, &[resolver, odns::study::CONTROL_A]);
        let discarded = tx(
            Ipv4Addr::new(203, 0, 113, 2),
            Ipv4Addr::new(203, 0, 113, 2),
            &[],
        );
        let census = Census::from_transactions(
            &[classified, discarded],
            &geo(),
            &ClassifierConfig::default(),
        );
        let csv = census.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows:\n{csv}");
        assert!(lines[0].starts_with("target,verdict,class"));
        assert!(lines[1].contains("Transparent Forwarder"));
        assert!(lines[1].contains("8.8.8.8"));
        assert!(lines[1].contains("BRA"));
        assert!(lines[2].contains("NoAnswer"));
    }
}

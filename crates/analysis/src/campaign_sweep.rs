//! The sharded campaign sweep: the §3 scanning-campaign emulations
//! (Shadowserver, Censys, Shodan) driven over shard worlds in parallel,
//! with the transactional census riding in the same warm simulators and
//! every scanner tapped to an in-memory pcap.
//!
//! Built on [`inetgen::ShardWorldCache`], like the census and the DNSRoute++
//! sweep. Per shard world:
//!
//! 1. the study stack is already deployed by the generator; the three
//!    §3.1 honeypot sensors are installed on the fixture sensor nodes
//!    ([`install_sensors`]);
//! 2. the transactional scan runs over the shard's own target partition
//!    with the scanner node tapped — its records correlate and classify
//!    in-worker into the shard's census part, exactly as
//!    [`crate::run_census_sharded`]'s do;
//! 3. all three campaign emulations run sequentially from their own
//!    fixture nodes (each shard and each campaign owns its own source
//!    port space), spaced [`CAMPAIGN_EPOCH`] apart in simulated time so
//!    the sensors' 5-minute answer budget refills between passes (the
//!    paper runs the campaigns over separate weeks). The designated
//!    [`SENSOR_SHARD`] appends the four sensor addresses to its campaign
//!    target lists — exactly one shard, so merged sensor counters are
//!    partition-invariant (each sensor instance keeps its own per-/24
//!    rate limiter; splitting a source /24 across shards would double its
//!    budget).
//!
//! Per-shard outputs merge deterministically into the Table 3 campaign ×
//! sensor [`DetectionMatrix`], the Table 5 per-campaign ODNS component
//! counts, and the merged [`Census`] — all invariant in the shard count,
//! with `K = 1` bit-identical (timestamps and captures included) to the
//! unsharded scan-then-campaigns composition over [`inetgen::generate`].
//!
//! Every result is also reproducible from the captures alone
//! ([`CampaignSweep::capture_census`], [`CampaignSweep::capture_reports`])
//! — the sharded pipeline is capture-driven like the paper's
//! dumpcap-based artifact (§A.2).

use crate::census::{campaign_country_counts, census_part, merge_census_parts, Census};
use crate::pcap_ingest::{campaign_report_from_pcap, census_from_captures, IngestError};
use crate::sensor_sweep::SensorSweep;
use crate::table::TextTable;
use inetgen::build::scanner_addrs::SensorAddrs;
use inetgen::{Fixtures, GeoDb, Internet, ShardSpec, ShardWorldCache, ShardedRun};
use netsim::{SimDuration, Simulator};
use scanner::{
    run_campaign_delayed, run_scan_raw, Campaign, CampaignConfig, CampaignReport, ClassifierConfig,
    HoneypotSensor, ScanConfig, SensorKind, SensorStats,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Simulated-time spacing between campaign passes over the same world.
/// Longer than the sensors' 5-minute per-/24 budget (plus the correlation
/// timeout), so one campaign's probes never eat the next one's answers —
/// the paper achieved the same by running the campaigns weeks apart.
pub const CAMPAIGN_EPOCH: SimDuration = SimDuration::from_secs(400);

/// The shard whose campaign passes probe the sensor addresses. The sensor
/// network is a fixture replicated into every shard world, but its
/// addresses must be *probed* in exactly one shard: each shard's sensor
/// instances keep their own per-source-/24 rate limiters, so probing them
/// everywhere would grant the scanner /24 one answer budget per shard and
/// make the merged sensor counters scale with `K`. Shard 0 exists in
/// every partition, so the choice is partition-invariant.
pub const SENSOR_SHARD: u32 = 0;

/// Install the three §3.1 honeypot sensors on a world's fixture nodes,
/// resolving through Google like the paper's deployment.
pub fn install_sensors(world: &mut Internet) {
    let addrs = world.fixtures.sensor_addrs;
    let upstream = odns::ResolverProject::Google.service_ip();
    world.sim.install(
        world.fixtures.sensor1,
        HoneypotSensor::new(SensorKind::RecursiveResolver, upstream),
    );
    world.sim.install(
        world.fixtures.sensor2,
        HoneypotSensor::new(
            SensorKind::InteriorForwarder {
                reply_from: addrs.ip3,
            },
            upstream,
        ),
    );
    world.sim.install(
        world.fixtures.sensor3,
        HoneypotSensor::new(SensorKind::ExteriorForwarder, upstream),
    );
}

/// The four observable sensor addresses in Table 3 column order, for the
/// shard that probes them (empty elsewhere — see [`SENSOR_SHARD`]).
pub fn sensor_targets(spec: ShardSpec, addrs: SensorAddrs) -> Vec<Ipv4Addr> {
    if spec.index == SENSOR_SHARD {
        vec![addrs.ip1, addrs.ip2, addrs.ip3, addrs.ip4]
    } else {
        Vec::new()
    }
}

/// Merged counters of the three sensors across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorTotals {
    /// Sensor 1 (recursive-resolver sensor at `IP1`).
    pub sensor1: SensorStats,
    /// Sensor 2 (interior forwarder, receives `IP2`, replies `IP3`).
    pub sensor2: SensorStats,
    /// Sensor 3 (exterior forwarder at `IP4`).
    pub sensor3: SensorStats,
    /// Spoofed relays sensor 3 performed.
    pub relayed: u64,
}

impl SensorTotals {
    /// Sum another shard's totals into this one.
    pub fn absorb(&mut self, other: &SensorTotals) {
        self.sensor1.absorb(other.sensor1);
        self.sensor2.absorb(other.sensor2);
        self.sensor3.absorb(other.sensor3);
        self.relayed += other.relayed;
    }

    /// Queries shed by the sensors' 5-minute /24 limiters, all sensors.
    pub fn rate_limited(&self) -> u64 {
        self.sensor1.rate_limited + self.sensor2.rate_limited + self.sensor3.rate_limited
    }

    /// Queries that arrived at any sensor.
    pub fn queries(&self) -> u64 {
        self.sensor1.queries + self.sensor2.queries + self.sensor3.queries
    }
}

/// Read the sensors' counters off a world after its campaign passes.
pub fn collect_sensor_totals(sim: &Simulator, fixtures: &Fixtures) -> SensorTotals {
    let sensor = |node| -> &HoneypotSensor { sim.host_as(node).expect("sensor installed") };
    let s3 = sensor(fixtures.sensor3);
    SensorTotals {
        sensor1: sensor(fixtures.sensor1).stats,
        sensor2: sensor(fixtures.sensor2).stats,
        sensor3: s3.stats,
        relayed: s3.relay_stats.relayed,
    }
}

/// Table 3: which campaign discovers which sensor address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionMatrix {
    /// One row per campaign in [`Campaign::all`] order: detection of
    /// `IP1..IP4`.
    pub rows: Vec<(Campaign, [bool; 4])>,
}

impl DetectionMatrix {
    /// Derive the matrix from merged campaign reports.
    pub fn from_reports(reports: &[(Campaign, CampaignReport)], addrs: SensorAddrs) -> Self {
        let rows = reports
            .iter()
            .map(|(campaign, report)| {
                (
                    *campaign,
                    [
                        report.odns.contains(&addrs.ip1),
                        report.odns.contains(&addrs.ip2),
                        report.odns.contains(&addrs.ip3),
                        report.odns.contains(&addrs.ip4),
                    ],
                )
            })
            .collect();
        DetectionMatrix { rows }
    }

    /// The row for one campaign.
    pub fn row(&self, campaign: Campaign) -> Option<[bool; 4]> {
        self.rows
            .iter()
            .find(|(c, _)| *c == campaign)
            .map(|(_, r)| *r)
    }

    /// The matrix the paper reports (Table 3): every campaign finds the
    /// baseline resolver; Shadowserver additionally reports Sensor 2's
    /// *reply* address `IP3`; nobody identifies a forwarder's probed
    /// address.
    pub fn paper_expected() -> Self {
        DetectionMatrix {
            rows: vec![
                (Campaign::Shadowserver, [true, false, true, false]),
                (Campaign::Censys, [true, false, false, false]),
                (Campaign::Shodan, [true, false, false, false]),
            ],
        }
    }

    /// Render as the paper's ✓/✗ table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["Scanner", "IP1", "IP2", "IP3", "IP4"]);
        for (campaign, row) in &self.rows {
            let mark = |found: bool| if found { "\u{2713}" } else { "\u{2717}" };
            t.row([
                campaign.name().to_string(),
                mark(row[0]).to_string(),
                mark(row[1]).to_string(),
                mark(row[2]).to_string(),
                mark(row[3]).to_string(),
            ]);
        }
        t
    }
}

/// The pcap captures one shard's taps produced.
#[derive(Debug, Clone)]
pub struct ShardCaptures {
    /// Which shard.
    pub shard: u32,
    /// The transactional scanner's capture (probes + responses).
    pub scan: Vec<u8>,
    /// One capture per campaign pass, in [`Campaign::all`] order.
    pub campaigns: Vec<(Campaign, Vec<u8>)>,
}

/// Everything the sharded campaign sweep produces.
#[derive(Debug)]
pub struct CampaignSweep {
    /// The merged transactional census (identical to
    /// [`crate::run_census_sharded`] over the same configuration).
    pub census: Census,
    /// Merged per-campaign reports (ODNS sets unioned, counters summed),
    /// in [`Campaign::all`] order.
    pub reports: Vec<(Campaign, CampaignReport)>,
    /// Table 3: campaign × sensor detection matrix.
    pub matrix: DetectionMatrix,
    /// Merged sensor counters.
    pub sensors: SensorTotals,
    /// Per-shard captures, ascending shard order — sufficient to rebuild
    /// the census, the campaign reports, and the detection matrix offline
    /// ([`CampaignSweep::capture_census`],
    /// [`CampaignSweep::capture_reports`]). The sensors' internal
    /// counters ([`CampaignSweep::sensors`]) are host-side state that
    /// never crosses the tapped wire segments, so they are not
    /// reconstructible from captures.
    pub captures: Vec<ShardCaptures>,
    /// The merged lookup database.
    pub geo: GeoDb,
    /// The four observable sensor addresses.
    pub sensor_addrs: SensorAddrs,
}

impl CampaignSweep {
    /// Table 5's left-hand side: ODNS components each campaign reports.
    pub fn component_counts(&self) -> Vec<(Campaign, usize)> {
        self.reports
            .iter()
            .map(|(c, r)| (*c, r.odns.len()))
            .collect()
    }

    /// Per-country ODNS counts of one campaign's merged report.
    pub fn country_counts(&self, campaign: Campaign) -> BTreeMap<&'static str, usize> {
        let report = self
            .reports
            .iter()
            .find(|(c, _)| *c == campaign)
            .map(|(_, r)| r)
            .expect("campaign present in sweep");
        campaign_country_counts(report, &self.geo)
    }

    /// Table 5: the census's country ranking vs the Shadowserver-style
    /// per-country counts from the sweep's own campaign pass.
    pub fn table5(&self, top_n: usize) -> TextTable {
        crate::report::table5(
            &self.census,
            &self.country_counts(Campaign::Shadowserver),
            top_n,
        )
    }

    /// Rebuild the census from the per-shard scan captures alone — the
    /// capture-driven verification path. Equals [`CampaignSweep::census`]
    /// row for row.
    pub fn capture_census(&self, classifier: &ClassifierConfig) -> Result<Census, IngestError> {
        let captures: Vec<(u32, &[u8])> = self
            .captures
            .iter()
            .map(|c| (c.shard, c.scan.as_slice()))
            .collect();
        census_from_captures(&captures, &self.geo, classifier)
    }

    /// Replay every campaign capture offline and merge, rebuilding
    /// [`CampaignSweep::reports`] from the taps alone.
    pub fn capture_reports(&self) -> Result<Vec<(Campaign, CampaignReport)>, IngestError> {
        replay_reports(
            self.captures
                .iter()
                .flat_map(|shard| &shard.campaigns)
                .map(|(campaign, pcap)| (*campaign, pcap.as_slice())),
        )
    }

    /// All captures joined into one wireshark-openable pcap stream
    /// (inspection only — analysis must ingest per shard, see
    /// [`crate::pcap_ingest::shard_records_from_pcap`]).
    pub fn merged_capture(&self) -> Result<Vec<u8>, netsim::pcap::PcapError> {
        let mut parts: Vec<&[u8]> = Vec::new();
        for c in &self.captures {
            parts.push(&c.scan);
            for (_, pcap) in &c.campaigns {
                parts.push(pcap);
            }
        }
        netsim::pcap::merge_captures(&parts)
    }
}

/// Replay labelled campaign captures through their campaigns' processing
/// rules and merge — the one implementation of capture-driven report
/// reconstruction, shared by [`CampaignSweep::capture_reports`] and
/// [`crate::sensor_sweep::SensorSweep::capture_matrix`].
pub(crate) fn replay_reports<'a>(
    items: impl IntoIterator<Item = (Campaign, &'a [u8])>,
) -> Result<Vec<(Campaign, CampaignReport)>, IngestError> {
    let replayed = items
        .into_iter()
        .map(|(campaign, pcap)| campaign_report_from_pcap(campaign, pcap).map(|r| (campaign, r)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(merge_reports(replayed))
}

/// Fold per-shard (or per-capture) campaign reports into one merged
/// report per campaign, in [`Campaign::all`] order — the single place the
/// sharded merge semantics live, shared by the live drivers and the
/// capture-replay paths so the two can never silently diverge.
pub(crate) fn merge_reports(
    items: impl IntoIterator<Item = (Campaign, CampaignReport)>,
) -> Vec<(Campaign, CampaignReport)> {
    let mut merged: Vec<(Campaign, CampaignReport)> = Campaign::all()
        .into_iter()
        .map(|c| (c, CampaignReport::default()))
        .collect();
    for (campaign, report) in items {
        let slot = merged
            .iter_mut()
            .find(|(c, _)| *c == campaign)
            .expect("Campaign::all covers every campaign");
        slot.1.absorb(&report);
    }
    merged
}

/// One shard's contribution to the campaign sweep, before the
/// deterministic merge.
struct ShardOutput {
    census: Census,
    scan_capture: Vec<u8>,
    passes: ShardPasses,
}

/// The campaign passes one shard ran, and its sensors' counters after
/// them.
pub(crate) struct ShardPasses {
    shard: u32,
    passes: Vec<(Campaign, CampaignReport, Vec<u8>)>,
    sensors: SensorTotals,
    addrs: SensorAddrs,
}

/// Run the three campaign passes over `targets` — plus the sensor
/// addresses on the [`SENSOR_SHARD`] — from the world's campaign fixture
/// nodes, tapped, spaced [`CAMPAIGN_EPOCH`] apart. Shared by the campaign
/// and sensor sweeps (and, inlined, by the unsharded reference path the
/// determinism tests compare against).
pub(crate) fn run_campaign_passes(
    spec: ShardSpec,
    world: &mut Internet,
    mut targets: Vec<Ipv4Addr>,
) -> ShardPasses {
    let addrs = world.fixtures.sensor_addrs;
    targets.extend(sensor_targets(spec, addrs));
    let passes = Campaign::all()
        .into_iter()
        .enumerate()
        .map(|(i, campaign)| {
            let node = world.fixtures.campaign_scanners[i];
            world.sim.tap(node);
            let delay = if i == 0 {
                SimDuration::ZERO
            } else {
                CAMPAIGN_EPOCH
            };
            let report = run_campaign_delayed(
                &mut world.sim,
                node,
                CampaignConfig::new(campaign, targets.to_vec()),
                delay,
            );
            let capture = world.sim.take_capture(node).expect("campaign tapped");
            (campaign, report, capture)
        })
        .collect();
    ShardPasses {
        shard: spec.index,
        passes,
        sensors: collect_sensor_totals(&world.sim, &world.fixtures),
        addrs,
    }
}

/// The deterministic merge of every shard's campaign passes, in ascending
/// shard order: reports fold per campaign, sensor counters sum, captures
/// keep shard order. Shared by the campaign and sensor sweeps.
pub(crate) fn merge_campaign_passes(shards: Vec<ShardPasses>) -> SensorSweep {
    let mut shard_reports = Vec::new();
    let mut sensors = SensorTotals::default();
    let mut captures = Vec::with_capacity(shards.len());
    let mut addrs = None;
    for shard in shards {
        let mut shard_captures = Vec::with_capacity(shard.passes.len());
        for (campaign, report, capture) in shard.passes {
            shard_reports.push((campaign, report));
            shard_captures.push((campaign, capture));
        }
        sensors.absorb(&shard.sensors);
        captures.push((shard.shard, shard_captures));
        addrs.get_or_insert(shard.addrs);
    }
    let reports = merge_reports(shard_reports);
    let sensor_addrs = addrs.expect("at least one shard");
    SensorSweep {
        matrix: DetectionMatrix::from_reports(&reports, sensor_addrs),
        reports,
        sensors,
        captures,
        sensor_addrs,
    }
}

fn shard_campaign_pass(
    spec: ShardSpec,
    world: &mut Internet,
    classifier: &ClassifierConfig,
) -> ShardOutput {
    install_sensors(world);

    // The shard's transactional scan, tapped; the records correlate and
    // classify in-worker into this shard's census part, the capture feeds
    // the offline twin.
    let scanner_node = world.fixtures.scanner;
    world.sim.tap(scanner_node);
    let scan = ScanConfig::new(world.targets.clone());
    let (probes, responses, _retry) = run_scan_raw(&mut world.sim, scanner_node, scan);
    let scan_capture = world
        .sim
        .take_capture(scanner_node)
        .expect("scanner tapped");
    let census = census_part(probes, responses, &world.geo, classifier);

    // Campaign passes over the shard partition; the designated shard also
    // probes the sensors.
    let targets = world.targets.clone();
    ShardOutput {
        census,
        scan_capture,
        passes: run_campaign_passes(spec, world, targets),
    }
}

/// Run the full §3 campaign experiment sharded `shards` ways on a
/// worker-thread pool: per shard, transactional scan (tapped) → three
/// campaign emulations (tapped) over that shard's target partition, the
/// [`SENSOR_SHARD`] additionally probing the sensor deployment — then
/// merge records, reports, counters, and captures in deterministic shard
/// order.
pub fn run_campaign_sharded(
    gen_config: &inetgen::GenConfig,
    shards: u32,
    classifier: &ClassifierConfig,
) -> CampaignSweep {
    merge_campaign_outputs(
        ShardWorldCache::new(gen_config.clone()).run_once(shards, |spec, world| {
            shard_campaign_pass(spec, world, classifier)
        }),
    )
}

/// [`run_campaign_sharded`] over a warm [`ShardWorldCache`]: shard worlds
/// generate on the first call and reset-reuse afterwards (the reset
/// uninstalls the sensors and clears their limiter state along with all
/// other host state, so every run starts from the same fresh deployment).
/// Bit-identical to [`run_campaign_sharded`] with the cache's
/// configuration.
pub fn run_campaign_cached(
    cache: &mut ShardWorldCache,
    shards: u32,
    classifier: &ClassifierConfig,
) -> CampaignSweep {
    merge_campaign_outputs(cache.run(shards, |spec, world| {
        shard_campaign_pass(spec, world, classifier)
    }))
}

/// The deterministic merge both campaign drivers share: census parts
/// concatenate, reports fold per campaign, sensor counters sum, captures
/// keep ascending shard order.
fn merge_campaign_outputs(run: ShardedRun<ShardOutput>) -> CampaignSweep {
    let (outputs, geo) = run.into_complete();
    let mut census_parts = Vec::with_capacity(outputs.len());
    let mut scan_captures = Vec::with_capacity(outputs.len());
    let mut passes = Vec::with_capacity(outputs.len());
    for output in outputs {
        census_parts.push(output.census);
        scan_captures.push(output.scan_capture);
        passes.push(output.passes);
    }
    let merged = merge_campaign_passes(passes);
    let captures = merged
        .captures
        .into_iter()
        .zip(scan_captures)
        .map(|((shard, campaigns), scan)| ShardCaptures {
            shard,
            scan,
            campaigns,
        })
        .collect();
    CampaignSweep {
        census: merge_census_parts(census_parts),
        reports: merged.reports,
        matrix: merged.matrix,
        sensors: merged.sensors,
        captures,
        geo,
        sensor_addrs: merged.sensor_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> SensorAddrs {
        SensorAddrs {
            ip1: Ipv4Addr::new(203, 0, 113, 11),
            ip2: Ipv4Addr::new(203, 0, 113, 22),
            ip3: Ipv4Addr::new(203, 0, 113, 23),
            ip4: Ipv4Addr::new(203, 0, 113, 44),
        }
    }

    #[test]
    fn matrix_from_reports_checks_each_address() {
        let a = addrs();
        let mut shadow = CampaignReport::default();
        shadow.odns.insert(a.ip1);
        shadow.odns.insert(a.ip3);
        let mut censys = CampaignReport::default();
        censys.odns.insert(a.ip1);
        let matrix = DetectionMatrix::from_reports(
            &[
                (Campaign::Shadowserver, shadow),
                (Campaign::Censys, censys.clone()),
                (Campaign::Shodan, censys),
            ],
            a,
        );
        assert_eq!(matrix, DetectionMatrix::paper_expected());
        assert_eq!(
            matrix.row(Campaign::Shadowserver),
            Some([true, false, true, false])
        );
        let rendered = matrix.render().render();
        assert!(rendered.contains("Shadowserver"));
        assert!(rendered.contains('\u{2713}') && rendered.contains('\u{2717}'));
    }

    #[test]
    fn sensor_targets_only_in_designated_shard() {
        let a = addrs();
        assert_eq!(sensor_targets(ShardSpec::new(0, 4), a).len(), 4);
        assert!(sensor_targets(ShardSpec::new(1, 4), a).is_empty());
        assert_eq!(
            sensor_targets(ShardSpec::solo(), a),
            vec![a.ip1, a.ip2, a.ip3, a.ip4],
            "Table 3 column order"
        );
    }

    #[test]
    fn sensor_totals_sum() {
        let one = SensorTotals {
            sensor1: SensorStats {
                queries: 3,
                rate_limited: 0,
                upstream: 3,
                answered: 3,
            },
            sensor2: SensorStats {
                queries: 6,
                rate_limited: 3,
                upstream: 3,
                answered: 3,
            },
            sensor3: SensorStats {
                queries: 3,
                rate_limited: 0,
                upstream: 3,
                answered: 0,
            },
            relayed: 3,
        };
        let mut total = SensorTotals::default();
        total.absorb(&one);
        total.absorb(&SensorTotals::default()); // empty shards change nothing
        assert_eq!(total, one);
        assert_eq!(total.rate_limited(), 3);
        assert_eq!(total.queries(), 12);
    }
}

//! The four workloads: their world configurations and the public runners
//! whose wall time the end-to-end metrics report.

use analysis::{CampaignSweep, Census, ResilienceCell};
use dnsroute::{SanitizeStats, TraceResult};
use inetgen::{CountrySelection, GenConfig, ShardWorldCache};
use scanner::{Campaign, CampaignReport, ClassifierConfig};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};

/// The paper's six headline countries of §5 and Table 5.
const HEADLINE: [&str; 6] = ["BRA", "IND", "USA", "TUR", "ARG", "IDN"];

/// Loss rate and retry budget of the lossy census: `faultgate`'s grid
/// point (5 % flow-keyed loss, two retransmissions).
pub const LOSS_PERMILLE: u32 = 50;
pub const LOSS_RETRIES: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Census,
    CensusLossy,
    DnsRoute,
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Census,
        Workload::CensusLossy,
        Workload::DnsRoute,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Census => "census",
            Workload::CensusLossy => "census_lossy",
            Workload::DnsRoute => "dnsroute",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated world is part of the workload's definition; only the
    /// seed comes from the command line.
    pub fn gen_config(self, seed: u64) -> GenConfig {
        let (countries, scale, dud_fraction) = match self {
            Workload::Census => (CountrySelection::All, 10, 4.0),
            Workload::CensusLossy => (CountrySelection::All, 20, 4.0),
            Workload::DnsRoute | Workload::Campaign => {
                (CountrySelection::Codes(HEADLINE.to_vec()), 20, 0.0)
            }
        };
        GenConfig {
            seed,
            scale,
            dud_fraction,
            countries,
            ..GenConfig::default()
        }
    }

    /// Shard count K. Only the census runs two shards, so it is the one
    /// workload that uses both cores of a two-core machine.
    pub fn shards(self) -> u32 {
        match self {
            Workload::Census => 2,
            _ => 1,
        }
    }

    pub fn lossy(self) -> bool {
        self == Workload::CensusLossy
    }

    /// The workload's own name for `throughput_per_s` in the printed
    /// report.
    pub fn throughput_name(self) -> &'static str {
        match self {
            Workload::Census | Workload::CensusLossy => "targets_per_s",
            Workload::DnsRoute => "traces_per_s",
            Workload::Campaign => "campaign_probes_per_s",
        }
    }
}

/// What one sweep produced, in a form both the public runners and the
/// traced decomposition fill, so the two can be compared row for row.
#[derive(Debug, Default, PartialEq)]
pub struct SweepResult {
    /// Census rows (empty for the lossy public runner, which returns only
    /// its resilience cell).
    pub census: Census,
    pub lossy_cell: Option<ResilienceCell>,
    pub traces: Vec<TraceResult>,
    pub sanitize: Option<SanitizeStats>,
    pub reports: Vec<(Campaign, CampaignReport)>,
    pub matrix: Option<analysis::DetectionMatrix>,
    pub sensors: Option<analysis::SensorTotals>,
    /// Per shard: the scan capture, then one capture per campaign pass.
    pub captures: Vec<Vec<Vec<u8>>>,
}

impl SweepResult {
    /// The sweep's unit of work: targets for the censuses, traces for
    /// DNSRoute++, probes of the three campaign passes for the campaigns
    /// (every target plus the four sensor addresses, three times).
    pub fn work_units(&self, workload: Workload, targets: usize) -> usize {
        match workload {
            Workload::Census | Workload::CensusLossy => targets,
            Workload::DnsRoute => self.traces.len(),
            Workload::Campaign => 3 * (targets + 4),
        }
    }

    /// A digest of every row and counter of the output, so that later
    /// sweeps are compared with the reference row for row without the
    /// benchmark holding a second copy of the program's output.
    pub fn digest(&self) -> Digest {
        let SweepResult {
            census,
            lossy_cell,
            traces,
            sanitize,
            reports,
            matrix,
            sensors,
            captures,
        } = self;
        let mut feed = Feed(DefaultHasher::new(), 0);
        write!(
            feed,
            "{census:?}{lossy_cell:?}{traces:?}{sanitize:?}{reports:?}{matrix:?}{sensors:?}"
        )
        .expect("hashing cannot fail");
        // Capture bytes are hashed as they are: their debug rendering, a
        // number per byte, costs most of a second per sweep on `campaign`.
        for pcap in captures.iter().flatten() {
            feed.0.write_usize(pcap.len());
            feed.0.write(pcap);
            feed.1 += pcap.len();
        }
        Digest(feed.0.finish(), feed.1)
    }

    fn from_campaign(sweep: CampaignSweep) -> SweepResult {
        SweepResult {
            census: sweep.census,
            reports: sweep.reports,
            matrix: Some(sweep.matrix),
            sensors: Some(sweep.sensors),
            captures: sweep
                .captures
                .into_iter()
                .map(|c| {
                    let mut shard = vec![c.scan];
                    shard.extend(c.campaigns.into_iter().map(|(_, pcap)| pcap));
                    shard
                })
                .collect(),
            ..SweepResult::default()
        }
    }

    fn from_dnsroute(sweep: analysis::ShardedSweep) -> SweepResult {
        let (_, stats) = sweep.sanitized();
        SweepResult {
            census: sweep.census,
            traces: sweep.traces,
            sanitize: Some(stats),
            ..SweepResult::default()
        }
    }

    fn from_lossy(matrix: analysis::ResilienceMatrix) -> SweepResult {
        SweepResult {
            lossy_cell: matrix.cell(LOSS_PERMILLE, LOSS_RETRIES).cloned(),
            ..SweepResult::default()
        }
    }
}

/// A hash of a sweep's debug rendering, with capture bytes hashed raw,
/// and the number of bytes hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64, usize);

/// Streams formatted text into a hasher, counting its bytes.
struct Feed(DefaultHasher, usize);

impl std::fmt::Write for Feed {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        self.1 += s.len();
        Ok(())
    }
}

/// One sweep through the public cached runner: the first call on a cache
/// generates the worlds, every later call resets and reuses them.
pub fn run_cached(workload: Workload, cache: &mut ShardWorldCache) -> SweepResult {
    let classifier = ClassifierConfig::default();
    let k = workload.shards();
    match workload {
        Workload::Census => SweepResult {
            census: analysis::run_census_cached(cache, k, &classifier),
            ..SweepResult::default()
        },
        Workload::CensusLossy => SweepResult::from_lossy(analysis::run_resilience_sweep(
            cache,
            k,
            &[LOSS_PERMILLE],
            &[LOSS_RETRIES],
        )),
        Workload::DnsRoute => {
            SweepResult::from_dnsroute(analysis::run_dnsroute_cached(cache, k, &classifier))
        }
        Workload::Campaign => {
            SweepResult::from_campaign(analysis::run_campaign_cached(cache, k, &classifier))
        }
    }
}

/// One fresh sweep through the public one-shot runner: generate, sweep
/// and drop the worlds. The lossy census has no one-shot runner; its
/// one-shot is the resilience sweep over a cache that lives for one call.
pub fn run_oneshot(workload: Workload, seed: u64) -> SweepResult {
    let classifier = ClassifierConfig::default();
    let config = workload.gen_config(seed);
    let k = workload.shards();
    match workload {
        Workload::Census => SweepResult {
            census: analysis::run_census_sharded(&config, k, &classifier),
            ..SweepResult::default()
        },
        Workload::CensusLossy => run_cached(workload, &mut ShardWorldCache::new(config)),
        Workload::DnsRoute => {
            SweepResult::from_dnsroute(analysis::run_dnsroute_sharded(&config, k, &classifier))
        }
        Workload::Campaign => {
            SweepResult::from_campaign(analysis::run_campaign_sharded(&config, k, &classifier))
        }
    }
}

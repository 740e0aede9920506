//! The sharded sensor experiment: the §3.1 controlled experiment (three
//! honeypot sensors probed by the three campaign emulations) driven over
//! shard worlds on the shared [`inetgen::ShardWorldCache`] runner.
//!
//! The sensors are fixtures, replicated into every shard world; the
//! campaign passes probe them from the designated
//! [`crate::campaign_sweep::SENSOR_SHARD`] only, so the merged Table 3
//! [`DetectionMatrix`] and the summed [`SensorTotals`] (including the
//! 5-minute /24 limiter's shed counts) are invariant in the shard count —
//! with `K = 1` bit-identical to the unsharded deploy-sensors → three
//! epoch-spaced campaign passes composition. Every campaign node is
//! tapped, so the matrix is also reproducible from the captures alone
//! ([`SensorSweep::capture_matrix`]).

use crate::campaign_sweep::{
    install_sensors, merge_campaign_passes, run_campaign_passes, DetectionMatrix, SensorTotals,
};
use crate::pcap_ingest::IngestError;
use inetgen::build::scanner_addrs::SensorAddrs;
use inetgen::ShardWorldCache;
use scanner::{Campaign, CampaignReport};

/// One campaign pass's capture, labelled with its campaign.
pub type CampaignCapture = (Campaign, Vec<u8>);

/// Everything the sharded sensor experiment produces.
#[derive(Debug)]
pub struct SensorSweep {
    /// Table 3: campaign × sensor detection matrix.
    pub matrix: DetectionMatrix,
    /// Merged per-campaign reports over the sensor probes.
    pub reports: Vec<(Campaign, CampaignReport)>,
    /// Merged sensor counters (queries, limiter sheds, relays).
    pub sensors: SensorTotals,
    /// Per-shard campaign captures, ascending shard order.
    pub captures: Vec<(u32, Vec<CampaignCapture>)>,
    /// The four observable sensor addresses.
    pub sensor_addrs: SensorAddrs,
}

impl SensorSweep {
    /// Rebuild the detection matrix from the captures alone: replay every
    /// campaign's processing rules over its tap and merge. Equals
    /// [`SensorSweep::matrix`].
    pub fn capture_matrix(&self) -> Result<DetectionMatrix, IngestError> {
        let merged = crate::campaign_sweep::replay_reports(
            self.captures
                .iter()
                .flat_map(|(_, shard_campaigns)| shard_campaigns)
                .map(|(campaign, pcap)| (*campaign, pcap.as_slice())),
        )?;
        Ok(DetectionMatrix::from_reports(&merged, self.sensor_addrs))
    }
}

/// Run the §3.1 controlled experiment sharded `shards` ways: every shard
/// world deploys the study stack and the three sensors; the designated
/// shard's campaign emulations probe the four sensor addresses (tapped,
/// epoch-spaced); reports, counters, and captures merge in deterministic
/// shard order.
pub fn run_sensors_sharded(gen_config: &inetgen::GenConfig, shards: u32) -> SensorSweep {
    let run = ShardWorldCache::new(gen_config.clone()).run_once(shards, |spec, world| {
        install_sensors(world);
        run_campaign_passes(spec, world, Vec::new())
    });
    merge_campaign_passes(run.into_complete().0)
}

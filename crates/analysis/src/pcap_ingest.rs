//! Offline pcap ingestion: rebuild scan transactions from a raw capture.
//!
//! The paper's pipeline stores the complete scan traffic with `dumpcap`
//! and correlates offline (§A.2). This module proves our pipeline is
//! equally capture-driven: given only the scanner's pcap bytes, it
//! reconstructs probes (queries to port 53: QR clear), responses
//! (everything else, including answers that arrive *at* port 53 because
//! their probe left from it), and correlates them by `(port, TXID)` within
//! the timeout — independently of the in-memory records the scanner kept.
//!
//! The sharded drivers extend this to per-shard taps: every shard's
//! scanner capture alone rebuilds that shard's record streams
//! ([`shard_records_from_pcap`]), and the streams merge through the same
//! offline pass as the live sharded census ([`census_from_captures`]) —
//! so the whole sharded pipeline is reproducible from its captures, like
//! the paper's. Campaign emulations replay offline too
//! ([`campaign_report_from_pcap`]): a campaign's published report is a
//! pure function of its capture and its processing rules, which the live
//! scanner and the replay share ([`CampaignReport::observe`]).

use netsim::pcap::{read_pcap, PcapError};
use netsim::wire::{decode, DecodedPacket};
use netsim::{Datagram, SimDuration};
use scanner::records::{ProbeRecord, ResponseRecord, ScanOutcome};
use scanner::{Campaign, CampaignReport, ClassifierConfig, ShardRecords};
// detlint::allow(unordered-iter): the replay's `(port, txid) → target`
// lookup for the sanitizing campaigns; keyed lookups only, never iterated.
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Errors during capture ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The pcap container was malformed.
    Pcap(PcapError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Pcap(e) => write!(f, "pcap: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Reconstruct the raw probe/response record streams from capture bytes —
/// exactly what the live scanner's `run_scan_raw` returns, but computed
/// from the tap's pcap alone.
///
/// Packets that fail IP/UDP decoding are skipped (they would be ICMP or
/// corruption — dumpcap keeps them too, the analyzer ignores them).
pub fn streams_from_pcap(
    pcap: &[u8],
) -> Result<(Vec<ProbeRecord>, Vec<ResponseRecord>), IngestError> {
    let records = read_pcap(pcap).map_err(IngestError::Pcap)?;
    let mut probes: Vec<ProbeRecord> = Vec::new();
    let mut responses: Vec<ResponseRecord> = Vec::new();
    for rec in &records {
        let Ok(DecodedPacket::Udp(d)) = decode(&rec.data) else {
            continue; // ICMP and malformed frames are not DNS transactions
        };
        if let Some(txid) = probe_txid(&d) {
            probes.push(ProbeRecord {
                index: probes.len(),
                target: d.dst,
                sent_at: rec.ts,
                src_port: d.src_port,
                txid,
            });
        } else {
            responses.push(ResponseRecord {
                received_at: rec.ts,
                src: d.src,
                dst_port: d.dst_port,
                payload: d.payload.clone(),
            });
        }
    }
    Ok((probes, responses))
}

/// The txid of a datagram the scanner sent: a query (QR clear) to port
/// 53. The port alone does not decide — a probe whose tuple put its
/// *source* on port 53 is answered *at* port 53, and that answer is a
/// response.
fn probe_txid(d: &Datagram) -> Option<u16> {
    if d.dst_port == dnswire::DNS_PORT && dnswire::peek_qr(&d.payload) == Some(false) {
        dnswire::peek_id(&d.payload)
    } else {
        None
    }
}

/// Reconstruct a [`ScanOutcome`] from raw capture bytes.
pub fn outcome_from_pcap(pcap: &[u8], timeout: SimDuration) -> Result<ScanOutcome, IngestError> {
    let (probes, responses) = streams_from_pcap(pcap)?;
    // Same offline pass as the live scanner and the sharded merge — one
    // implementation of the matching semantics for all three paths.
    Ok(scanner::correlate_owned(probes, responses, timeout))
}

/// Rebuild one shard's [`ShardRecords`] from that shard's scanner capture
/// — the capture-driven twin of the per-shard `run_scan_raw` collection
/// step. `(port, txid)` tuples restart in every shard, so each capture
/// must be ingested separately and merged at the record-stream level
/// (never by concatenating pcaps).
pub fn shard_records_from_pcap(shard: u32, pcap: &[u8]) -> Result<ShardRecords, IngestError> {
    let (probes, responses) = streams_from_pcap(pcap)?;
    Ok(ShardRecords::new(shard, probes, responses))
}

/// The capture-driven sharded census: rebuild every shard's record
/// streams from its capture alone and run the identical merge →
/// correlate → classify tail as the live sharded census. Given the
/// captures of a [`crate::run_campaign_sharded`] (or any sharded scan
/// with per-shard scanner taps), the result equals the in-memory census
/// row for row.
pub fn census_from_captures<S: AsRef<[u8]>>(
    captures: &[(u32, S)],
    geo: &inetgen::GeoDb,
    classifier: &ClassifierConfig,
) -> Result<crate::census::Census, IngestError> {
    let mut streams = Vec::with_capacity(captures.len());
    for (shard, pcap) in captures {
        streams.push(shard_records_from_pcap(*shard, pcap.as_ref())?);
    }
    Ok(crate::census::census_from_shard_records(
        streams, geo, classifier,
    ))
}

/// Replay a campaign's processing rules over its capture, rebuilding the
/// [`CampaignReport`] it published — the offline proof that a campaign's
/// feed is a pure function of the traffic it saw plus its (stateless or
/// connected-socket) pipeline. Sent probes register their
/// `(port, txid) → target`; every other datagram goes, in capture order,
/// through [`CampaignReport::observe`], the rules the live scanner
/// applies.
pub fn campaign_report_from_pcap(
    campaign: Campaign,
    pcap: &[u8],
) -> Result<CampaignReport, IngestError> {
    let records = read_pcap(pcap).map_err(IngestError::Pcap)?;
    // detlint::allow(unordered-iter): probe correlation is lookup-only —
    // responses are processed in capture order, the map is never iterated.
    let mut sent: HashMap<(u16, u16), Ipv4Addr> = HashMap::new();
    let mut report = CampaignReport::default();
    for rec in &records {
        let Ok(DecodedPacket::Udp(d)) = decode(&rec.data) else {
            continue; // ICMP never reaches a campaign's response pipeline
        };
        if let Some(txid) = probe_txid(&d) {
            sent.insert((d.src_port, txid), d.dst);
            continue;
        }
        let probed = dnswire::peek_id(&d.payload).and_then(|id| sent.get(&(d.dst_port, id)));
        report.observe(campaign, d.src, &d.payload, probed.copied());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{MessageBuilder, RrType};
    use netsim::pcap::PcapWriter;
    use netsim::wire::encode_udp;
    use netsim::{Datagram, SimTime};
    use std::net::Ipv4Addr;

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const TARGET: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn query_bytes(txid: u16) -> Vec<u8> {
        MessageBuilder::query(txid, odns::study::study_qname(), RrType::A)
            .build()
            .encode()
    }

    fn response_bytes(txid: u16) -> Vec<u8> {
        let q = MessageBuilder::query(txid, odns::study::study_qname(), RrType::A).build();
        MessageBuilder::response_to(&q)
            .answer_a(odns::study::study_qname(), 300, RESOLVER)
            .answer_a(odns::study::study_qname(), 300, odns::study::CONTROL_A)
            .build()
            .encode()
    }

    fn capture() -> Vec<u8> {
        let mut w = PcapWriter::new();
        // Probe out at t=0.
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: 33000,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(7).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        // Response from the resolver (transparent forwarder!) at t=40ms.
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 33000,
            ttl: 60,
            payload: response_bytes(7).into(),
        };
        w.write(SimTime(40_000), &encode_udp(&resp, 2));
        w.finish()
    }

    #[test]
    fn transactions_rebuilt_from_capture_alone() {
        let outcome = outcome_from_pcap(&capture(), SimDuration::from_secs(20)).unwrap();
        assert_eq!(outcome.transactions.len(), 1);
        let t = &outcome.transactions[0];
        assert_eq!(t.probe.target, TARGET);
        assert_eq!(t.response_src(), Some(RESOLVER));
        assert_eq!(outcome.unmatched_responses, 0);
        // The classifier works on reconstructed transactions too.
        let v = scanner::classify(t, &scanner::ClassifierConfig::default());
        assert_eq!(v.class(), Some(scanner::OdnsClass::TransparentForwarder));
    }

    #[test]
    fn late_response_rejected_by_timeout() {
        let mut w = PcapWriter::new();
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: 33000,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(9).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 33000,
            ttl: 60,
            payload: response_bytes(9).into(),
        };
        w.write(SimTime(25_000_000), &encode_udp(&resp, 2)); // 25 s
        let outcome = outcome_from_pcap(&w.finish(), SimDuration::from_secs(20)).unwrap();
        assert!(outcome.transactions[0].response.is_none());
        assert_eq!(outcome.late_responses, 1);
    }

    #[test]
    fn unsolicited_response_counted() {
        let mut w = PcapWriter::new();
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 40000,
            ttl: 60,
            payload: response_bytes(1).into(),
        };
        w.write(SimTime(0), &encode_udp(&resp, 1));
        let outcome = outcome_from_pcap(&w.finish(), SimDuration::from_secs(20)).unwrap();
        assert!(outcome.transactions.is_empty());
        assert_eq!(outcome.unmatched_responses, 1);
    }

    #[test]
    fn bad_pcap_rejected() {
        assert!(matches!(
            outcome_from_pcap(&[0u8; 10], SimDuration::from_secs(20)),
            Err(IngestError::Pcap(_))
        ));
        assert!(matches!(
            shard_records_from_pcap(0, &[0u8; 10]),
            Err(IngestError::Pcap(_))
        ));
        assert!(matches!(
            campaign_report_from_pcap(Campaign::Censys, &[0u8; 10]),
            Err(IngestError::Pcap(_))
        ));
    }

    #[test]
    fn shard_records_rebuilt_with_shard_local_indices() {
        let records = shard_records_from_pcap(7, &capture()).unwrap();
        assert_eq!(records.shard, 7);
        assert_eq!(records.probes.len(), 1);
        assert_eq!(records.probes[0].index, 0, "indices restart per shard");
        assert_eq!(records.probes[0].target, TARGET);
        assert_eq!(records.responses.len(), 1);
        assert_eq!(records.responses[0].src, RESOLVER);
    }

    #[test]
    fn campaign_replay_applies_sanitizing_rules() {
        // The capture of `capture()` holds a probe to TARGET answered from
        // RESOLVER — a source mismatch.
        let shadow = campaign_report_from_pcap(Campaign::Shadowserver, &capture()).unwrap();
        assert!(shadow.odns.contains(&RESOLVER), "responder reported");
        assert!(!shadow.odns.contains(&TARGET));
        assert_eq!(shadow.sanitized_out, 0);

        let censys = campaign_report_from_pcap(Campaign::Censys, &capture()).unwrap();
        assert!(censys.odns.is_empty(), "mismatched source dropped");
        assert_eq!(censys.sanitized_out, 1);
    }

    #[test]
    fn campaign_replay_counts_invalid_responses() {
        let mut w = PcapWriter::new();
        let garbage = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 41_000,
            ttl: 60,
            payload: vec![0xFF, 0x01].into(),
        };
        w.write(SimTime(0), &encode_udp(&garbage, 1));
        // A well-formed response without A records is invalid too.
        let q = MessageBuilder::query(3, odns::study::study_qname(), RrType::A).build();
        let empty = q.response_skeleton();
        let no_answers = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 41_000,
            ttl: 60,
            payload: empty.encode().into(),
        };
        w.write(SimTime(10), &encode_udp(&no_answers, 2));
        let report = campaign_report_from_pcap(Campaign::Shadowserver, &w.finish()).unwrap();
        assert_eq!(report.invalid, 2);
        assert!(report.odns.is_empty());
    }

    #[test]
    fn answer_to_a_probe_sent_from_port_53_is_a_response() {
        // The port walk wraps: probe 32,589 of every 65 k block leaves
        // from port 53, and its answer arrives at port 53.
        let walk = scanner::ScanConfig::new(Vec::new());
        assert_eq!(walk.probe_tuple(32_589).0, dnswire::DNS_PORT);
        let mut w = PcapWriter::new();
        let probe = Datagram {
            src: SCANNER,
            dst: TARGET,
            src_port: 53,
            dst_port: 53,
            ttl: 64,
            payload: query_bytes(7).into(),
        };
        w.write(SimTime(0), &encode_udp(&probe, 1));
        let resp = Datagram {
            src: RESOLVER,
            dst: SCANNER,
            src_port: 53,
            dst_port: 53,
            ttl: 60,
            payload: response_bytes(7).into(),
        };
        w.write(SimTime(40_000), &encode_udp(&resp, 2));
        let pcap = w.finish();
        let outcome = outcome_from_pcap(&pcap, SimDuration::from_secs(20)).unwrap();
        assert_eq!(outcome.transactions.len(), 1, "the answer is not a probe");
        assert_eq!(outcome.answered_count(), 1);
        assert_eq!(outcome.transactions[0].response_src(), Some(RESOLVER));
        // The campaign replay tells probes from answers the same way.
        let shadow = campaign_report_from_pcap(Campaign::Shadowserver, &pcap).unwrap();
        assert_eq!(shadow.odns, [RESOLVER].into_iter().collect());
    }

    #[test]
    fn campaign_replay_matches_live_passes_with_retransmissions() {
        // Live campaign passes over a lossy world, retrying: every report
        // rebuilt from the pass's capture alone must equal the live one.
        let config = inetgen::GenConfig {
            countries: inetgen::CountrySelection::Codes(vec!["BRA", "TUR"]),
            scale: 2_000,
            dud_fraction: 0.0,
            ..inetgen::GenConfig::default()
        };
        let mut world = inetgen::generate(&config);
        world
            .sim
            .set_faults(netsim::FaultPlan::lossy(0.1).salted(config.seed));
        let node = world.fixtures.campaign_scanners[0];
        for campaign in Campaign::all() {
            world.sim.tap(node);
            let pass = scanner::CampaignConfig::new(campaign, world.targets.clone())
                .with_retry(netsim::RetryPolicy::retries(3));
            let live = scanner::run_campaign(&mut world.sim, node, pass);
            let pcap = world.sim.take_capture(node).expect("tapped");
            let replay = campaign_report_from_pcap(campaign, &pcap).unwrap();
            assert!(live.retransmits_sent > 0, "{campaign}: the loss must bite");
            assert!(!live.odns.is_empty());
            assert_eq!(live.sanitized_out > 0, campaign.sanitizes_source());
            assert_eq!(replay.odns, live.odns, "{campaign}");
            assert_eq!(replay.sanitized_out, live.sanitized_out, "{campaign}");
            assert_eq!(replay.invalid, live.invalid, "{campaign}");
        }
    }
}

//! Emulations of the popular scanning campaigns: Shadowserver, Censys,
//! Shodan.
//!
//! The §3 controlled experiment reverse-engineers three observable
//! behaviours, which are all this module models:
//!
//! * **Shadowserver** evaluates responses *independently of requests* (a
//!   stateless, response-based pipeline): whatever address answers with a
//!   plausible DNS response is reported as an ODNS component. It therefore
//!   reports Sensor 2's replying address `IP3` — and aggregates all
//!   responses from one resolver into a single entry, hiding every
//!   transparent forwarder behind it (Table 3, Table 5).
//! * **Censys** and **Shodan** use connected-socket semantics: a response
//!   is only accepted if its source matches the probed target (their
//!   "sanitizing step"), so mismatched responses are dropped entirely —
//!   they miss both `IP3` and all transparent forwarders.
//!
//! All three emulations probe with real DNS queries through the simulator;
//! only the *processing* differs.

use crate::pacing::Pacer;
use crate::transactional::static_probe;
use dnswire::Message;
use netsim::{Ctx, Datagram, Host, NodeId, RetryPolicy, SimDuration, Simulator, UdpSend};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The three campaigns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Campaign {
    /// The Shadowserver Foundation's open-resolver scan.
    Shadowserver,
    /// Censys.
    Censys,
    /// Shodan.
    Shodan,
}

impl Campaign {
    /// All campaigns in the paper's order.
    pub fn all() -> [Campaign; 3] {
        [Campaign::Shadowserver, Campaign::Censys, Campaign::Shodan]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Campaign::Shadowserver => "Shadowserver",
            Campaign::Censys => "Censys",
            Campaign::Shodan => "Shodan",
        }
    }

    /// Whether this campaign sanitizes source-mismatched responses
    /// (connected-socket semantics).
    pub fn sanitizes_source(self) -> bool {
        match self {
            Campaign::Shadowserver => false,
            Campaign::Censys | Campaign::Shodan => true,
        }
    }
}

impl std::fmt::Display for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Campaign scan configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Which campaign's processing to apply.
    pub campaign: Campaign,
    /// Targets to probe.
    pub targets: Vec<Ipv4Addr>,
    /// Probe pacing.
    pub inter_probe_gap: SimDuration,
    /// Base source port.
    pub base_port: u16,
    /// Retransmission policy (default: single-shot, matching the real
    /// campaigns' observable behavior).
    pub retry: RetryPolicy,
}

impl CampaignConfig {
    /// Config with defaults.
    pub fn new(campaign: Campaign, targets: Vec<Ipv4Addr>) -> Self {
        CampaignConfig {
            campaign,
            targets,
            inter_probe_gap: SimDuration::from_micros(50),
            base_port: 41_000,
            retry: RetryPolicy::none(),
        }
    }

    /// Enable retransmissions (validated loudly).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        self.retry = retry;
        self
    }
}

/// What a campaign publishes after its pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Addresses reported as ODNS components. A `BTreeSet` because real
    /// campaign feeds aggregate by responder — this single line is why
    /// transparent forwarders vanish from them.
    pub odns: BTreeSet<Ipv4Addr>,
    /// Responses dropped by the source-sanitizing step (Censys/Shodan).
    pub sanitized_out: u64,
    /// Responses that did not parse or carried no A record.
    pub invalid: u64,
    /// Retransmissions sent (zero unless the pass ran with a
    /// [`RetryPolicy`]).
    pub retransmits_sent: u64,
}

impl CampaignReport {
    /// Merge another pass of the *same* campaign into this report: the
    /// ODNS sets union (real feeds aggregate by responder globally, so a
    /// resolver answering for targets in two shards is still one entry)
    /// and the drop counters sum. This is the shard-merge of the sharded
    /// campaign sweep; it is associative and input-order independent.
    pub fn absorb(&mut self, other: &CampaignReport) {
        self.odns.extend(other.odns.iter().copied());
        self.sanitized_out += other.sanitized_out;
        self.invalid += other.invalid;
        self.retransmits_sent += other.retransmits_sent;
    }

    /// Apply the campaign's processing rules to one response from `src`
    /// — the single definition both the live [`CampaignScanner`] and the
    /// offline capture replay use. `probed` is the target of the probe
    /// the response's `(port, txid)` claims to answer, if such a probe
    /// was sent. A response needs at least one plausible A record;
    /// sanitizing campaigns (connected-socket semantics) also require it
    /// to come from the probed target, and Shadowserver reports whoever
    /// answers.
    pub fn observe(
        &mut self,
        campaign: Campaign,
        src: Ipv4Addr,
        payload: &[u8],
        probed: Option<Ipv4Addr>,
    ) {
        let Ok(msg) = Message::decode(payload) else {
            self.invalid += 1;
            return;
        };
        if !msg.is_response() || msg.answer_a_addrs().is_empty() {
            self.invalid += 1;
        } else if campaign.sanitizes_source() && probed != Some(src) {
            self.sanitized_out += 1;
        } else {
            self.odns.insert(src);
        }
    }
}

/// A campaign scanner host. It sends the transactional scanner's
/// static-name probe; only its tuple layout and its processing of answers
/// (see [`CampaignReport::observe`]) are its own.
#[derive(Debug)]
pub struct CampaignScanner {
    config: CampaignConfig,
    /// Pacing, retry checks and the answered/attempts ledger.
    pacer: Pacer,
    /// The report being accumulated.
    pub report: CampaignReport,
}

impl CampaignScanner {
    /// Build from config.
    pub fn new(config: CampaignConfig) -> Self {
        CampaignScanner {
            pacer: Pacer::new(config.targets.len(), config.inter_probe_gap, config.retry),
            config,
            report: CampaignReport::default(),
        }
    }

    /// The campaign's tuple layout: the txid walks within a 65 k block,
    /// the port advances once per block.
    fn probe_tuple(&self, index: usize) -> (u16, u16) {
        (
            (self.config.base_port as usize + (index >> 16)) as u16,
            (index & 0xFFFF) as u16,
        )
    }

    /// Inverse of [`CampaignScanner::probe_tuple`].
    fn probe_index(&self, dst_port: u16, txid: u16) -> usize {
        (usize::from(dst_port.wrapping_sub(self.config.base_port)) << 16) | usize::from(txid)
    }
}

impl Host for CampaignScanner {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
        // The probe this response claims to answer, if it was sent. Any
        // response stops that probe's retransmissions, however the
        // campaign's pipeline judges it.
        let index = dnswire::peek_id(&dgram.payload)
            .map(|txid| self.probe_index(dgram.dst_port, txid))
            .filter(|&i| self.pacer.launched(i));
        if let Some(i) = index {
            self.pacer.note_answer(i);
        }
        let probed = index.map(|i| self.config.targets[i]);
        self.report
            .observe(self.config.campaign, dgram.src, &dgram.payload, probed);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((index, attempt)) = self.pacer.fire(token) {
            let (port, txid) = self.probe_tuple(index);
            let target = self.config.targets[index];
            let probe = UdpSend::new(port, target, dnswire::DNS_PORT, static_probe(txid));
            ctx.send_udp_attempt(probe, attempt);
            if attempt > 0 {
                self.report.retransmits_sent += 1;
            }
            self.pacer.arm(ctx, index, attempt);
        }
    }

    netsim::impl_host_downcast!();
}

/// Install and run a campaign pass, returning its report.
pub fn run_campaign(sim: &mut Simulator, node: NodeId, config: CampaignConfig) -> CampaignReport {
    run_campaign_delayed(sim, node, config, SimDuration::ZERO)
}

/// Like [`run_campaign`], but the first probe goes out `start_after` of
/// simulated time from now. Experiment drivers that run several campaigns
/// over the same world (the paper runs them over separate weeks) use this
/// to space the passes beyond the sensors' 5-minute rate-limit window, so
/// one campaign's probes never eat the next one's answer budget.
pub fn run_campaign_delayed(
    sim: &mut Simulator,
    node: NodeId,
    config: CampaignConfig,
    start_after: SimDuration,
) -> CampaignReport {
    sim.install(node, CampaignScanner::new(config));
    crate::pacing::start(sim, node, start_after);
    sim.run();
    sim.host_as::<CampaignScanner>(node)
        .expect("campaign installed")
        .report
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{MessageBuilder, RrType};
    use netsim::testkit::playground;
    use netsim::SimConfig;
    use odns::{study, RecursiveForwarder, TransparentForwarder};

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const TRANSP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RECFWD: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    /// Canned resolver answering from its own address.
    struct Canned;
    impl Host for Canned {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let q = Message::decode(&dgram.payload).unwrap();
            let resp = MessageBuilder::response_to(&q)
                .recursion_available(true)
                .answer_a(q.questions[0].qname.clone(), 300, dgram.dst)
                .answer_a(q.questions[0].qname.clone(), 300, study::CONTROL_A)
                .build();
            ctx.send_udp(UdpSend {
                src: Some(dgram.dst),
                src_port: 53,
                dst: dgram.src,
                dst_port: dgram.src_port,
                ttl: None,
                payload: resp.encode().into(),
            });
        }
        netsim::impl_host_downcast!();
    }

    fn scenario(campaign: Campaign) -> CampaignReport {
        let (topo, nodes) = playground(&[SCANNER, TRANSP, RECFWD, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(nodes[1], TransparentForwarder::new(RESOLVER));
        sim.install(nodes[2], RecursiveForwarder::new(RESOLVER));
        sim.install(nodes[3], Canned);
        run_campaign(
            &mut sim,
            nodes[0],
            CampaignConfig::new(campaign, vec![TRANSP, RECFWD, RESOLVER]),
        )
    }

    #[test]
    fn shadowserver_reports_responders_missing_transparent_forwarders() {
        let report = scenario(Campaign::Shadowserver);
        // The transparent forwarder's response arrives from RESOLVER, so
        // Shadowserver reports {RECFWD, RESOLVER} — TRANSP is invisible
        // and RESOLVER's two responses collapse into one entry.
        assert!(report.odns.contains(&RECFWD));
        assert!(report.odns.contains(&RESOLVER));
        assert!(
            !report.odns.contains(&TRANSP),
            "transparent forwarder must be missed"
        );
        assert_eq!(report.odns.len(), 2);
    }

    #[test]
    fn censys_and_shodan_sanitize_mismatched_sources() {
        for campaign in [Campaign::Censys, Campaign::Shodan] {
            let report = scenario(campaign);
            assert!(report.odns.contains(&RECFWD));
            assert!(report.odns.contains(&RESOLVER));
            assert!(!report.odns.contains(&TRANSP));
            assert_eq!(
                report.sanitized_out, 1,
                "{campaign}: the relayed answer is dropped"
            );
        }
    }

    #[test]
    fn delayed_campaign_same_report_later_clock() {
        let (topo, nodes) = playground(&[SCANNER, TRANSP, RECFWD, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(nodes[1], TransparentForwarder::new(RESOLVER));
        sim.install(nodes[2], RecursiveForwarder::new(RESOLVER));
        sim.install(nodes[3], Canned);
        let report = run_campaign_delayed(
            &mut sim,
            nodes[0],
            CampaignConfig::new(Campaign::Shadowserver, vec![TRANSP, RECFWD, RESOLVER]),
            SimDuration::from_secs(400),
        );
        assert_eq!(report, scenario(Campaign::Shadowserver));
        assert!(sim.now() >= netsim::SimTime::ZERO + SimDuration::from_secs(400));
    }

    #[test]
    fn absorb_unions_odns_and_sums_counters() {
        let mut a = CampaignReport {
            odns: [RESOLVER, RECFWD].into_iter().collect(),
            sanitized_out: 2,
            invalid: 1,
            retransmits_sent: 4,
        };
        let b = CampaignReport {
            odns: [RESOLVER, TRANSP].into_iter().collect(),
            sanitized_out: 3,
            invalid: 0,
            retransmits_sent: 1,
        };
        let mut ab = a.clone();
        ab.absorb(&b);
        assert_eq!(ab.odns.len(), 3, "shared responder collapses to one");
        assert_eq!((ab.sanitized_out, ab.invalid), (5, 1));
        assert_eq!(ab.retransmits_sent, 5);
        // Order independence.
        let mut ba = b.clone();
        ba.absorb(&a);
        a.absorb(&b);
        assert_eq!(ba, a);
    }

    #[test]
    fn retries_recover_lossy_campaign_responders() {
        let run = |retry: RetryPolicy, seed: u64| {
            let mut ips = vec![SCANNER];
            ips.extend((1..=30).map(|i| Ipv4Addr::new(198, 51, 100, i)));
            let (topo, nodes) = playground(&ips);
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    seed,
                    faults: netsim::FaultPlan::lossy(0.4),
                    ..SimConfig::default()
                },
            );
            for node in &nodes[1..] {
                sim.install(*node, Canned);
            }
            run_campaign(
                &mut sim,
                nodes[0],
                CampaignConfig::new(Campaign::Shadowserver, ips[1..].to_vec()).with_retry(retry),
            )
        };
        let single = run(RetryPolicy::none(), 21);
        let retried = run(RetryPolicy::retries(3), 21);
        assert_eq!(single.retransmits_sent, 0);
        assert!(single.odns.len() < 30, "losses must bite");
        assert!(retried.retransmits_sent > 0);
        assert!(
            retried.odns.len() > single.odns.len(),
            "retries recover responders: {} vs {}",
            retried.odns.len(),
            single.odns.len()
        );
        // Determinism: the retried pass replays bit-identically.
        assert_eq!(retried, run(RetryPolicy::retries(3), 21));
    }

    #[test]
    fn probe_payload_is_the_static_name_query() {
        // Campaigns send the census scanner's static-name probe: the
        // patched template must equal a full encode for every txid.
        for txid in [0u16, 1, 0x00FF, 0x1234, 0x8000, 0xFFFF] {
            let built = MessageBuilder::query(txid, study::study_qname(), RrType::A)
                .recursion_desired(true)
                .build()
                .encode();
            assert_eq!(&static_probe(txid)[..], &built[..], "txid {txid:#06x}");
        }
    }

    #[test]
    fn campaign_properties() {
        assert!(!Campaign::Shadowserver.sanitizes_source());
        assert!(Campaign::Censys.sanitizes_source());
        assert!(Campaign::Shodan.sanitizes_source());
        assert_eq!(Campaign::Shadowserver.to_string(), "Shadowserver");
    }
}

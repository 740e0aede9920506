//! The transactional scanner — the paper's measurement contribution.
//!
//! A zmap-style asynchronous scanner that (1) assigns every probe a unique
//! `(source port, DNS transaction ID)` tuple, (2) records all outgoing
//! probes, (3) collects every response, and (4) correlates them offline
//! within a conservative 20-second timeout (§4.1). The correlation is what
//! stateless campaigns lack, and it is exactly what makes transparent
//! forwarders visible: their responses arrive from a *different* address
//! than the probed one, which only a recorded transaction can reveal.

use crate::pacing::Pacer;
use crate::records::{ProbeRecord, ResponseRecord, RetryStats, ScanOutcome, Transaction};
use dnswire::{MessageBuilder, RrType};
use netsim::{Ctx, Datagram, Host, NodeId, RetryPolicy, SimDuration, Simulator, UdpSend};
use odns::study;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// The static-naming probe query for `txid`. Every static probe is one
/// fixed byte string with only the txid patched in, so the query is
/// encoded once per process and copied from there — warm sweeps build
/// thousands of scanners.
pub(crate) fn static_probe(txid: u16) -> netsim::Payload {
    static TEMPLATE: OnceLock<Vec<u8>> = OnceLock::new();
    let mut bytes = TEMPLATE
        .get_or_init(|| {
            MessageBuilder::query(0, study::study_qname(), RrType::A)
                .recursion_desired(true)
                .build()
                .encode()
        })
        .clone();
    bytes[0..2].copy_from_slice(&txid.to_be_bytes());
    bytes.into()
}

/// How probe query names are chosen — the two methods of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeNaming {
    /// Response-based method: every probe queries the same static name, so
    /// resolver caches absorb repeats (the paper's choice).
    Static,
    /// Query-based method: the target's address is encoded in the name
    /// (`203-0-113-1.scan.<zone>`), defeating caches and loading the
    /// authoritative server — implemented for the Table 2 comparison.
    EncodeTarget,
}

/// How probe `(src_port, txid)` tuples are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TupleScheme {
    /// Port-walk (the default): the port varies per probe *index* and the
    /// txid advances once per 65 k block, so a whole block shares one wire
    /// payload (see [`ScanConfig::probe_tuple`]).
    #[default]
    PortWalk,
    /// Target-keyed: the tuple is a pure function of the *target address*
    /// (txid = the address's high 16 bits, port = base port + low 16
    /// bits). Unique because targets are, and — unlike the index-based
    /// walk — invariant under probe order and partitioning: a probe's
    /// flow identity is the same whichever shard probes it, which is what
    /// lets the fault plane's flow-keyed verdicts commute with sharding.
    /// Costs the per-block payload cache (txids no longer arrive in
    /// blocks), so lossless scans keep the walk.
    TargetKeyed,
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Addresses to probe, in order.
    pub targets: Vec<Ipv4Addr>,
    /// Name construction method.
    pub naming: ProbeNaming,
    /// `(src_port, txid)` assignment scheme.
    pub tuples: TupleScheme,
    /// Gap between consecutive probes (sets the scan rate; the paper scans
    /// the full IPv4 space in 18 hours — "moderate").
    pub inter_probe_gap: SimDuration,
    /// Correlation timeout (paper: a conservative 20 s).
    pub timeout: SimDuration,
    /// First source port; probes walk `base_port + (index & 0xFFFF)` with
    /// the txid advancing once per 65 k block, so the `(port, txid)` tuple
    /// is unique for every in-flight probe.
    pub base_port: u16,
    /// Retransmission policy. The default ([`RetryPolicy::none`]) keeps
    /// the paper's single-shot behavior: no retry state is allocated and
    /// no retry timers are armed.
    pub retry: RetryPolicy,
}

impl ScanConfig {
    /// The paper's conservative 20 s correlation window. Merging code
    /// that correlates recorded streams without a `ScanConfig` at hand
    /// uses this same constant, keeping scan and merge windows aligned.
    pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_secs(20);

    /// Defaults matching the paper: static naming, 20 s timeout.
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        ScanConfig {
            targets,
            naming: ProbeNaming::Static,
            tuples: TupleScheme::PortWalk,
            inter_probe_gap: SimDuration::from_micros(50),
            timeout: Self::DEFAULT_TIMEOUT,
            base_port: 33_000,
            retry: RetryPolicy::none(),
        }
    }

    /// Switch to the query-encoding method (Table 2 comparison).
    pub fn with_query_encoding(mut self) -> Self {
        self.naming = ProbeNaming::EncodeTarget;
        self
    }

    /// Switch to target-keyed tuples ([`TupleScheme::TargetKeyed`]) — the
    /// scheme lossy-world experiments need for shard-count-invariant
    /// fault verdicts.
    pub fn with_target_keyed_tuples(mut self) -> Self {
        self.tuples = TupleScheme::TargetKeyed;
        self
    }

    /// Enable retransmissions. Panics on a degenerate policy — a scan
    /// that silently never retries is worse than one that refuses to
    /// start.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        self.retry = retry;
        self
    }

    /// The `(src_port, txid)` tuple for probe `index`.
    ///
    /// The *port* varies per probe and the *txid* per 65 k block — not the
    /// other way round — so all probes of a block share one wire payload
    /// (the txid is the only byte pair that differs between static-naming
    /// probes), letting the scanner send a block from a single shared
    /// buffer instead of patching a fresh copy per probe.
    pub fn probe_tuple(&self, index: usize) -> (u16, u16) {
        let port = self.base_port.wrapping_add((index & 0xFFFF) as u16);
        let txid = (index >> 16) as u16;
        (port, txid)
    }

    /// The `(src_port, txid)` tuple for the probe at `index` targeting
    /// `target`, under the configured [`TupleScheme`]. `PortWalk` uses the
    /// index ([`ScanConfig::probe_tuple`]); `TargetKeyed` uses the address
    /// alone.
    pub fn tuple_for(&self, index: usize, target: Ipv4Addr) -> (u16, u16) {
        match self.tuples {
            TupleScheme::PortWalk => self.probe_tuple(index),
            TupleScheme::TargetKeyed => {
                let ip = u32::from(target);
                let port = self.base_port.wrapping_add((ip & 0xFFFF) as u16);
                let txid = (ip >> 16) as u16;
                (port, txid)
            }
        }
    }
}

/// The scanner host. Drives itself with a pacing timer; all analysis is
/// post-processing over the recorded probes and responses.
#[derive(Debug)]
pub struct TransactionalScanner {
    config: ScanConfig,
    /// Pacing, retry checks and the answered/attempts ledger.
    pacer: Pacer,
    /// The shared payload of the current txid block. With the port-fast
    /// tuple scheme the txid changes once per 65 536 probes, so the static
    /// send path is one `Arc` bump per probe and one 2-byte patch per
    /// block — zero per-probe payload allocation.
    cached_block: Option<(u16, netsim::Payload)>,
    /// Outgoing probe records.
    pub probes: Vec<ProbeRecord>,
    /// Raw response records in arrival order.
    pub responses: Vec<ResponseRecord>,
    /// `(port, txid) → probe index`, the inverse the answer path needs
    /// when tuples are target-keyed (the port-walk inverse is arithmetic).
    /// Empty unless retries are enabled under [`TupleScheme::TargetKeyed`].
    tuple_index: HashMap<(u16, u16), usize>,
    /// Live retransmission counters, copied into the outcome.
    pub retry_stats: RetryStats,
}

impl TransactionalScanner {
    /// Build from config.
    pub fn new(config: ScanConfig) -> Self {
        let pacer = Pacer::new(config.targets.len(), config.inter_probe_gap, config.retry);
        let tuple_index = if config.retry.enabled() && config.tuples == TupleScheme::TargetKeyed {
            config
                .targets
                .iter()
                .enumerate()
                .map(|(i, t)| (config.tuple_for(i, *t), i))
                .collect()
        } else {
            HashMap::new()
        };
        TransactionalScanner {
            probes: Vec::with_capacity(config.targets.len()),
            config,
            pacer,
            cached_block: None,
            responses: Vec::new(),
            tuple_index,
            retry_stats: RetryStats::default(),
        }
    }

    /// Correlate responses to probes by `(port, txid)` within the timeout.
    ///
    /// This mirrors the paper's post-processing: it never influences the
    /// scan itself. The first matching response within the window wins;
    /// later matches count as duplicates/late.
    pub fn outcome(&self) -> ScanOutcome {
        let mut outcome = correlate(&self.probes, &self.responses, self.config.timeout);
        outcome.retry = self.retry_stats;
        outcome
    }

    /// The wire payload of probe `index` — the shared block buffer under
    /// static naming, a fresh encode under query encoding. Used by both
    /// the original send and every retransmission, so a retransmitted
    /// probe is byte-identical to its original.
    fn probe_payload(&mut self, target: Ipv4Addr, txid: u16) -> netsim::Payload {
        if self.config.naming == ProbeNaming::EncodeTarget {
            let qname = study::encode_target_name(target);
            return MessageBuilder::query(txid, qname, RrType::A)
                .recursion_desired(true)
                .build()
                .encode()
                .into();
        }
        match &self.cached_block {
            Some((id, payload)) if *id == txid => payload.clone(),
            _ => {
                let payload = static_probe(txid);
                self.cached_block = Some((txid, payload.clone()));
                payload
            }
        }
    }

    /// Transmit probe `index`: the original (recorded as a
    /// [`ProbeRecord`]) or a retransmission of the *same* `(port, txid)`
    /// wire bytes (not recorded — correlation sees one transaction per
    /// probe).
    fn send_probe(&mut self, ctx: &mut Ctx<'_>, index: usize, attempt: u8) {
        let target = self.config.targets[index];
        let (port, txid) = self.config.tuple_for(index, target);
        let payload = self.probe_payload(target, txid);
        if attempt == 0 {
            self.probes.push(ProbeRecord {
                index,
                target,
                sent_at: ctx.now(),
                src_port: port,
                txid,
            });
        } else {
            self.retry_stats.retransmits_sent += 1;
        }
        ctx.send_udp_attempt(
            UdpSend::new(port, target, dnswire::DNS_PORT, payload),
            attempt,
        );
    }

    /// The probe a response to `(dst_port, txid)` belongs to: the inverse
    /// of the configured tuple scheme — arithmetic for the port walk, the
    /// prebuilt map for target-keyed tuples.
    fn probe_index(&self, dst_port: u16, txid: u16) -> Option<usize> {
        match self.config.tuples {
            TupleScheme::PortWalk => Some(
                (usize::from(txid) << 16)
                    | usize::from(dst_port.wrapping_sub(self.config.base_port)),
            ),
            TupleScheme::TargetKeyed => self.tuple_index.get(&(dst_port, txid)).copied(),
        }
    }
}

impl Host for TransactionalScanner {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Only the first response for a probe counts toward the attempt
        // histogram; anything later is the correlator's business.
        if self.config.retry.enabled() {
            let index = dnswire::peek_id(&dgram.payload)
                .and_then(|txid| self.probe_index(dgram.dst_port, txid));
            if let Some(attempts) = index.and_then(|i| self.pacer.note_answer(i)) {
                self.retry_stats.record_answered(attempts);
            }
        }
        self.responses.push(ResponseRecord {
            received_at: ctx.now(),
            src: dgram.src,
            dst_port: dgram.dst_port,
            payload: dgram.payload,
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((index, attempt)) = self.pacer.fire(token) {
            self.send_probe(ctx, index, attempt);
            self.pacer.arm(ctx, index, attempt);
        }
    }

    netsim::impl_host_downcast!();
}

/// The offline correlation pass over recorded probe/response streams —
/// the paper's post-processing, as a pure function so sharded censuses
/// can run it over merged record streams (see [`crate::shard`]).
///
/// Matching is by `(dst_port, txid)`; the first response inside the
/// timeout window wins, later matches count as duplicates, and responses
/// past the window count as late. Borrowing wrapper over
/// [`correlate_owned`] for callers that keep their records (the live
/// scanner's [`TransactionalScanner::outcome`]).
pub fn correlate(
    probes: &[ProbeRecord],
    responses: &[ResponseRecord],
    timeout: SimDuration,
) -> ScanOutcome {
    correlate_owned(probes.to_vec(), responses.to_vec(), timeout)
}

/// [`correlate`] taking ownership: probes and matched response payloads
/// move into the resulting transactions with no copying. The variant the
/// sharded merge and pcap ingestion use — record streams are the bulk of
/// a census's memory.
pub fn correlate_owned(
    probes: Vec<ProbeRecord>,
    responses: Vec<ResponseRecord>,
    timeout: SimDuration,
) -> ScanOutcome {
    Correlator::new().correlate(probes, responses, timeout)
}

/// Reusable correlation scratch. Correlation's only side allocation is
/// the `(port, txid) → probe` index map; a `Correlator` keeps that map's
/// capacity across calls, so a sharded merge correlating K shard groups
/// back to back allocates the map once instead of K times. One-shot
/// callers use [`correlate_owned`], which wraps a fresh instance.
#[derive(Debug, Default)]
pub struct Correlator {
    index: HashMap<(u16, u16), usize>,
}

impl Correlator {
    /// An empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        Correlator::default()
    }

    /// Below this many probes, matching walks the probe list instead of
    /// building the hash index: for the small per-scan batches of a warm
    /// steady-state world, a handful of `(u16, u16)` compares beats
    /// hashing every tuple twice.
    const LINEAR_SCAN_MAX: usize = 32;

    /// One correlation pass, identical to [`correlate_owned`].
    pub fn correlate(
        &mut self,
        probes: Vec<ProbeRecord>,
        responses: Vec<ResponseRecord>,
        timeout: SimDuration,
    ) -> ScanOutcome {
        let linear = probes.len() <= Self::LINEAR_SCAN_MAX;
        if !linear {
            self.index.clear();
            self.index.reserve(probes.len());
            for (i, p) in probes.iter().enumerate() {
                self.index.insert((p.src_port, p.txid), i);
            }
        }
        let mut transactions: Vec<Transaction> = probes
            .into_iter()
            .map(|p| Transaction {
                probe: p,
                response: None,
            })
            .collect();
        let mut unmatched = 0usize;
        let mut late = 0usize;
        let mut superseded = 0usize;
        for r in responses {
            let Some(txid) = dnswire::peek_id(&r.payload) else {
                unmatched += 1;
                continue;
            };
            // Like the index (whose inserts overwrite), a duplicate
            // `(port, txid)` tuple resolves to the *last* matching probe.
            let found = if linear {
                transactions
                    .iter()
                    .rposition(|t| t.probe.src_port == r.dst_port && t.probe.txid == txid)
            } else {
                self.index.get(&(r.dst_port, txid)).copied()
            };
            let Some(probe_idx) = found else {
                unmatched += 1;
                continue;
            };
            let t = &mut transactions[probe_idx];
            if r.received_at - t.probe.sent_at > timeout {
                late += 1;
                continue;
            }
            if t.response.is_some() {
                // A second answer for an already-answered tuple: a wire
                // duplicate, or the answer to a superseded retransmission
                // attempt. Deduplicated — the first response stands.
                superseded += 1;
                continue;
            }
            t.response = Some(r);
        }
        ScanOutcome {
            transactions,
            unmatched_responses: unmatched,
            late_responses: late,
            late_answers_discarded: superseded,
            retry: RetryStats::default(),
        }
    }
}

/// Install a scanner at `node`, run the whole scan to quiescence, and
/// return the correlated outcome. Convenience wrapper used by benches,
/// examples, and the census pipeline.
pub fn run_scan(sim: &mut Simulator, node: NodeId, config: ScanConfig) -> ScanOutcome {
    let timeout = config.timeout;
    let (probes, responses, retry) = run_scan_raw(sim, node, config);
    let mut outcome = correlate_owned(probes, responses, timeout);
    outcome.retry = retry;
    outcome
}

/// Run the scan like [`run_scan`] but return the *raw* probe/response
/// streams (plus retransmission counters) instead of correlating — the
/// per-shard collection step of a sharded census, whose correlation
/// happens once over the merged streams.
pub fn run_scan_raw(
    sim: &mut Simulator,
    node: NodeId,
    config: ScanConfig,
) -> (Vec<ProbeRecord>, Vec<ResponseRecord>, RetryStats) {
    sim.install(node, TransactionalScanner::new(config));
    crate::pacing::start(sim, node, SimDuration::ZERO);
    sim.run();
    // The scanner is done; move the streams out rather than copying
    // every payload (these vectors are the bulk of a shard's memory).
    let scanner = sim
        .host_as_mut::<TransactionalScanner>(node)
        .expect("scanner installed");
    (
        std::mem::take(&mut scanner.probes),
        std::mem::take(&mut scanner.responses),
        scanner.retry_stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::{SimConfig, SimTime};

    #[test]
    fn probe_tuples_are_unique() {
        let cfg = ScanConfig::new(Vec::new());
        let mut seen = std::collections::HashSet::new();
        for i in 0..200_000usize {
            assert!(seen.insert(cfg.probe_tuple(i)), "tuple collision at {i}");
        }
    }

    #[test]
    fn scanner_paces_probes() {
        let ips: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo, SimConfig::default());
        let mut cfg = ScanConfig::new(ips);
        cfg.inter_probe_gap = SimDuration::from_millis(10);
        let outcome = run_scan(&mut sim, nodes[0], cfg);
        assert_eq!(outcome.transactions.len(), 5);
        // Hostless sinks never answer: all unanswered.
        assert_eq!(outcome.answered_count(), 0);
        // Pacing: probes 10 ms apart.
        let times: Vec<SimTime> = outcome
            .transactions
            .iter()
            .map(|t| t.probe.sent_at)
            .collect();
        for w in times.windows(2) {
            assert_eq!((w[1] - w[0]).as_millis(), 10);
        }
    }

    #[test]
    fn correlation_matches_by_port_and_txid() {
        // Handcraft a scanner state with two probes and a response for the
        // second only.
        let cfg = ScanConfig::new(vec![
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(203, 0, 113, 2),
        ]);
        let mut s = TransactionalScanner::new(cfg);
        for (i, target) in s.config.targets.clone().iter().enumerate() {
            let (port, txid) = s.config.probe_tuple(i);
            s.probes.push(ProbeRecord {
                index: i,
                target: *target,
                sent_at: SimTime(0),
                src_port: port,
                txid,
            });
        }
        let (port1, txid1) = s.config.probe_tuple(1);
        let resp = MessageBuilder::query(txid1, study::study_qname(), RrType::A)
            .build()
            .response_skeleton();
        s.responses.push(ResponseRecord {
            received_at: SimTime(1_000_000),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: port1,
            payload: resp.encode().into(),
        });
        let o = s.outcome();
        assert!(o.transactions[0].response.is_none());
        assert_eq!(
            o.transactions[1].response_src(),
            Some(Ipv4Addr::new(8, 8, 8, 8))
        );
        assert_eq!(o.unmatched_responses, 0);
    }

    #[test]
    fn late_responses_counted_not_matched() {
        let cfg = ScanConfig::new(vec![Ipv4Addr::new(203, 0, 113, 1)]);
        let timeout = cfg.timeout;
        let mut s = TransactionalScanner::new(cfg);
        let (port, txid) = s.config.probe_tuple(0);
        s.probes.push(ProbeRecord {
            index: 0,
            target: Ipv4Addr::new(203, 0, 113, 1),
            sent_at: SimTime(0),
            src_port: port,
            txid,
        });
        let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .build()
            .response_skeleton();
        s.responses.push(ResponseRecord {
            received_at: SimTime::ZERO + timeout + SimDuration::from_micros(1),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: port,
            payload: resp.encode().into(),
        });
        let o = s.outcome();
        assert!(o.transactions[0].response.is_none());
        assert_eq!(o.late_responses, 1);
    }

    #[test]
    fn duplicates_and_garbage_counted_unmatched() {
        let cfg = ScanConfig::new(vec![Ipv4Addr::new(203, 0, 113, 1)]);
        let mut s = TransactionalScanner::new(cfg);
        let (port, txid) = s.config.probe_tuple(0);
        s.probes.push(ProbeRecord {
            index: 0,
            target: Ipv4Addr::new(203, 0, 113, 1),
            sent_at: SimTime(0),
            src_port: port,
            txid,
        });
        let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .build()
            .response_skeleton()
            .encode();
        for _ in 0..2 {
            s.responses.push(ResponseRecord {
                received_at: SimTime(1),
                src: Ipv4Addr::new(8, 8, 8, 8),
                dst_port: port,
                payload: resp.clone().into(),
            });
        }
        s.responses.push(ResponseRecord {
            received_at: SimTime(2),
            src: Ipv4Addr::new(9, 9, 9, 9),
            dst_port: port,
            payload: vec![0x01].into(), // too short for a txid
        });
        let o = s.outcome();
        assert!(o.transactions[0].response.is_some());
        assert_eq!(o.unmatched_responses, 1, "garbage");
        assert_eq!(o.late_answers_discarded, 1, "duplicate deduplicated");
    }

    /// A minimal DNS-ish responder: answers every query with a response
    /// skeleton echoing the query's transaction id.
    struct Responder;
    impl Host for Responder {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let Some(txid) = dnswire::peek_id(&dgram.payload) else {
                return;
            };
            let resp = MessageBuilder::query(txid, study::study_qname(), RrType::A)
                .build()
                .response_skeleton()
                .encode();
            ctx.send_udp(UdpSend {
                src: Some(dgram.dst),
                src_port: dgram.dst_port,
                dst: dgram.src,
                dst_port: dgram.src_port,
                ttl: None,
                payload: resp.into(),
            });
        }
        netsim::impl_host_downcast!();
    }

    /// Build a lossy playground world with `n` responding targets and run
    /// one scan under `retry`, returning the outcome.
    fn lossy_scan(n: u8, loss: f64, seed: u64, retry: RetryPolicy) -> ScanOutcome {
        let ips: Vec<Ipv4Addr> = (1..=n).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                seed,
                faults: netsim::FaultPlan::lossy(loss),
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let cfg = ScanConfig::new(ips).with_retry(retry);
        run_scan(&mut sim, nodes[0], cfg)
    }

    #[test]
    fn retransmissions_recover_answers_lost_to_faults() {
        let single = lossy_scan(40, 0.4, 11, RetryPolicy::none());
        let retried = lossy_scan(40, 0.4, 11, RetryPolicy::retries(3));
        assert!(
            single.answered_count() < 40,
            "the lossy world must actually lose probes (got {}/40)",
            single.answered_count()
        );
        assert!(
            retried.answered_count() > single.answered_count(),
            "retries recover answers: {} vs {}",
            retried.answered_count(),
            single.answered_count()
        );
        assert!(retried.retry.retransmits_sent > 0);
        assert!(
            retried.retry.answered_by_retry() > 0,
            "some probe must be answered on attempt >= 2"
        );
        // Attempt-1 answers + retry answers = all answers.
        let histogram_total: u64 = retried.retry.answered_on_attempt.iter().sum();
        assert_eq!(histogram_total, retried.answered_count() as u64);
        // Single-shot runs carry zero retry accounting.
        assert_eq!(single.retry, crate::records::RetryStats::default());
    }

    #[test]
    fn retried_scans_are_deterministic() {
        let policy = RetryPolicy::retries(2).with_jitter(SimDuration::from_millis(3));
        let a = lossy_scan(25, 0.3, 77, policy);
        let b = lossy_scan(25, 0.3, 77, policy);
        assert_eq!(a, b, "same seed, same policy => bit-identical outcome");
        let c = lossy_scan(25, 0.3, 78, policy);
        assert_ne!(a, c, "a different seed redraws the fault pattern");
    }

    #[test]
    fn retry_on_lossless_world_sends_nothing_extra() {
        let o = lossy_scan(10, 0.0, 5, RetryPolicy::retries(3));
        assert_eq!(o.answered_count(), 10);
        assert_eq!(
            o.retry.retransmits_sent, 0,
            "every probe answered first try"
        );
        assert_eq!(o.retry.answered_on_attempt[0], 10);
        assert_eq!(o.retry.answered_by_retry(), 0);
    }

    #[test]
    fn duplicate_faults_do_not_double_count_answers() {
        // A duplicating (but lossless) wire: every probe and answer may be
        // cloned. Each probe must still end up with exactly one response,
        // clones landing in `late_answers_discarded`.
        let ips: Vec<Ipv4Addr> = (1..=10).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let faults = netsim::FaultPlan::uniform(netsim::FaultConfig {
            duplicate_probability: 1.0,
            ..netsim::FaultConfig::none()
        });
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                seed: 3,
                faults,
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let o = run_scan(&mut sim, nodes[0], ScanConfig::new(ips));
        assert_eq!(o.answered_count(), 10, "one answer per probe, no more");
        assert!(o.late_answers_discarded > 0, "clones were deduplicated");
        assert_eq!(o.unmatched_responses, 0);
    }

    #[test]
    fn target_keyed_tuples_are_order_invariant_and_unique() {
        let targets: Vec<Ipv4Addr> = (0..2000u32)
            .map(|i| Ipv4Addr::from(0xCB00_0000 + i))
            .collect();
        let forward = ScanConfig::new(targets.clone()).with_target_keyed_tuples();
        let mut reversed_targets = targets.clone();
        reversed_targets.reverse();
        let reversed = ScanConfig::new(reversed_targets).with_target_keyed_tuples();
        let mut seen = std::collections::HashSet::new();
        for (i, t) in targets.iter().enumerate() {
            let tuple = forward.tuple_for(i, *t);
            assert!(seen.insert(tuple), "tuple collision at {t}");
            // The tuple depends only on the target: probing the same
            // address at a different index (any order, any partition)
            // yields the same flow identity.
            assert_eq!(tuple, reversed.tuple_for(targets.len() - 1 - i, *t));
        }
    }

    #[test]
    fn target_keyed_retries_answer_and_correlate() {
        // End-to-end under the target-keyed scheme: lossy world, retries
        // enabled — the answer path's map-based inverse must stop
        // retransmissions just like the arithmetic one.
        let ips: Vec<Ipv4Addr> = (1..=30).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                seed: 19,
                faults: netsim::FaultPlan::lossy(0.3),
                ..SimConfig::default()
            },
        );
        for node in &nodes[1..] {
            sim.install(*node, Responder);
        }
        let cfg = ScanConfig::new(ips.clone())
            .with_target_keyed_tuples()
            .with_retry(RetryPolicy::retries(3));
        let o = run_scan(&mut sim, nodes[0], cfg);
        assert!(o.answered_count() > 0);
        assert!(o.retry.retransmits_sent > 0);
        let histogram_total: u64 = o.retry.answered_on_attempt.iter().sum();
        assert_eq!(histogram_total, o.answered_count() as u64);
        for t in o.transactions.iter().filter(|t| t.response.is_some()) {
            // Correlation matched the probe's own tuple, i.e. the response
            // really belongs to this target.
            let ip = u32::from(t.probe.target);
            assert_eq!(t.probe.txid, (ip >> 16) as u16);
        }
    }

    #[test]
    fn query_encoding_uses_target_names() {
        let ips = vec![Ipv4Addr::new(203, 0, 113, 7)];
        let mut all = vec![Ipv4Addr::new(192, 0, 2, 1)];
        all.extend(&ips);
        let (topo, nodes) = playground(&all);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.tap(nodes[0]);
        let cfg = ScanConfig::new(ips).with_query_encoding();
        let _ = run_scan(&mut sim, nodes[0], cfg);
        let pcap = sim.take_capture(nodes[0]).unwrap();
        let recs = netsim::pcap::read_pcap(&pcap).unwrap();
        assert_eq!(recs.len(), 1);
        match netsim::wire::decode(&recs[0].data).unwrap() {
            netsim::wire::DecodedPacket::Udp(d) => {
                let m = dnswire::Message::decode(&d.payload).unwrap();
                assert_eq!(
                    m.questions[0].qname.to_string(),
                    "203-0-113-7.scan.odns-study.example."
                );
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }
}

//! Merging per-shard scan record streams into one census-wide outcome.
//!
//! A sharded census runs one [`crate::TransactionalScanner`] per shard,
//! each against its own simulator. Every shard numbers its probes from
//! zero, so the `(src_port, txid)` tuple is only unique *within* a shard.
//! The merge therefore correlates per shard group and then renumbers
//! probe indices onto one global, gap-free range — producing exactly the
//! `ScanOutcome` a single scanner over the union target list would have
//! produced.
//!
//! Invariants (property-tested in `tests/proptests.rs`):
//! * every probe of every shard appears exactly once in the merged
//!   transactions — nothing dropped, nothing duplicated;
//! * merged transaction count equals the sum of per-shard probe counts;
//! * the result is independent of the order shards are supplied in and
//!   of response arrival order within each shard;
//! * unmatched/late counters are the sums of the per-shard counters.

use crate::records::{ProbeRecord, ResponseRecord, RetryStats, ScanOutcome};
use crate::transactional::Correlator;
use netsim::SimDuration;

/// The raw record streams one shard's scanner produced.
#[derive(Debug, Clone, Default)]
pub struct ShardRecords {
    /// Shard index (orders shards in the merged outcome).
    pub shard: u32,
    /// The shard's outgoing probe records, in probe order.
    pub probes: Vec<ProbeRecord>,
    /// The shard's raw responses, in arrival order.
    pub responses: Vec<ResponseRecord>,
    /// The shard scanner's retransmission counters (zeros when the scan
    /// ran single-shot).
    pub retry: RetryStats,
}

impl ShardRecords {
    /// Wrap raw streams (e.g. from
    /// [`crate::transactional::run_scan_raw`]).
    pub fn new(shard: u32, probes: Vec<ProbeRecord>, responses: Vec<ResponseRecord>) -> Self {
        ShardRecords {
            shard,
            probes,
            responses,
            retry: RetryStats::default(),
        }
    }

    /// Attach the shard's retransmission counters.
    pub fn with_retry(mut self, retry: RetryStats) -> Self {
        self.retry = retry;
        self
    }
}

/// Correlate and merge per-shard record streams into one outcome.
///
/// This is the single offline pass of the sharded census: correlation
/// runs per shard group (the `(port, txid)` key space restarts per
/// shard) through one reused [`Correlator`], so each shard's raw
/// responses die as soon as it is correlated; then transactions
/// concatenate in ascending shard order with probe indices rebased onto
/// one gap-free global range — exactly the outcome one scanner over the
/// union target list would produce. Input order of the `shards` vector
/// does not matter.
///
/// Panics on a duplicate shard id: two groups sharing an id would split
/// one `(port, txid)` key space and quietly mis-correlate, so batched
/// collection must concatenate a shard's streams before merging.
pub fn merge_shard_records(mut shards: Vec<ShardRecords>, timeout: SimDuration) -> ScanOutcome {
    shards.sort_by_key(|s| s.shard);
    for pair in shards.windows(2) {
        assert!(
            pair[0].shard != pair[1].shard,
            "duplicate shard id {} in merge",
            pair[0].shard
        );
    }
    let mut correlator = Correlator::new();
    let mut merged = ScanOutcome {
        transactions: Vec::with_capacity(shards.iter().map(|s| s.probes.len()).sum()),
        unmatched_responses: 0,
        late_responses: 0,
        late_answers_discarded: 0,
        retry: RetryStats::default(),
    };
    for shard in shards {
        merged.retry.absorb(&shard.retry);
        let outcome = correlator.correlate(shard.probes, shard.responses, timeout);
        merged.unmatched_responses += outcome.unmatched_responses;
        merged.late_responses += outcome.late_responses;
        merged.late_answers_discarded += outcome.late_answers_discarded;
        let base = merged.transactions.len();
        merged
            .transactions
            .extend(outcome.transactions.into_iter().map(|mut t| {
                t.probe.index += base;
                t
            }));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{DnsName, MessageBuilder, RrType};
    use netsim::SimTime;
    use std::net::Ipv4Addr;

    fn probe(shard: u32, i: usize) -> ProbeRecord {
        ProbeRecord {
            index: i,
            target: Ipv4Addr::new(11, shard as u8, (i >> 8) as u8, (i & 0xFF) as u8),
            sent_at: SimTime(i as u64),
            src_port: 33_000,
            txid: i as u16,
        }
    }

    fn response(i: usize) -> ResponseRecord {
        let qname = DnsName::parse("odns-study.example.").unwrap();
        let resp = MessageBuilder::query(i as u16, qname, RrType::A)
            .build()
            .response_skeleton();
        ResponseRecord {
            received_at: SimTime(1_000 + i as u64),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: 33_000,
            payload: resp.encode().into(),
        }
    }

    fn shard(id: u32, n: usize, answered: &[usize]) -> ShardRecords {
        ShardRecords::new(
            id,
            (0..n).map(|i| probe(id, i)).collect(),
            answered.iter().map(|&i| response(i)).collect(),
        )
    }

    #[test]
    fn merge_rebases_indices_gap_free() {
        let merged = merge_shard_records(
            vec![shard(1, 3, &[0]), shard(0, 2, &[1])],
            SimDuration::from_secs(20),
        );
        assert_eq!(merged.transactions.len(), 5);
        let indices: Vec<usize> = merged.transactions.iter().map(|t| t.probe.index).collect();
        assert_eq!(
            indices,
            vec![0, 1, 2, 3, 4],
            "shard 0 first, then shard 1, gap-free"
        );
        // Shard 0 answered probe 1 (global 1); shard 1 answered probe 0
        // (global 2).
        assert!(merged.transactions[1].response.is_some());
        assert!(merged.transactions[2].response.is_some());
        assert_eq!(merged.answered_count(), 2);
    }

    #[test]
    fn merge_is_input_order_independent() {
        let a = merge_shard_records(
            vec![shard(0, 2, &[0]), shard(1, 4, &[2]), shard(2, 1, &[])],
            SimDuration::from_secs(20),
        );
        let b = merge_shard_records(
            vec![shard(2, 1, &[]), shard(0, 2, &[0]), shard(1, 4, &[2])],
            SimDuration::from_secs(20),
        );
        assert_eq!(a.transactions.len(), b.transactions.len());
        for (ta, tb) in a.transactions.iter().zip(&b.transactions) {
            assert_eq!(ta.probe.index, tb.probe.index);
            assert_eq!(ta.probe.target, tb.probe.target);
            assert_eq!(ta.response_src(), tb.response_src());
        }
    }

    #[test]
    fn colliding_tuples_across_shards_stay_separate() {
        // Same (port, txid) in both shards — each shard's response must
        // match its own probe only.
        let merged = merge_shard_records(
            vec![shard(0, 1, &[0]), shard(1, 1, &[0])],
            SimDuration::from_secs(20),
        );
        assert_eq!(merged.answered_count(), 2);
        assert_eq!(merged.unmatched_responses, 0);
    }

    #[test]
    fn merge_matches_per_shard_correlation() {
        // The merge is per-shard correlation, concatenated in shard order
        // with indices rebased — whatever order the shards arrive in.
        let shards = vec![shard(2, 4, &[2, 3]), shard(0, 3, &[1]), shard(1, 2, &[0])];
        let merged = merge_shard_records(shards.clone(), SimDuration::from_secs(20));
        let mut expected = Vec::new();
        let mut ordered = shards;
        ordered.sort_by_key(|s| s.shard);
        for s in ordered {
            let base = expected.len();
            let outcome = crate::correlate_owned(s.probes, s.responses, SimDuration::from_secs(20));
            expected.extend(outcome.transactions.into_iter().map(|mut t| {
                t.probe.index += base;
                t
            }));
        }
        assert_eq!(merged.transactions, expected);
        assert_eq!(merged.unmatched_responses, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate shard id 7")]
    fn merge_rejects_duplicate_shards() {
        merge_shard_records(
            vec![shard(7, 1, &[]), shard(3, 1, &[]), shard(7, 1, &[])],
            SimDuration::from_secs(20),
        );
    }

    #[test]
    fn counters_are_summed() {
        let mut s0 = shard(0, 1, &[0, 0]); // duplicate → 1 discarded
        s0.responses.push(ResponseRecord {
            received_at: SimTime(5),
            src: Ipv4Addr::new(9, 9, 9, 9),
            dst_port: 40_000,
            payload: vec![0x01].into(), // garbage → unmatched
        });
        let s1 = shard(1, 1, &[0]);
        let merged = merge_shard_records(vec![s0, s1], SimDuration::from_secs(20));
        assert_eq!(merged.unmatched_responses, 1);
        assert_eq!(merged.late_answers_discarded, 1);
        assert_eq!(merged.answered_count(), 2);
    }

    #[test]
    fn retry_stats_are_absorbed_across_shards() {
        let mut r0 = RetryStats {
            retransmits_sent: 4,
            ..RetryStats::default()
        };
        r0.record_answered(2);
        let mut r1 = RetryStats {
            retransmits_sent: 1,
            ..RetryStats::default()
        };
        r1.record_answered(1);
        let merged = merge_shard_records(
            vec![
                shard(0, 1, &[0]).with_retry(r0),
                shard(1, 1, &[0]).with_retry(r1),
            ],
            SimDuration::from_secs(20),
        );
        assert_eq!(merged.retry.retransmits_sent, 5);
        assert_eq!(merged.retry.answered_on_attempt[0], 1);
        assert_eq!(merged.retry.answered_on_attempt[1], 1);
    }
}

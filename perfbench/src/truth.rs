//! The per-address correctness check: every census row joined to the
//! address the generator planted, every trace to the forwarder it
//! targets, every Table 3 cell to the paper's matrix.

use crate::workload::{SweepResult, Workload, LOSS_RETRIES};
use analysis::ResilienceCell;
use inetgen::{Internet, PlantedClass};
use scanner::{Discard, OdnsClass, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// The generator's planted truth for one workload world, all shards.
pub struct Truth {
    planted: HashMap<Ipv4Addr, PlantedClass>,
    /// Every probe target, sorted.
    targets: Vec<Ipv4Addr>,
}

/// The outcome of joining one sweep's output to the truth.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted: census rows, traces and Table 3 cells.
    pub attempted: u64,
    /// Operations whose verdict contradicts the truth.
    pub failed: u64,
    /// Planted hosts left unanswered, or answered SERVFAIL, under planted
    /// loss: a recall cost of the lossy network, not a wrong verdict.
    pub missed: u64,
    /// Census rows of planted hosts, and of those the rows whose verdict
    /// matches the planted class.
    pub planted: u64,
    pub planted_right: u64,
    /// Planted class × verdict counts.
    pub matrix: BTreeMap<(&'static str, String), u64>,
    /// Why the check failed, if it did for a reason other than verdicts.
    pub problems: Vec<String>,
}

impl Truth {
    pub fn from_worlds<'a>(worlds: impl IntoIterator<Item = &'a Internet>) -> Truth {
        let mut planted = HashMap::new();
        let mut targets = Vec::new();
        for world in worlds {
            planted.extend(world.truth.hosts.iter().map(|h| (h.ip, h.class)));
            targets.extend_from_slice(&world.targets);
        }
        targets.sort_unstable();
        Truth { planted, targets }
    }

    pub fn targets(&self) -> usize {
        self.targets.len()
    }

    /// Heap bytes the truth holds, in MB: its share of the process's
    /// peak memory. A hash map slot is its entry plus one control byte.
    pub fn heap_mb(&self) -> f64 {
        let slot = std::mem::size_of::<(Ipv4Addr, PlantedClass)>() + 1;
        let bytes = self.planted.capacity() * slot
            + self.targets.capacity() * std::mem::size_of::<Ipv4Addr>();
        bytes as f64 / (1024.0 * 1024.0)
    }

    pub fn check(&self, workload: Workload, sweep: &SweepResult) -> Check {
        let mut check = Check::default();
        if workload.lossy() && sweep.census.rows.is_empty() {
            // The public lossy runner returns counters only; its rows are
            // checked through the decomposed sweep, which must agree with
            // these counters exactly.
            return check;
        }
        let mut probed: Vec<Ipv4Addr> = sweep.census.rows.iter().map(|r| r.target).collect();
        probed.sort_unstable();
        if probed != self.targets {
            check.problems.push(format!(
                "census rows cover {} addresses, the worlds hold {} targets",
                probed.len(),
                self.targets.len()
            ));
        }
        for row in &sweep.census.rows {
            let planted = self.planted.get(&row.target).copied();
            let verdict = verdict_label(row.verdict);
            let judgement = judge(planted, row.verdict, workload.lossy());
            if planted.is_some() {
                check.planted += 1;
                check.planted_right += u64::from(matches!(judgement, Judgement::Right));
            }
            match judgement {
                Judgement::Right => {}
                Judgement::Missed => check.missed += 1,
                Judgement::Wrong => check.failed += 1,
            }
            check.attempted += 1;
            *check
                .matrix
                .entry((planted_label(planted), verdict))
                .or_default() += 1;
        }
        if workload == Workload::DnsRoute {
            let rejected = sweep.sanitize.as_ref().map_or(0, |s| {
                s.rejected_no_signature
                    + s.rejected_no_answer
                    + s.rejected_incomplete
                    + s.rejected_anomalous
            });
            let off_target = sweep
                .traces
                .iter()
                .filter(|t| {
                    self.planted.get(&t.target) != Some(&PlantedClass::TransparentForwarder)
                })
                .count();
            check.attempted += sweep.traces.len() as u64;
            check.failed += (rejected + off_target) as u64;
            let transparent = sweep
                .census
                .rows
                .iter()
                .filter(|r| r.class() == Some(OdnsClass::TransparentForwarder))
                .count();
            if transparent != sweep.traces.len() {
                check.problems.push(format!(
                    "{} transparent forwarders found, {} traced",
                    transparent,
                    sweep.traces.len()
                ));
            }
        }
        if workload == Workload::Campaign {
            let expected = analysis::DetectionMatrix::paper_expected();
            let got = sweep
                .matrix
                .as_ref()
                .map(|m| m.rows.as_slice())
                .unwrap_or(&[]);
            for (campaign, cells) in &expected.rows {
                let row = got.iter().find(|(c, _)| c == campaign).map(|(_, r)| r);
                for (i, want) in cells.iter().enumerate() {
                    check.attempted += 1;
                    if row.map(|r| r[i]) != Some(*want) {
                        check.failed += 1;
                    }
                }
            }
        }
        check
    }
}

/// Least share of answered probes a lossy census must have answered on
/// a retransmission. Over ten seeds the workload's census gets 9.5–12.3 %
/// of its answers that way; a scanner that does not retransmit gets none,
/// and one whose retransmissions carry the wrong transaction ID under 1 %.
pub const LOSSY_RETRY_ANSWER_FLOOR: f64 = 0.05;

impl Check {
    /// Planted hosts classified right, over planted hosts.
    pub fn recall(&self) -> f64 {
        self.planted_right as f64 / self.planted.max(1) as f64
    }

    /// The lossy census's own check of its retry layer, which the
    /// per-address join cannot make: a host lost to the network and a
    /// host lost to a broken retransmission read the same. Every probe
    /// left unanswered must have used its whole retry budget, at least
    /// [`LOSSY_RETRY_ANSWER_FLOOR`] of the answers must have come on a
    /// retransmission, and the public runner's resilience cell must agree
    /// with this truth join. Recall itself is no check: it ranges from
    /// 0.83 to 0.90 over ten seeds with retransmission and from 0.75 to
    /// 0.82 without.
    pub fn check_lossy(&mut self, cell: Option<&ResilienceCell>, answered_on_retry: u64) {
        let Some(cell) = cell else {
            self.problems
                .push("the lossy runner returned no resilience cell".into());
            return;
        };
        // A probe still unanswered when the scan ends was retransmitted
        // exactly LOSS_RETRIES times; answered probes may add more.
        let unanswered = cell.probes_sent - cell.answered;
        if cell.retransmits_sent < u64::from(LOSS_RETRIES) * unanswered {
            self.problems.push(format!(
                "{} retransmissions for {unanswered} unanswered probes with {LOSS_RETRIES} retries each",
                cell.retransmits_sent
            ));
        }
        if (answered_on_retry as f64) < LOSSY_RETRY_ANSWER_FLOOR * cell.answered as f64 {
            self.problems.push(format!(
                "{answered_on_retry} of {} answers came on a retransmission, fewer than {LOSSY_RETRY_ANSWER_FLOOR} of them",
                cell.answered
            ));
        }
        let count = |planted: bool, verdict: &str| -> u64 {
            self.matrix
                .iter()
                .filter(|((p, v), _)| (*p == "transparent") == planted && v == verdict)
                .map(|(_, n)| n)
                .sum()
        };
        let planted_transparent: u64 = self
            .matrix
            .iter()
            .filter(|((p, _), _)| *p == "transparent")
            .map(|(_, n)| n)
            .sum();
        let joined = (
            planted_transparent,
            count(true, "transparent"),
            count(false, "transparent"),
        );
        let scored = (
            cell.planted_transparent,
            cell.detected_true,
            cell.false_positives,
        );
        if joined != scored {
            self.problems.push(format!(
                "resilience cell (planted, detected, false positives) {scored:?} disagrees with the truth join {joined:?}"
            ));
        }
    }
}

enum Judgement {
    Right,
    Missed,
    Wrong,
}

/// A planted ODNS host must be classified as its class; a manipulated
/// forwarder must fail the strict control-record check; a dud must stay
/// silent. Under planted loss a host may also go unanswered, or answer
/// SERVFAIL when its resolver's upstream queries were lost.
fn judge(planted: Option<PlantedClass>, verdict: Verdict, lossy: bool) -> Judgement {
    let expected_class = match planted {
        Some(PlantedClass::TransparentForwarder) => Some(OdnsClass::TransparentForwarder),
        Some(PlantedClass::RecursiveForwarder) => Some(OdnsClass::RecursiveForwarder),
        Some(PlantedClass::RecursiveResolver) => Some(OdnsClass::RecursiveResolver),
        Some(PlantedClass::ManipulatedForwarder) | None => None,
    };
    let right = match (planted, verdict) {
        (None, Verdict::Discarded(Discard::NoResponse)) => true,
        (Some(PlantedClass::ManipulatedForwarder), Verdict::Discarded(reason)) => {
            reason == Discard::ControlRecordViolated || reason == Discard::WrongRecordCount
        }
        (_, Verdict::Classified { class, .. }) => expected_class == Some(class),
        _ => false,
    };
    if right {
        Judgement::Right
    } else if lossy && planted.is_some() && lost(verdict) {
        Judgement::Missed
    } else {
        Judgement::Wrong
    }
}

fn lost(verdict: Verdict) -> bool {
    matches!(
        verdict,
        Verdict::Discarded(Discard::NoResponse | Discard::NoAnswer)
    )
}

pub fn planted_label(planted: Option<PlantedClass>) -> &'static str {
    match planted {
        Some(PlantedClass::TransparentForwarder) => "transparent",
        Some(PlantedClass::RecursiveForwarder) => "recursive_forwarder",
        Some(PlantedClass::RecursiveResolver) => "resolver",
        Some(PlantedClass::ManipulatedForwarder) => "manipulated",
        None => "dud",
    }
}

pub fn verdict_label(verdict: Verdict) -> String {
    match verdict {
        Verdict::Classified { class, .. } => match class {
            OdnsClass::TransparentForwarder => "transparent".into(),
            OdnsClass::RecursiveForwarder => "recursive_forwarder".into(),
            OdnsClass::RecursiveResolver => "resolver".into(),
        },
        Verdict::Discarded(reason) => format!("discarded:{reason:?}"),
    }
}

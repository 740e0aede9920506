//! The probe engine every scanner host drives: burst pacing and
//! retransmission, written once.
//!
//! A host owns one [`Pacer`] per probe stream and keeps only what differs
//! between instruments: its `(port, txid)` tuple function and that
//! function's inverse, its payload, and what it does with an answer. The
//! pacer owns the rest:
//!
//! * **Pacing.** Probe `i` leaves exactly `i · gap` after the bootstrap
//!   timer. The bootstrap fires probe 0; the first probe of every
//!   16-probe burst (the *burst leader*) arms one `set_timer_batch`
//!   covering the rest of its burst, so a scan costs one queue event per
//!   burst instead of one per probe.
//! * **Retry checks.** Jitter-free checks ride the same batching: the
//!   burst leader arms one batch covering itself and its burst, each
//!   check landing exactly `initial_rto` after the probe it guards.
//!   Jittered checks land at their own hashed offsets, so each probe arms
//!   its own.
//! * **The ledger.** Per probe: whether an answer arrived and how many
//!   transmissions went out. A due check retransmits the same probe
//!   (same tuple, same bytes) while it is unanswered and attempts remain,
//!   then arms the next check with backoff.
//!
//! A host's timer handler is always the same three steps: ask
//! [`Pacer::fire`] which probe (and which attempt) is due, send it, then
//! let [`Pacer::arm`] queue the follow-up timers. Sending before arming
//! keeps the simulator's event order — and so every capture — fixed.

use netsim::{Ctx, NodeId, RetryPolicy, SimDuration, Simulator};

/// Timer token of the pacing timer.
const PACE_TOKEN: u64 = u64::MAX;

/// Retry-check tokens occupy the top-bit half of the token space:
/// `RETRY_BASE | probe_index`. `PACE_TOKEN` also has the top bit set, so
/// pacing is matched first and probe indices stay well below the
/// ambiguous range.
const RETRY_BASE: u64 = 1 << 63;

/// Probes paced per batched timer event.
const PROBE_BURST: usize = 16;

/// Schedule the bootstrap pacing timer of the host at `node`: its first
/// probe leaves `after` from now.
pub(crate) fn start(sim: &mut Simulator, node: NodeId, after: SimDuration) {
    sim.schedule_timer(node, after, PACE_TOKEN);
}

/// One paced probe stream with its retransmission ledger.
#[derive(Debug)]
pub(crate) struct Pacer {
    /// Probes in the stream.
    total: usize,
    /// Probes sent so far (the next original to send).
    cursor: usize,
    gap: SimDuration,
    /// The timer token that paces this stream.
    token: u64,
    retry: RetryPolicy,
    /// Per-probe "first answer seen" flags. Empty when retries are
    /// disabled (single-shot scans pay nothing).
    answered: Vec<bool>,
    /// Per-probe transmission counts (1 after the original send). Empty
    /// when retries are disabled.
    attempts_sent: Vec<u8>,
}

impl Pacer {
    /// A stream of `total` probes `gap` apart, paced by the bootstrap
    /// token of [`start`]. Panics on a degenerate retry policy.
    pub(crate) fn new(total: usize, gap: SimDuration, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        let ledger = if retry.enabled() { total } else { 0 };
        Pacer {
            total,
            cursor: 0,
            gap,
            token: PACE_TOKEN,
            retry,
            answered: vec![false; ledger],
            attempts_sent: vec![0; ledger],
        }
    }

    /// A single-shot stream paced by its own `token` — for hosts that run
    /// several streams side by side. `token` must not have the top bit
    /// set.
    pub(crate) fn keyed(total: usize, gap: SimDuration, token: u64) -> Self {
        Pacer {
            token,
            ..Pacer::new(total, gap, RetryPolicy::none())
        }
    }

    /// The probe a timer event asks the host to transmit, as `(index,
    /// attempt)`: attempt 0 is the original send, attempt `n` the `n`-th
    /// retransmission. `None` when the stream is done, the probe was
    /// answered, its attempts are spent, or the token is not this
    /// stream's. The host sends the probe, then calls [`Pacer::arm`].
    pub(crate) fn fire(&mut self, token: u64) -> Option<(usize, u8)> {
        if token == self.token {
            if self.cursor == self.total {
                return None;
            }
            let index = self.cursor;
            self.cursor += 1;
            if let Some(sent) = self.attempts_sent.get_mut(index) {
                *sent = 1;
            }
            return Some((index, 0));
        }
        if token & RETRY_BASE == 0 {
            return None;
        }
        let index = (token ^ RETRY_BASE) as usize;
        let sent = *self.attempts_sent.get(index)?;
        if sent == 0 || self.answered[index] || sent >= self.retry.max_attempts {
            return None;
        }
        self.attempts_sent[index] = sent + 1;
        Some((index, sent))
    }

    /// Queue the timers that follow sending `(index, attempt)`: after an
    /// original, the probe's own jittered retry check and — for a burst
    /// leader — the burst's pacing batch and jitter-free check batch;
    /// after a retransmission, the next check with backoff.
    pub(crate) fn arm(&self, ctx: &mut Ctx<'_>, index: usize, attempt: u8) {
        let retry = &self.retry;
        let check = RETRY_BASE | index as u64;
        if attempt > 0 {
            if attempt + 1 < retry.max_attempts {
                let delay = retry.rto_after(attempt) + retry.jitter_for(index as u64, attempt + 1);
                ctx.set_timer(delay, check);
            }
            return;
        }
        let jittered = retry.jitter != SimDuration::ZERO;
        if retry.enabled() && jittered {
            ctx.set_timer(
                retry.rto_after(0) + retry.jitter_for(index as u64, 1),
                check,
            );
        }
        if !index.is_multiple_of(PROBE_BURST) {
            return;
        }
        let rest = (self.total - self.cursor).min(PROBE_BURST) as u32;
        let gap = self.gap;
        if rest > 0 {
            ctx.set_timer_batch(gap, gap, rest, self.token, 0);
        }
        if retry.enabled() && !jittered {
            ctx.set_timer_batch(retry.rto_after(0), gap, 1 + rest, check, 1);
        }
    }

    /// Whether probe `index` has been sent.
    pub(crate) fn launched(&self, index: usize) -> bool {
        index < self.cursor
    }

    /// Record an answer to probe `index`, stopping its retransmissions.
    /// Returns the transmissions it took when this is the first answer to
    /// a probe in flight; `None` for repeats, for unsent probes, and
    /// whenever retries are disabled.
    pub(crate) fn note_answer(&mut self, index: usize) -> Option<u8> {
        let sent = *self.attempts_sent.get(index)?;
        if sent == 0 || std::mem::replace(&mut self.answered[index], true) {
            return None;
        }
        Some(sent)
    }
}

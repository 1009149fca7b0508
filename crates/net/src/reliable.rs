//! Reliable delivery over an unreliable link: the sim's
//! ack/timeout/bounded-backoff layer, ported to real sockets.
//!
//! The simulator models loss by rolling a seeded RNG per transmission;
//! the wire gets real loss (a dead peer) *plus* the same injected kind
//! for testing, implemented by skipping the actual `write` — from the
//! receiver's perspective indistinguishable from the network eating
//! the frame. Recovery is identical to the sim's: the sender keeps
//! every reliable frame until acked, retransmitting after a timeout
//! that doubles per attempt up to a cap; after `max_attempts`
//! transmissions the link is declared dead (where the sim, whose
//! machines never truly die, assumes the link layer got it through).
//!
//! The receiver half acks every reliable frame — including duplicates,
//! whose earlier ack may have been the thing that was lost — and
//! deduplicates delivery by sequence number, so retransmission never
//! double-executes a shipped task.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use jade_core::stats::NetStats;
use jade_transport::frame::encode_frame;
use jade_transport::DataLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wire::{pack_msg, NetMsg};

/// A reliable frame awaiting its ack.
#[derive(Debug)]
struct Pending {
    frame: Vec<u8>,
    sent_at: Instant,
    /// Transmissions so far (1 after the first send).
    attempts: u32,
}

/// Tuning for the reliability layer. The coordinator sets it for both
/// ends of every link; a worker receives its end in `Welcome`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Timeout before the first retransmission; doubles per attempt.
    pub retransmit_timeout: Duration,
    /// Backoff doubling cap, as a multiple of `retransmit_timeout`.
    pub backoff_cap: u32,
    /// Transmissions per frame before the link is declared dead.
    pub max_attempts: u32,
    /// Injected loss: `(seed, probability)` rolled per transmission.
    pub loss: Option<(u64, f64)>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_timeout: Duration::from_millis(20),
            backoff_cap: 8,
            max_attempts: 10,
            loss: None,
        }
    }
}

/// What [`Reliable::accept`] decided about an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Deliver to the application (first sight of this frame).
    Deliver,
    /// Duplicate: ack it again but do not re-deliver.
    Duplicate,
}

/// Per-link reliability state: one instance per socket, owned by
/// whichever side sends on it (each side has its own).
#[derive(Debug)]
pub struct Reliable {
    cfg: ReliableConfig,
    next_seq: u64,
    pending: HashMap<u64, Pending>,
    /// Reliable sequence numbers already delivered (receiver dedup).
    seen: std::collections::HashSet<u64>,
    rng: Option<StdRng>,
    loss_prob: f64,
    /// Counters surfaced through `Report::net`.
    pub stats: NetStats,
}

impl Reliable {
    /// Fresh state for one link end.
    pub fn new(cfg: ReliableConfig) -> Self {
        let (rng, loss_prob) = match cfg.loss {
            Some((seed, p)) if p > 0.0 => (Some(StdRng::seed_from_u64(seed)), p.min(0.999)),
            _ => (None, 0.0),
        };
        Reliable {
            cfg,
            next_seq: 0,
            pending: HashMap::new(),
            seen: std::collections::HashSet::new(),
            rng,
            loss_prob,
            stats: NetStats::default(),
        }
    }

    fn roll_drop(&mut self) -> bool {
        match &mut self.rng {
            Some(rng) => rng.gen_bool(self.loss_prob),
            None => false,
        }
    }

    /// Send `msg` on `w` at time `now`, assigning a sequence number by
    /// delivery class and registering reliable frames for
    /// retransmission. An injected drop skips the write (counted) but
    /// keeps the pending entry, so the retransmit path recovers
    /// exactly as it would from real loss.
    pub fn send(
        &mut self,
        now: Instant,
        w: &mut dyn Write,
        msg: &NetMsg,
        src: u32,
        dst: u32,
        layout: DataLayout,
    ) -> std::io::Result<()> {
        let reliable = msg.is_reliable();
        let seq = if reliable {
            self.next_seq += 1;
            self.next_seq
        } else {
            0
        };
        let frame = encode_frame(&pack_msg(msg, src, dst, seq, layout));
        if reliable {
            self.pending
                .insert(seq, Pending { frame: frame.clone(), sent_at: now, attempts: 1 });
        }
        if self.roll_drop() {
            self.stats.dropped += 1;
            return Ok(());
        }
        w.write_all(&frame)?;
        w.flush()
    }

    /// An ack arrived: release the frame it covers.
    pub fn on_ack(&mut self, seq: u64) {
        self.pending.remove(&seq);
    }

    /// Classify an incoming frame by its header sequence number.
    /// Unreliable frames (`seq == 0`) always deliver; reliable frames
    /// deliver once and count as duplicates after.
    pub fn accept(&mut self, seq: u64, wire_bytes: usize) -> Accept {
        if seq == 0 {
            return Accept::Deliver;
        }
        if self.seen.insert(seq) {
            self.stats.messages += 1;
            self.stats.bytes += wire_bytes as u64;
            Accept::Deliver
        } else {
            Accept::Duplicate
        }
    }

    /// Retransmission backoff before attempt `n + 1`, given `n`
    /// transmissions so far: `timeout × min(2^(n-1), cap)`.
    fn backoff(&self, attempts: u32) -> Duration {
        let mult = 1u64.checked_shl(attempts.saturating_sub(1)).unwrap_or(u64::MAX);
        self.cfg.retransmit_timeout.saturating_mul(mult.min(self.cfg.backoff_cap as u64) as u32)
    }

    /// Scan pending frames and retransmit the ones overdue at `now`.
    /// Returns `false` when some frame has exhausted its transmission
    /// budget — the peer is unreachable and the link must be declared
    /// dead.
    pub fn tick(&mut self, now: Instant, w: &mut dyn Write) -> std::io::Result<bool> {
        let overdue: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now.duration_since(p.sent_at) >= self.backoff(p.attempts))
            .map(|(&s, _)| s)
            .collect();
        for seq in overdue {
            let frame = {
                let p = self.pending.get_mut(&seq).expect("just listed");
                if p.attempts >= self.cfg.max_attempts {
                    return Ok(false);
                }
                p.attempts += 1;
                p.sent_at = now;
                p.frame.clone()
            };
            self.stats.timeouts += 1;
            self.stats.retransmits += 1;
            if self.roll_drop() {
                self.stats.dropped += 1;
                continue;
            }
            w.write_all(&frame)?;
            w.flush()?;
        }
        Ok(true)
    }

    /// Frames still awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_fast() -> ReliableConfig {
        ReliableConfig {
            retransmit_timeout: Duration::from_millis(1),
            backoff_cap: 4,
            max_attempts: 3,
            loss: None,
        }
    }

    fn reliable_msg() -> NetMsg {
        NetMsg::ObjectShip { object: 1, version: 1, data: Vec::new() }
    }

    #[test]
    fn reliable_frames_pend_until_acked() {
        let mut r = Reliable::new(cfg_fast());
        let mut sink = Vec::new();
        let now = Instant::now();
        r.send(now, &mut sink, &reliable_msg(), 0, 1, DataLayout::x86_64()).unwrap();
        r.send(now, &mut sink, &NetMsg::Ping { nonce: 1 }, 0, 1, DataLayout::x86_64()).unwrap();
        assert_eq!(r.in_flight(), 1, "pings are unreliable");
        r.on_ack(1);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn tick_retransmits_then_declares_dead() {
        let mut r = Reliable::new(cfg_fast());
        let mut sink = Vec::new();
        // Synthetic instants: timeout 1 ms, doubling per attempt.
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        r.send(t0, &mut sink, &reliable_msg(), 0, 1, DataLayout::x86_64()).unwrap();
        let first_len = sink.len();
        // Attempt 2 and 3 retransmit, then the budget is exhausted.
        assert!(r.tick(t0, &mut sink).unwrap());
        assert_eq!(sink.len(), first_len, "nothing is overdue yet");
        assert!(r.tick(at(1), &mut sink).unwrap());
        assert_eq!(sink.len(), 2 * first_len);
        assert!(r.tick(at(2), &mut sink).unwrap());
        assert_eq!(sink.len(), 2 * first_len, "attempt 3 waits out the doubled timeout");
        assert!(r.tick(at(3), &mut sink).unwrap());
        assert_eq!(sink.len(), 3 * first_len);
        assert!(!r.tick(at(7), &mut sink).unwrap(), "max_attempts exhausted kills the link");
        assert_eq!(r.stats.retransmits, 2);
        assert_eq!(r.stats.timeouts, 2);
    }

    #[test]
    fn injected_loss_skips_the_write_but_keeps_the_frame() {
        let mut r = Reliable::new(ReliableConfig { loss: Some((7, 0.999)), ..cfg_fast() });
        let mut sink = Vec::new();
        r.send(Instant::now(), &mut sink, &reliable_msg(), 0, 1, DataLayout::x86_64()).unwrap();
        assert!(sink.is_empty(), "the frame was 'lost on the wire'");
        assert_eq!(r.stats.dropped, 1);
        assert_eq!(r.in_flight(), 1, "recovery still owns it");
    }

    #[test]
    fn dedup_delivers_once_and_flags_duplicates() {
        let mut r = Reliable::new(cfg_fast());
        assert_eq!(r.accept(5, 30), Accept::Deliver);
        assert_eq!(r.accept(5, 30), Accept::Duplicate);
        assert_eq!(r.accept(0, 30), Accept::Deliver, "unreliable class always delivers");
        assert_eq!(r.accept(0, 30), Accept::Deliver);
        assert_eq!(r.stats.messages, 1);
    }
}

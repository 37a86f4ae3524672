//! Link model: one-way delay, bandwidth, finite FIFO queue, random
//! loss, and administrative up/down state.
//!
//! A duplex link is two independent unidirectional transmitters. Each
//! transmitter serialises packets at `bandwidth_bps` and keeps at most
//! `queue_bytes` of backlog; a packet arriving to a full queue is dropped
//! (tail drop). After serialisation the packet propagates for `delay` and
//! is delivered to the peer. Fault injection can additionally drop
//! packets with a configured probability (driven by the simulation RNG
//! so runs stay deterministic).
//!
//! A transmitter can also be **administratively down** (timed failures;
//! see `Sim::schedule_link_admin` and DESIGN.md §7). Packets offered to a
//! down transmitter are dropped and counted in [`LinkStats::down_drops`].
//! Packets already accepted before the failure instant are treated as on
//! the wire and still arrive.

use crate::time::Ns;

/// Configuration for one link direction (a duplex link uses the same
/// config for both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCfg {
    /// One-way propagation delay.
    pub delay: Ns,
    /// Serialisation rate in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum transmit backlog in bytes; `u64::MAX` for unbounded.
    pub queue_bytes: u64,
    /// Probability a packet is randomly dropped (fault injection).
    pub drop_prob: f64,
}

impl LinkCfg {
    /// A WAN-like link: given delay, 1 Gbps, 256 KiB queue, no faults.
    pub fn wan(delay: Ns) -> Self {
        Self {
            delay,
            bandwidth_bps: 1_000_000_000,
            queue_bytes: 256 * 1024,
            drop_prob: 0.0,
        }
    }

    /// A LAN-like link: 50 µs delay, 10 Gbps, 1 MiB queue.
    pub fn lan() -> Self {
        Self {
            delay: Ns::from_us(50),
            bandwidth_bps: 10_000_000_000,
            queue_bytes: 1024 * 1024,
            drop_prob: 0.0,
        }
    }

    /// An IPC-like attachment between co-located processes (the paper's
    /// dashed PCE–DNS line): 10 µs, effectively infinite rate.
    pub fn ipc() -> Self {
        Self {
            delay: Ns::from_us(10),
            bandwidth_bps: 100_000_000_000,
            queue_bytes: u64::MAX,
            drop_prob: 0.0,
        }
    }

    /// Builder-style: set the random drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Builder-style: set the bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Builder-style: set the queue capacity in bytes.
    pub fn with_queue_bytes(mut self, bytes: u64) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Serialisation time for `len` bytes at this link's bandwidth.
    pub fn serialization_time(&self, len: usize) -> Ns {
        if self.bandwidth_bps == 0 {
            return Ns::ZERO;
        }
        // bits * 1e9 / bps, computed in u128 to avoid overflow.
        let bits = (len as u128) * 8;
        Ns(((bits * 1_000_000_000) / self.bandwidth_bps as u128) as u64)
    }
}

/// Per-direction transmit statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub tx_packets: u64,
    /// Bytes accepted for transmission.
    pub tx_bytes: u64,
    /// Packets dropped because the queue was full.
    pub queue_drops: u64,
    /// Packets dropped by fault injection.
    pub fault_drops: u64,
    /// Packets dropped because the link was administratively down.
    pub down_drops: u64,
    /// Packets refused because their arrival would fall at or past
    /// [`Ns::MAX`], the engine's "never".
    pub horizon_drops: u64,
}

/// One direction of a link: the transmitter state.
#[derive(Debug)]
pub struct Transmitter {
    /// Static configuration.
    pub cfg: LinkCfg,
    /// Virtual time at which the transmitter becomes idle.
    pub busy_until: Ns,
    /// Statistics.
    pub stats: LinkStats,
    /// Administrative state: packets are carried only while `up`.
    pub up: bool,
    /// One-entry serialisation-time memo keyed on (size, bandwidth):
    /// most traffic repeats a handful of packet sizes, and the exact
    /// computation costs a u128 division. Keying on the bandwidth keeps
    /// the memo correct if `cfg` is mutated mid-run.
    ser_memo: (usize, u64, Ns),
}

/// Result of offering a packet to a transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Accepted; the packet will be delivered to the peer at this time.
    Deliver {
        /// Arrival instant at the receiving node.
        arrival: Ns,
    },
    /// Dropped: transmit queue full (counted in
    /// [`LinkStats::queue_drops`]) or the arrival would fall at the end
    /// of the clock ([`LinkStats::horizon_drops`]).
    Dropped,
}

impl Transmitter {
    /// New idle transmitter.
    pub fn new(cfg: LinkCfg) -> Self {
        // Memo slot primed with the zero-length packet (always 0 ns).
        Self {
            cfg,
            busy_until: Ns::ZERO,
            stats: LinkStats::default(),
            up: true,
            ser_memo: (0, cfg.bandwidth_bps, Ns::ZERO),
        }
    }

    /// Serialisation time of `len` bytes, memoised on the last distinct
    /// (size, bandwidth) pair (bit-exact with
    /// [`LinkCfg::serialization_time`]).
    #[inline]
    fn serialization_time_memo(&mut self, len: usize) -> Ns {
        if self.ser_memo.0 != len || self.ser_memo.1 != self.cfg.bandwidth_bps {
            self.ser_memo = (
                len,
                self.cfg.bandwidth_bps,
                self.cfg.serialization_time(len),
            );
        }
        self.ser_memo.2
    }

    /// Offer a packet of `len` bytes at time `now`. Fault injection is
    /// handled by the caller (it needs the RNG); this models only queueing
    /// and serialisation.
    pub fn offer(&mut self, now: Ns, len: usize) -> TxOutcome {
        let backlog_time = self.busy_until.saturating_sub(now);
        // Convert backlog time to queued bytes at line rate. The idle
        // case skips the u128 division — it dominates light-load runs.
        let queued_bytes = if backlog_time.0 == 0 || self.cfg.bandwidth_bps == 0 {
            0
        } else {
            (backlog_time.0 as u128 * self.cfg.bandwidth_bps as u128 / 8 / 1_000_000_000) as u64
        };
        if queued_bytes > self.cfg.queue_bytes {
            self.stats.queue_drops += 1;
            return TxOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        let ser = self.serialization_time_memo(len);
        // Saturating: near the clock ceiling an arrival clamps to
        // Ns::MAX, the engine's "never", which no event queue accepts:
        // such a packet is refused and counted, not lost in silence.
        let done = start.saturating_add(ser);
        let arrival = done.saturating_add(self.cfg.delay);
        if arrival == Ns::MAX {
            self.stats.horizon_drops += 1;
            return TxOutcome::Dropped;
        }
        self.busy_until = done;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += len as u64;
        TxOutcome::Deliver { arrival }
    }

    /// Current backlog (queued but unserialised time) at `now`.
    pub fn backlog(&self, now: Ns) -> Ns {
        self.busy_until.saturating_sub(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_math() {
        let cfg = LinkCfg::wan(Ns::from_ms(10));
        // 1250 bytes at 1 Gbps = 10 us.
        assert_eq!(cfg.serialization_time(1250), Ns::from_us(10));
        assert_eq!(cfg.serialization_time(0), Ns::ZERO);
    }

    #[test]
    fn idle_link_delivers_after_ser_plus_delay() {
        let mut tx = Transmitter::new(LinkCfg::wan(Ns::from_ms(10)));
        match tx.offer(Ns::ZERO, 1250) {
            TxOutcome::Deliver { arrival } => {
                assert_eq!(arrival, Ns::from_us(10) + Ns::from_ms(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut tx = Transmitter::new(LinkCfg::wan(Ns::from_ms(1)));
        let TxOutcome::Deliver { arrival: a1 } = tx.offer(Ns::ZERO, 1250) else {
            panic!()
        };
        let TxOutcome::Deliver { arrival: a2 } = tx.offer(Ns::ZERO, 1250) else {
            panic!()
        };
        // Second packet waits for the first to serialise.
        assert_eq!(a2 - a1, Ns::from_us(10));
        assert_eq!(tx.stats.tx_packets, 2);
        assert_eq!(tx.stats.tx_bytes, 2500);
    }

    #[test]
    fn full_queue_tail_drops() {
        let cfg = LinkCfg::wan(Ns::from_ms(1))
            .with_queue_bytes(2500)
            .with_bandwidth(1_000_000); // 1 Mbps
        let mut tx = Transmitter::new(cfg);
        // Each 1250-byte packet takes 10 ms to serialise at 1 Mbps.
        let mut drops = 0;
        for _ in 0..10 {
            if matches!(tx.offer(Ns::ZERO, 1250), TxOutcome::Dropped) {
                drops += 1;
            }
        }
        assert!(drops > 0, "expected tail drops");
        assert_eq!(tx.stats.queue_drops, drops);
        // Accepted + dropped = offered.
        assert_eq!(tx.stats.tx_packets + tx.stats.queue_drops, 10);
    }

    #[test]
    fn backlog_drains_with_time() {
        let mut tx = Transmitter::new(LinkCfg::wan(Ns::from_ms(1)).with_bandwidth(1_000_000));
        tx.offer(Ns::ZERO, 1250); // 10 ms serialisation
        assert_eq!(tx.backlog(Ns::ZERO), Ns::from_ms(10));
        assert_eq!(tx.backlog(Ns::from_ms(4)), Ns::from_ms(6));
        assert_eq!(tx.backlog(Ns::from_ms(20)), Ns::ZERO);
    }

    #[test]
    fn presets_sane() {
        assert!(LinkCfg::lan().bandwidth_bps > LinkCfg::wan(Ns::ZERO).bandwidth_bps);
        assert!(LinkCfg::ipc().delay < LinkCfg::lan().delay);
        let f = LinkCfg::wan(Ns::ZERO).with_drop_prob(0.1);
        assert_eq!(f.drop_prob, 0.1);
    }
}

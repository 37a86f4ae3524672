//! The [`Payload`] abstraction: what the engine knows about a packet.
//!
//! The simulator never needs packet *bytes* on the hot path — link
//! timing only needs the exact wire length, and fault injection only
//! needs a way to mark one bit as flipped. Making the engine generic
//! over this trait lets product code carry fully **typed** packets
//! (`lispwire::Packet`) through the event queue with zero per-hop
//! serialization, while tests and micro-benchmarks can still use plain
//! `Vec<u8>` buffers (which implement the trait trivially).
//!
//! `encode` is the *lazy* escape hatch: it materializes the exact bytes
//! the payload would occupy on a real wire. The engine calls it only
//! when the packet log is enabled (see [`crate::Trace`]) — never during
//! normal dispatch — and equivalence tests use it to pin the typed
//! representation against the legacy byte codecs.

/// A packet payload carried by the simulation engine.
///
/// `Send` so a [`crate::Sim`] with packets in flight stays movable into
/// a [`crate::par::par_map`] worker; payloads are plain data, so this is
/// free in practice.
pub trait Payload: std::fmt::Debug + Send + 'static {
    /// Exact number of bytes this payload occupies on the wire. Link
    /// serialisation timing and byte counters use this value, so it
    /// must equal `encode().len()` at all times.
    fn wire_len(&self) -> usize;

    /// Materialize the wire bytes (lazy: traces, golden hashing and
    /// equivalence tests only — never called on the dispatch hot path).
    fn encode(&self) -> Vec<u8>;

    /// Link fault injection: flip bit `bit` (0–7) of octet `idx` of the
    /// wire image. Byte payloads flip the bit literally; typed payloads
    /// record the corruption so receivers treat the packet as failing
    /// its checksums.
    fn corrupt(&mut self, idx: usize, bit: u8);
}

impl Payload for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn encode(&self) -> Vec<u8> {
        self.clone()
    }

    fn corrupt(&mut self, idx: usize, bit: u8) {
        if let Some(b) = self.get_mut(idx) {
            *b ^= 1 << (bit & 7);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_payload_is_its_own_wire_image() {
        let v = vec![1u8, 2, 3];
        assert_eq!(v.wire_len(), 3);
        assert_eq!(Payload::encode(&v), v);
    }

    #[test]
    fn vec_corrupt_flips_one_bit() {
        let mut v = vec![0u8; 4];
        v.corrupt(2, 3);
        assert_eq!(v, vec![0, 0, 8, 0]);
        // Out-of-range index is a no-op, not a panic.
        v.corrupt(99, 1);
        assert_eq!(v, vec![0, 0, 8, 0]);
    }
}

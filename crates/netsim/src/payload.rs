//! The [`Payload`] abstraction: what the engine knows about a packet.
//!
//! The simulator never needs packet *bytes* on the hot path — link
//! timing only needs the exact wire length. Making the engine generic
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
}

impl Payload for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn encode(&self) -> Vec<u8> {
        self.clone()
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
}

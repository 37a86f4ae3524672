//! Event tracing: a time-stamped log of node-emitted messages.
//!
//! Traces drive the Fig. 1 step-sequence assertions (experiment E1) and
//! the determinism integration test (same seed ⇒ identical trace).

use crate::node::NodeId;
use crate::time::Ns;
use std::fmt;

/// One trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub t: Ns,
    /// Node that emitted it.
    pub node: NodeId,
    /// Node name at emission time.
    pub node_name: String,
    /// Free-form message.
    pub msg: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<12} {}",
            self.t.to_string(),
            self.node_name,
            self.msg
        )
    }
}

/// Fowler–Noll–Vo 64-bit hash of a byte slice — the digest the packet
/// log records per delivered packet, so golden tests can pin the exact
/// wire image of a run without storing the bytes themselves.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every node's name, back to back in one buffer: a world of many
/// thousand nodes holds two allocations for its names, not one each.
#[derive(Debug, Default)]
pub(crate) struct NodeNames {
    text: String,
    /// Where each node's name ends in `text`, by node id.
    ends: Vec<usize>,
}

impl NodeNames {
    pub(crate) fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    pub(crate) fn get(&self, id: NodeId) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[id]]
    }
}

/// A bounded trace log. Disabled by default: enabling costs allocations
/// per event, so experiments that only need counters leave it off.
///
/// Besides node-emitted messages, the trace can record a **packet log**
/// ([`Trace::enable_packet_log`]): one line per delivered packet with
/// its wire length and [`fnv64`] digest. Packets are typed values in
/// the engine (see [`crate::payload::Payload`]), so the digest is the
/// one place the engine *lazily* encodes a payload — normal dispatch
/// never materializes bytes.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    packet_log: bool,
    events: Vec<TraceEvent>,
    cap: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A disabled trace.
    pub fn new() -> Self {
        Self {
            enabled: false,
            packet_log: false,
            events: Vec::new(),
            cap: 1 << 20,
        }
    }

    /// Enable recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disable recording (existing events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Also record one digest line per delivered packet (lazy payload
    /// encode; implies the cost of materializing every packet's wire
    /// image, so leave off for timing-sensitive runs).
    pub fn enable_packet_log(&mut self) {
        self.enabled = true;
        self.packet_log = true;
    }

    /// Whether the per-packet digest log is on.
    pub fn packet_log_enabled(&self) -> bool {
        self.enabled && self.packet_log
    }

    /// Set the maximum number of retained events.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Record an event (no-op when disabled or full). The message is
    /// taken unformatted and the node's name looked up in `names` only
    /// once the event is known to be retained, so a disabled or full
    /// trace costs callers one test.
    #[inline]
    pub(crate) fn push(&mut self, t: Ns, node: NodeId, names: &NodeNames, msg: fmt::Arguments<'_>) {
        if self.enabled && self.events.len() < self.cap {
            self.events.push(TraceEvent {
                t,
                node,
                node_name: names.get(node).to_string(),
                msg: fmt::format(msg),
            });
        }
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.msg.contains(needle))
            .collect()
    }

    /// The first event containing `needle`, if any.
    pub fn first(&self, needle: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.msg.contains(needle))
    }

    /// Time of the first event containing `needle`.
    pub fn time_of(&self, needle: &str) -> Option<Ns> {
        self.first(needle).map(|e| e.t)
    }

    /// Assert that the given needles appear in this exact relative order
    /// (other events may be interleaved). Returns the matched times.
    ///
    /// # Panics
    /// Panics with a readable message if the order is violated.
    pub fn assert_order(&self, needles: &[&str]) -> Vec<Ns> {
        let mut times = Vec::with_capacity(needles.len());
        let mut idx = 0usize;
        for needle in needles {
            let found = self.events[idx..]
                .iter()
                .position(|e| e.msg.contains(needle))
                .unwrap_or_else(|| {
                    panic!("trace order violated: `{needle}` not found after index {idx}")
                });
            idx += found;
            times.push(self.events[idx].t);
            idx += 1;
        }
        times
    }

    /// Render the full trace as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nodes 0 and 1, named "a" and "b".
    fn names() -> NodeNames {
        let mut names = NodeNames::default();
        names.push("a");
        names.push("b");
        names
    }

    fn mk() -> Trace {
        let (mut t, names) = (Trace::new(), names());
        t.enable();
        t.push(Ns::from_ms(1), 0, &names, format_args!("step1: hello"));
        t.push(Ns::from_ms(2), 1, &names, format_args!("noise"));
        t.push(Ns::from_ms(3), 0, &names, format_args!("step2: world"));
        t
    }

    #[test]
    fn names_resolve_by_node_id() {
        let t = mk();
        let got: Vec<_> = t.events().iter().map(|e| e.node_name.as_str()).collect();
        assert_eq!(got, ["a", "b", "a"]);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new();
        t.push(Ns::ZERO, 0, &names(), format_args!("x"));
        assert!(t.is_empty());
    }

    #[test]
    fn default_is_new() {
        // Regression: a derived `Default` set `cap: 0`, so `default()`
        // followed by `enable()` silently dropped every event.
        let (d, n) = (Trace::default(), Trace::new());
        assert_eq!(
            (d.enabled, d.packet_log, d.cap),
            (n.enabled, n.packet_log, n.cap)
        );
        let mut t = Trace::default();
        t.enable();
        t.push(Ns::ZERO, 0, &names(), format_args!("kept"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn find_and_time_of() {
        let t = mk();
        assert_eq!(t.find("step").len(), 2);
        assert_eq!(t.time_of("step2"), Some(Ns::from_ms(3)));
        assert_eq!(t.time_of("missing"), None);
    }

    #[test]
    fn order_assertion_passes() {
        let t = mk();
        let times = t.assert_order(&["step1", "step2"]);
        assert_eq!(times, vec![Ns::from_ms(1), Ns::from_ms(3)]);
    }

    #[test]
    #[should_panic(expected = "trace order violated")]
    fn order_assertion_fails() {
        let t = mk();
        t.assert_order(&["step2", "step1"]);
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned: the packet log's digests must not drift between PRs.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn packet_log_flag() {
        let mut t = Trace::new();
        assert!(!t.packet_log_enabled());
        t.enable_packet_log();
        assert!(t.is_enabled());
        assert!(t.packet_log_enabled());
    }

    #[test]
    fn capacity_bounds() {
        let mut t = Trace::new();
        t.enable();
        t.set_capacity(2);
        for i in 0..5 {
            t.push(Ns(i), 0, &names(), format_args!("e{i}"));
        }
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn render_contains_names() {
        let t = mk();
        let s = t.render();
        assert!(s.contains("step1: hello"));
        assert!(s.contains("1ms"));
    }
}

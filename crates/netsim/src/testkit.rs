//! The shared test double: one [`Tap`] node in place of the scripted
//! senders and recording sinks every crate's tests used to write.
//!
//! ```
//! use netsim::testkit::Tap;
//! use netsim::{LinkCfg, Ns, Sim};
//!
//! let mut sim: Sim = Sim::new(1);
//! let src = sim.add_node("src", Box::new(Tap::new(vec![b"hello".to_vec()])));
//! let dst = sim.add_node("dst", Box::new(Tap::<Vec<u8>>::sink()));
//! sim.connect(src, dst, LinkCfg::wan(Ns::from_ms(5)));
//! sim.schedule_timer(src, Ns::ZERO, 0); // token 0 sends outbox[0]
//! sim.run();
//! let received = &sim.node_ref::<Tap>(dst).received;
//! assert_eq!(received.len(), 1);
//! assert_eq!(received[0].1, b"hello");
//! ```

use crate::node::{Ctx, Node, PortId};
use crate::payload::Payload;
use crate::time::Ns;

/// A scripted source and recording sink in one node. Timer token `i`
/// sends `outbox[i].clone()` out of port 0; every packet that arrives,
/// on any port, is pushed to `received` with its arrival time. A test
/// that filters or counts arrivals does so on `received` after the run.
#[derive(Debug)]
pub struct Tap<P: Payload + Clone = Vec<u8>> {
    /// Packets to send, indexed by timer token.
    pub outbox: Vec<P>,
    /// Every arrival, in arrival order.
    pub received: Vec<(Ns, P)>,
}

impl<P: Payload + Clone> Tap<P> {
    /// A tap that sends `outbox[i]` when timer token `i` fires.
    pub fn new(outbox: Vec<P>) -> Self {
        Self {
            outbox,
            received: Vec::new(),
        }
    }

    /// A tap that only records.
    pub fn sink() -> Self {
        Self::new(Vec::new())
    }

    /// The received packets, without their arrival times.
    pub fn packets(&self) -> impl Iterator<Item = &P> {
        self.received.iter().map(|(_, pkt)| pkt)
    }
}

impl<P: Payload + Clone> Node<P> for Tap<P> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, P>, _port: PortId, pkt: P) {
        self.received.push((ctx.now(), pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, token: u64) {
        let pkt = self.outbox[token as usize].clone();
        ctx.send(0, pkt);
    }
}

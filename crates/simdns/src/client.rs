//! A simple DNS client node: fires queries at a resolver and records the
//! answers with timing. Used by tests, examples, and the experiment
//! harness as the `E_S`-side stub resolver interface.

use inet::stack::IpStack;
use lispwire::dnswire::{Message, Name, Rcode};
use lispwire::packet::Packet;
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, PortId};

/// A recorded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsAnswer {
    /// Query id.
    pub qid: u16,
    /// Queried name.
    pub qname: Name,
    /// When the query was sent.
    pub asked_at: Ns,
    /// When the answer arrived.
    pub answered_at: Ns,
    /// Resolved address (None for NXDOMAIN/SERVFAIL).
    pub addr: Option<Ipv4Address>,
    /// Response code.
    pub rcode: Rcode,
}

/// A scripted DNS client.
///
/// Schedule timers with token `i` to fire query `i` of the script.
pub struct DnsClient {
    stack: IpStack,
    resolver: Ipv4Address,
    /// The query script: token -> name.
    pub script: Vec<Name>,
    asked: Vec<Option<Ns>>,
    /// Completed answers in arrival order.
    pub answers: Vec<DnsAnswer>,
}

impl DnsClient {
    /// A client at `addr` talking to `resolver`, with a query script.
    pub fn new(addr: Ipv4Address, resolver: Ipv4Address, script: Vec<Name>) -> Self {
        let n = script.len();
        Self {
            stack: IpStack::new(addr),
            resolver,
            script,
            asked: vec![None; n],
            answers: Vec::new(),
        }
    }

    /// This client's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Latency of the answer to script entry `i`, if answered.
    pub fn latency(&self, i: usize) -> Option<Ns> {
        self.answers
            .iter()
            .find(|a| a.qid as usize == i)
            .map(|a| a.answered_at.saturating_sub(a.asked_at))
    }
}

impl Node<Packet> for DnsClient {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        let i = token as usize;
        let Some(name) = self.script.get(i).cloned() else {
            return;
        };
        if self.asked.len() <= i {
            self.asked.resize(i + 1, None);
        }
        self.asked[i] = Some(ctx.now());
        let q = Message::query_a(i as u16, name.clone(), true);
        let pkt = self.stack.dns(40000, self.resolver, ports::DNS, q);
        ctx.trace(format_args!("client queries {name}"));
        ctx.send(0, pkt);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        if pkt.is_corrupt() {
            return; // failed end-to-end checksum (typed form)
        }
        let Packet::Dns { ports: p, msg, .. } = pkt else {
            return;
        };
        if p.src != ports::DNS || p.dst != 40000 {
            return;
        }
        if !msg.is_response {
            return;
        }
        let qid = msg.id;
        let qname = msg
            .question()
            .map(|q| q.name.clone())
            .unwrap_or_else(Name::root);
        let asked_at = self
            .asked
            .get(qid as usize)
            .copied()
            .flatten()
            .unwrap_or(Ns::ZERO);
        let addr = msg.first_answer_a();
        ctx.trace(format_args!("client answer for {qname} -> {addr:?}"));
        self.answers.push(DnsAnswer {
            qid,
            qname,
            asked_at,
            answered_at: ctx.now(),
            addr,
            rcode: msg.rcode,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lookup() {
        let mut c = DnsClient::new(
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 53),
            vec![Name::parse_str("x.example").unwrap()],
        );
        c.asked[0] = Some(Ns::from_ms(5));
        c.answers.push(DnsAnswer {
            qid: 0,
            qname: Name::parse_str("x.example").unwrap(),
            asked_at: Ns::from_ms(5),
            answered_at: Ns::from_ms(105),
            addr: Some(Ipv4Address::new(1, 2, 3, 4)),
            rcode: Rcode::NoError,
        });
        assert_eq!(c.latency(0), Some(Ns::from_ms(100)));
        assert_eq!(c.latency(1), None);
    }
}

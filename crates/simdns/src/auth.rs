//! An authoritative DNS server node.

use crate::zone::{LookupResult, ZoneStore};
use inet::stack::IpStack;
use lispwire::dnswire::{Message, Rcode};
use lispwire::packet::Packet;
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, PortId};
use std::any::Any;
use std::collections::VecDeque;

/// An authoritative server answering A queries from its [`ZoneStore`].
///
/// Listens on UDP port 53 of its single access port; everything else is
/// ignored. A configurable processing delay models lookup cost.
pub struct AuthServer {
    stack: IpStack,
    zones: ZoneStore,
    processing_delay: Ns,
    pending: VecDeque<Packet>,
    /// Queries answered (any rcode).
    pub queries_answered: u64,
    /// Queries ignored (not DNS / not a query).
    pub ignored: u64,
}

const TOKEN_ANSWER: u64 = u64::MAX - 0xA0A0;

impl AuthServer {
    /// A server at `addr` serving `zones` with 100 µs processing delay.
    pub fn new(addr: Ipv4Address, zones: ZoneStore) -> Self {
        Self::with_processing_delay(addr, zones, Ns::from_us(100))
    }

    /// A server with an explicit processing delay.
    pub fn with_processing_delay(
        addr: Ipv4Address,
        zones: ZoneStore,
        processing_delay: Ns,
    ) -> Self {
        Self {
            stack: IpStack::new(addr),
            zones,
            processing_delay,
            pending: VecDeque::new(),
            queries_answered: 0,
            ignored: 0,
        }
    }

    /// This server's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Build the response for a query message (pure; used by tests too).
    pub fn answer(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query);
        let Some(q) = query.question() else {
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        match self.zones.lookup(&q.name) {
            LookupResult::Answer(records) => {
                resp.authoritative = true;
                resp.answers = records;
            }
            LookupResult::Referral { ns, glue } => {
                resp.authority = ns;
                resp.additional = glue;
            }
            LookupResult::NxDomain => {
                resp.authoritative = true;
                resp.rcode = Rcode::NxDomain;
            }
            LookupResult::NotAuthoritative => {
                resp.rcode = Rcode::ServFail;
            }
        }
        resp
    }
}

impl Node<Packet> for AuthServer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        // A corruption marker is the typed form of a failed end-to-end
        // checksum: ignore, as the byte path's parse failure did.
        if pkt.is_corrupt() {
            self.ignored += 1;
            return;
        }
        let Packet::Dns {
            ip,
            ports: p,
            msg: query,
        } = pkt
        else {
            self.ignored += 1;
            return;
        };
        if ip.dst != self.stack.addr || p.dst != ports::DNS {
            self.ignored += 1;
            return;
        }
        if query.is_response {
            self.ignored += 1;
            return;
        }
        let resp = self.answer(&query);
        self.queries_answered += 1;
        if let Some(q) = query.question() {
            ctx.trace(format_args!(
                "auth {} answers {} -> {:?}",
                self.stack.addr, q.name, resp.rcode
            ));
        }
        let reply_pkt = self.stack.dns(ports::DNS, ip.src, p.src, resp);
        if self.processing_delay == Ns::ZERO {
            ctx.send(0, reply_pkt);
        } else {
            self.pending.push_back(reply_pkt);
            ctx.set_timer(self.processing_delay, TOKEN_ANSWER);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        if token == TOKEN_ANSWER {
            if let Some(pkt) = self.pending.pop_front() {
                ctx.send(0, pkt);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use lispwire::dnswire::Name;

    fn n(s: &str) -> Name {
        Name::parse_str(s).unwrap()
    }
    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn server() -> AuthServer {
        let mut zone = Zone::new(n("example"));
        zone.add_a(n("host.example"), a([101, 0, 0, 5]), 300);
        zone.delegate(
            n("sub.example"),
            vec![(n("ns.sub.example"), a([13, 0, 0, 53]))],
            3600,
        );
        let mut store = ZoneStore::new();
        store.add_zone(zone);
        AuthServer::new(a([12, 0, 0, 53]), store)
    }

    #[test]
    fn answers_a_query() {
        let s = server();
        let q = Message::query_a(1, n("host.example"), false);
        let r = s.answer(&q);
        assert!(r.is_response);
        assert!(r.authoritative);
        assert_eq!(r.first_answer_a(), Some(a([101, 0, 0, 5])));
    }

    #[test]
    fn refers_below_cut() {
        let s = server();
        let q = Message::query_a(2, n("www.sub.example"), false);
        let r = s.answer(&q);
        assert!(r.answers.is_empty());
        assert_eq!(r.authority.len(), 1);
        assert_eq!(r.additional.len(), 1);
    }

    #[test]
    fn nxdomain_and_servfail() {
        let s = server();
        assert_eq!(
            s.answer(&Message::query_a(3, n("no.example"), false)).rcode,
            Rcode::NxDomain
        );
        assert_eq!(
            s.answer(&Message::query_a(4, n("else.org"), false)).rcode,
            Rcode::ServFail
        );
    }

    #[test]
    fn end_to_end_over_sim() {
        use netsim::{LinkCfg, Sim};

        struct Asker {
            stack: IpStack,
            server: Ipv4Address,
            pub got: Option<Message>,
        }
        impl Node<Packet> for Asker {
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, _token: u64) {
                let q = Message::query_a(77, Name::parse_str("host.example").unwrap(), false);
                let pkt = self.stack.dns(5555, self.server, ports::DNS, q);
                ctx.send(0, pkt);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
                if let Packet::Dns { msg, .. } = pkt {
                    self.got = Some(*msg);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
            fn as_any_ref(&self) -> &dyn Any {
                self
            }
        }

        let mut sim: Sim<Packet> = Sim::new(1);
        let asker = sim.add_node(
            "asker",
            Box::new(Asker {
                stack: IpStack::new(a([10, 0, 0, 1])),
                server: a([12, 0, 0, 53]),
                got: None,
            }),
        );
        let auth = sim.add_node("auth", Box::new(server()));
        sim.connect(asker, auth, LinkCfg::wan(Ns::from_ms(15)));
        sim.schedule_timer(asker, Ns::ZERO, 0);
        sim.run();
        let got = sim.node_ref::<Asker>(asker).got.clone().expect("no answer");
        assert_eq!(got.id, 77);
        assert_eq!(got.first_answer_a(), Some(a([101, 0, 0, 5])));
        // One RTT plus processing: > 30 ms.
        assert!(sim.now() >= Ns::from_ms(30));
        assert_eq!(sim.node_ref::<AuthServer>(auth).queries_answered, 1);
    }
}

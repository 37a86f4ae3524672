//! End-host nodes: the traffic client (`E_S`) and server peer (`E_D`).
//!
//! The client executes exactly the sequence the paper's §1 equations
//! describe: DNS lookup of the destination name, then either a TCP
//! three-way handshake followed by data, or a CBR UDP blast starting the
//! instant the DNS answer arrives (the regime in which baseline LISP
//! drops or queues packets during mapping resolution). Every timing the
//! equations mention is recorded per flow.

use inet::stack::IpStack;
use inet::tcp::{TcpEvent, TcpMachine};
use lispwire::dnswire::{Message, Name};
use lispwire::packet::Packet;
use lispwire::{ports, Ipv4Address};
use netsim::{Counters, Ctx, Node, Ns, PortId};
use std::collections::BTreeMap;

/// How a flow exercises the network after resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// TCP: three-way handshake, then `packets` data segments of `size`
    /// bytes every `interval`.
    Tcp {
        /// Data segments after establishment.
        packets: u32,
        /// Inter-segment gap.
        interval: Ns,
        /// Segment payload size.
        size: usize,
    },
    /// UDP CBR starting immediately at the DNS answer: `packets` packets
    /// of `size` bytes every `interval`.
    Udp {
        /// Packet count.
        packets: u32,
        /// Inter-packet gap.
        interval: Ns,
        /// Payload size.
        size: usize,
    },
}

/// One scripted flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// When the client starts the DNS lookup.
    pub start: Ns,
    /// The destination name to resolve.
    pub qname: Name,
    /// Traffic shape.
    pub mode: FlowMode,
}

/// Everything measured about one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The spec that drove it.
    pub qname: Name,
    /// DNS query sent.
    pub t_query: Option<Ns>,
    /// DNS answer received (`T_DNS` = t_answer - t_query).
    pub t_answer: Option<Ns>,
    /// Resolved destination EID.
    pub dest: Option<Ipv4Address>,
    /// TCP established at the client (for `FlowMode::Tcp`).
    pub t_established: Option<Ns>,
    /// Data packets sent.
    pub data_sent: u32,
    /// Data packets received back... (unused for one-way flows).
    pub data_echoed: u32,
}

impl FlowRecord {
    /// `T_DNS` for this flow.
    pub fn dns_time(&self) -> Option<Ns> {
        match (self.t_query, self.t_answer) {
            (Some(q), Some(a)) => Some(a.saturating_sub(q)),
            _ => None,
        }
    }

    /// Time from DNS query to TCP establishment — the paper's full
    /// connection-setup expression.
    pub fn setup_time(&self) -> Option<Ns> {
        match (self.t_query, self.t_established) {
            (Some(q), Some(e)) => Some(e.saturating_sub(q)),
            _ => None,
        }
    }
}

// Timer token layout: [flow:24][kind:8][seq:32]
fn token(flow: usize, kind: u8, seq: u32) -> u64 {
    ((flow as u64) << 40) | (u64::from(kind) << 32) | u64::from(seq)
}
fn untoken(t: u64) -> (usize, u8, u32) {
    ((t >> 40) as usize, ((t >> 32) & 0xff) as u8, t as u32)
}
const KIND_START: u8 = 1;
const KIND_DATA: u8 = 2;

/// The source port of flow 0; flow `i` sends from `FIRST_FLOW_PORT + i`.
const FIRST_FLOW_PORT: u16 = 41_000;

/// The scripted traffic client.
pub struct TrafficHost {
    stack: IpStack,
    resolver: Ipv4Address,
    /// The flow script. Start flow `i` by scheduling timer
    /// `token(i, KIND_START, 0)` — [`TrafficHost::start_token`].
    pub flows: Vec<FlowSpec>,
    /// Per-flow measurements.
    pub records: Vec<FlowRecord>,
    tcp: BTreeMap<usize, TcpMachine>,
    port_of_flow: Vec<u16>,
}

impl TrafficHost {
    /// The longest flow script one client runs: flow `i` sends from
    /// port 41,000 + `i` (and queries DNS with id `i`), and ports end at
    /// 65,535.
    pub const MAX_FLOWS: usize = (u16::MAX - FIRST_FLOW_PORT) as usize + 1;

    /// A client at `addr` using `resolver`, with a flow script.
    ///
    /// # Panics
    /// Panics if the script holds more than [`TrafficHost::MAX_FLOWS`]
    /// flows: later flows would share ports with earlier ones (and with
    /// DNS), so their packets would be matched to the wrong flow.
    pub fn new(addr: Ipv4Address, resolver: Ipv4Address, flows: Vec<FlowSpec>) -> Self {
        assert!(
            flows.len() <= Self::MAX_FLOWS,
            "client script has {} flows; one client holds at most {} \
             (flow i sends from port 41000 + i, and ports end at 65535)",
            flows.len(),
            Self::MAX_FLOWS
        );
        let records = flows
            .iter()
            .map(|f| FlowRecord {
                qname: f.qname.clone(),
                t_query: None,
                t_answer: None,
                dest: None,
                t_established: None,
                data_sent: 0,
                data_echoed: 0,
            })
            .collect();
        let port_of_flow = (FIRST_FLOW_PORT..=u16::MAX).take(flows.len()).collect();
        Self {
            stack: IpStack::new(addr),
            resolver,
            flows,
            records,
            tcp: BTreeMap::new(),
            port_of_flow,
        }
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// The timer token that starts flow `i` (schedule it at the spec's
    /// start time from outside; `World::schedule_all_flows` does this
    /// for every scripted flow).
    pub fn start_token(i: usize) -> u64 {
        token(i, KIND_START, 0)
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_, Packet>, flow: usize, seq: u32) {
        let Some(dest) = self.records[flow].dest else {
            return;
        };
        let (packets, interval, size, is_tcp) = match self.flows[flow].mode {
            FlowMode::Tcp {
                packets,
                interval,
                size,
            } => (packets, interval, size, true),
            FlowMode::Udp {
                packets,
                interval,
                size,
            } => (packets, interval, size, false),
        };
        if seq >= packets {
            return;
        }
        let payload = vec![(seq & 0xff) as u8; size];
        let pkt = if is_tcp {
            let Some(m) = self.tcp.get_mut(&flow) else {
                return;
            };
            let seg = m.data_segment(size);
            self.stack.tcp(dest, &seg, payload)
        } else {
            self.stack.udp(self.port_of_flow[flow], dest, 7001, payload)
        };
        ctx.send(0, pkt);
        self.records[flow].data_sent += 1;
        if seq + 1 < packets {
            ctx.set_timer(interval, token(flow, KIND_DATA, seq + 1));
        }
    }
}

impl Node<Packet> for TrafficHost {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, t: u64) {
        let (flow, kind, seq) = untoken(t);
        if flow >= self.flows.len() {
            return;
        }
        match kind {
            KIND_START => {
                let qname = self.flows[flow].qname.clone();
                self.records[flow].t_query = Some(ctx.now());
                let q = Message::query_a(flow as u16, qname.clone(), true);
                let pkt = self
                    .stack
                    .dns(self.port_of_flow[flow], self.resolver, ports::DNS, q);
                ctx.trace(format_args!(
                    "E_S {} resolves {} (flow {})",
                    self.stack.addr, qname, flow
                ));
                ctx.send(0, pkt);
            }
            KIND_DATA => self.send_data(ctx, flow, seq),
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        match pkt {
            // DNS answer.
            Packet::Dns { ports: p, msg, .. } if p.src == ports::DNS => {
                if !msg.is_response {
                    return;
                }
                let flow = msg.id as usize;
                if flow >= self.flows.len() || p.dst != self.port_of_flow[flow] {
                    return;
                }
                self.records[flow].t_answer = Some(ctx.now());
                self.records[flow].dest = msg.first_answer_a();
                ctx.trace(format_args!(
                    "step8: E_S {} got DNS answer {:?} for flow {}",
                    self.stack.addr, self.records[flow].dest, flow
                ));
                let Some(dest) = self.records[flow].dest else {
                    return;
                };
                match self.flows[flow].mode {
                    FlowMode::Tcp { .. } => {
                        let mut m =
                            TcpMachine::new(self.port_of_flow[flow], 7001, 1000 + flow as u32);
                        let syn = m.connect(ctx.now());
                        self.tcp.insert(flow, m);
                        let pkt = self.stack.tcp(dest, &syn, vec![]);
                        ctx.trace(format_args!(
                            "E_S {} SYN to {} (flow {})",
                            self.stack.addr, dest, flow
                        ));
                        ctx.send(0, pkt);
                    }
                    FlowMode::Udp { .. } => {
                        // CBR starts immediately — the paper's loss window.
                        self.send_data(ctx, flow, 0);
                    }
                }
            }
            // TCP segment.
            Packet::Tcp {
                ip, seg, payload, ..
            } => {
                let src = ip.src;
                let flow = self.port_of_flow.iter().position(|&p| p == seg.dst_port);
                let Some(flow) = flow else { return };
                let Some(m) = self.tcp.get_mut(&flow) else {
                    return;
                };
                match m.on_segment(ctx.now(), &seg, payload.len()) {
                    TcpEvent::SendAndEstablish(ack) => {
                        self.records[flow].t_established = Some(ctx.now());
                        ctx.trace(format_args!(
                            "E_S {} established flow {} ({} -> {})",
                            self.stack.addr, flow, self.stack.addr, src
                        ));
                        let pkt = self.stack.tcp(src, &ack, vec![]);
                        ctx.send(0, pkt);
                        // Begin the data phase.
                        ctx.set_timer(Ns::ZERO, token(flow, KIND_DATA, 0));
                    }
                    TcpEvent::Send(seg_out) => {
                        let pkt = self.stack.tcp(src, &seg_out, vec![]);
                        ctx.send(0, pkt);
                    }
                    TcpEvent::Established | TcpEvent::None => {}
                }
            }
            _ => {}
        }
    }
}

/// The passive peer: accepts TCP handshakes, counts TCP and UDP payload
/// arrivals per remote host.
pub struct ServerHost {
    stack: IpStack,
    /// Echo received UDP payloads back to the sender (generates return
    /// traffic for the inbound-TE experiments).
    pub echo_udp: bool,
    tcp: BTreeMap<(Ipv4Address, u16), TcpMachine>,
    /// Arrival time of every UDP data packet, in order — the outage
    /// signal of the failure-recovery experiments (E10): the longest
    /// inter-arrival gap brackets the black-hole window.
    pub udp_arrivals: Vec<Ns>,
    /// TCP data segments received.
    pub tcp_data_received: u64,
    /// Establishment times observed at the server.
    pub established: Vec<(Ipv4Address, Ns)>,
    /// Arrival time of the first UDP packet per *destination* EID — the
    /// per-flow outage signal of the availability experiment (E13),
    /// where concurrent flows from one client host differ only in the
    /// destination EID they address.
    pub first_udp_at_dst: BTreeMap<Ipv4Address, Ns>,
    /// UDP data packets received, per destination EID.
    pub udp_received_by_dst: BTreeMap<Ipv4Address, u64>,
}

impl ServerHost {
    /// A server at `addr`.
    pub fn new(addr: Ipv4Address) -> Self {
        Self {
            stack: IpStack::new(addr),
            echo_udp: false,
            tcp: BTreeMap::new(),
            udp_arrivals: Vec::new(),
            tcp_data_received: 0,
            established: Vec::new(),
            first_udp_at_dst: BTreeMap::new(),
            udp_received_by_dst: BTreeMap::new(),
        }
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Total UDP data packets received.
    pub fn total_udp(&self) -> u64 {
        self.udp_arrivals.len() as u64
    }
}

impl Node<Packet> for ServerHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        match pkt {
            Packet::Udp {
                ip,
                ports: p,
                payload,
            } if p.dst == 7001 => {
                let _ = &self.stack; // identity only; replies use the addressed dst
                let (src, dst) = (ip.src, ip.dst);
                self.first_udp_at_dst
                    .entry(dst)
                    .or_insert_with(|| ctx.now());
                *self.udp_received_by_dst.entry(dst).or_insert(0) += 1;
                self.udp_arrivals.push(ctx.now());
                if self.echo_udp {
                    let reply = IpStack::new(dst).udp(p.dst, src, p.src, payload);
                    ctx.send(0, reply);
                }
            }
            Packet::Tcp { ip, seg, payload } => {
                let (src, dst) = (ip.src, ip.dst);
                // The server answers as whichever of its EIDs was
                // addressed (multi-address host), so checksums and the
                // client's flow demux line up.
                let reply_stack = IpStack::new(dst);
                let key = (src, seg.src_port);
                let m = self
                    .tcp
                    .entry(key)
                    .or_insert_with(|| TcpMachine::new(seg.dst_port, seg.src_port, 9000));
                if !payload.is_empty() {
                    self.tcp_data_received += 1;
                }
                match m.on_segment(ctx.now(), &seg, payload.len()) {
                    TcpEvent::Send(out) => {
                        let pkt = reply_stack.tcp(src, &out, vec![]);
                        ctx.send(0, pkt);
                    }
                    TcpEvent::Established => {
                        self.established.push((src, ctx.now()));
                        ctx.trace(format_args!("E_D {dst} established with {src}"));
                    }
                    TcpEvent::SendAndEstablish(out) => {
                        self.established.push((src, ctx.now()));
                        let pkt = reply_stack.tcp(src, &out, vec![]);
                        ctx.send(0, pkt);
                    }
                    TcpEvent::None => {}
                }
            }
            _ => {}
        }
    }

    fn counters(&self, out: &mut Counters) {
        out.add("server.udp_received", self.total_udp());
        out.add("server.tcp_data_received", self.tcp_data_received);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkCfg, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    /// A stub resolver answering every query with a fixed address after a
    /// fixed delay.
    struct StubDns {
        stack: IpStack,
        answer: Ipv4Address,
        delay: Ns,
    }
    impl Node<Packet> for StubDns {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, _p: PortId, pkt: Packet) {
            let Packet::Dns {
                ip,
                ports: p,
                msg: q,
            } = pkt
            else {
                return;
            };
            if p.dst != ports::DNS {
                return;
            }
            let mut r = Message::response_to(&q);
            if let Some(question) = q.question() {
                r.answers.push(lispwire::dnswire::Record::a(
                    question.name.clone(),
                    self.answer,
                    60,
                ));
            }
            let pkt = self.stack.dns(ports::DNS, ip.src, p.src, r);
            ctx.send_after(self.delay, 0, pkt);
        }
    }

    /// client - router - {dns, server}; returns (sim, client, server).
    fn world(mode: FlowMode, dns_delay: Ns) -> (Sim<Packet>, netsim::NodeId, netsim::NodeId) {
        use inet::{Prefix, Router};
        let mut sim: Sim<Packet> = Sim::new(8);
        sim.trace.enable();
        let c_addr = a([100, 0, 0, 5]);
        let s_addr = a([101, 0, 0, 7]);
        let dns_addr = a([10, 0, 0, 53]);
        let client = sim.add_node(
            "client",
            Box::new(TrafficHost::new(
                c_addr,
                dns_addr,
                vec![FlowSpec {
                    start: Ns::ZERO,
                    qname: Name::parse_str("host.d.example").unwrap(),
                    mode,
                }],
            )),
        );
        let server = sim.add_node("server", Box::new(ServerHost::new(s_addr)));
        let dns = sim.add_node(
            "dns",
            Box::new(StubDns {
                stack: IpStack::new(dns_addr),
                answer: s_addr,
                delay: dns_delay,
            }),
        );
        let router = sim.add_node("router", Box::new(Router::new()));
        let (_, pc) = sim.connect(client, router, LinkCfg::wan(Ns::from_ms(10)));
        let (_, ps) = sim.connect(server, router, LinkCfg::wan(Ns::from_ms(10)));
        let (_, pd) = sim.connect(dns, router, LinkCfg::wan(Ns::from_ms(10)));
        {
            let r = sim.node_mut::<Router>(router);
            r.add_route(Prefix::host(c_addr), pc);
            r.add_route(Prefix::host(s_addr), ps);
            r.add_route(Prefix::host(dns_addr), pd);
        }
        sim.schedule_timer(client, Ns::ZERO, TrafficHost::start_token(0));
        (sim, client, server)
    }

    #[test]
    fn full_flow_script_gets_distinct_ports() {
        let flow = FlowSpec {
            start: Ns::ZERO,
            qname: Name::parse_str("host.d.example").unwrap(),
            mode: FlowMode::Udp {
                packets: 1,
                interval: Ns::from_ms(1),
                size: 10,
            },
        };
        assert_eq!(TrafficHost::MAX_FLOWS, 24_536);
        let flows = vec![flow; TrafficHost::MAX_FLOWS];
        let host = TrafficHost::new(a([100, 0, 0, 5]), a([10, 0, 0, 53]), flows);
        let ports = &host.port_of_flow;
        assert_eq!(ports.len(), 24_536);
        assert_eq!((ports[0], ports[24_535]), (41_000, u16::MAX));
        assert!(ports.windows(2).all(|w| w[1] == w[0] + 1), "ports repeat");
    }

    #[test]
    fn tcp_flow_full_sequence() {
        let (mut sim, client, server) = world(
            FlowMode::Tcp {
                packets: 3,
                interval: Ns::from_ms(1),
                size: 100,
            },
            Ns::from_ms(50),
        );
        sim.run();
        let rec = sim.node_ref::<TrafficHost>(client).records[0].clone();
        // T_DNS = RTT to resolver (40 ms) + 50 ms stub delay = 90 ms.
        let tdns = rec.dns_time().unwrap();
        assert!(
            tdns >= Ns::from_ms(90) && tdns < Ns::from_ms(95),
            "tdns {tdns}"
        );
        // Setup = T_DNS + 2 OWD(c,s) = +40 ms.
        let setup = rec.setup_time().unwrap();
        assert!(setup >= tdns + Ns::from_ms(40), "setup {setup}");
        assert!(setup < tdns + Ns::from_ms(45), "setup {setup}");
        assert_eq!(rec.data_sent, 3);
        let srv = sim.node_ref::<ServerHost>(server);
        assert_eq!(srv.tcp_data_received, 3);
        assert_eq!(srv.established.len(), 1);
    }

    #[test]
    fn udp_flow_starts_at_answer() {
        let (mut sim, client, server) = world(
            FlowMode::Udp {
                packets: 5,
                interval: Ns::from_ms(2),
                size: 200,
            },
            Ns::from_ms(50),
        );
        sim.run();
        let rec = sim.node_ref::<TrafficHost>(client).records[0].clone();
        assert_eq!(rec.data_sent, 5);
        assert!(rec.t_established.is_none());
        let srv = sim.node_ref::<ServerHost>(server);
        assert_eq!(srv.total_udp(), 5);
        // First packet lands one OWD after the answer.
        let t_ans = rec.t_answer.unwrap();
        let first = srv.udp_arrivals[0];
        assert!(first >= t_ans + Ns::from_ms(20) && first < t_ans + Ns::from_ms(25));
    }
}

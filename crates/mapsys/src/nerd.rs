//! NERD: a Not-so-novel EID-to-RLOC Database (draft-lear-lisp-nerd).
//!
//! A central authority holds the complete mapping database and pushes it
//! to every subscriber xTR. After synchronisation an ITR never misses —
//! NERD's strength — but every router carries global state and an update
//! is visible only after the next push completes (its weaknesses,
//! quantified in experiment E8).

use crate::api::MappingDb;
use inet::stack::IpStack;
use lispwire::lispctl::{DbPush, MapRecord};
use lispwire::packet::{CtlMsg, Packet};
use lispwire::{ports, Ipv4Address};
use netsim::{Ctx, Node, Ns, ScheduledUpdates};
use std::sync::Arc;

/// The central NERD authority node.
pub struct NerdAuthority {
    stack: IpStack,
    records: Vec<MapRecord>,
    subscribers: Vec<Ipv4Address>,
    chunk_records: usize,
    version: u32,
    /// Timed database updates (dynamics; see
    /// [`NerdAuthority::schedule_update`]).
    scheduled_updates: ScheduledUpdates<MapRecord>,
    /// Standby twin: keeps its database warm from the same update
    /// stream but never pushes until a takeover [`TOKEN_PUSH`] timer
    /// promotes it (replica failover, DESIGN.md §13).
    standby: bool,
    /// Push batches transmitted (chunks × subscribers).
    pub chunks_sent: u64,
    /// Bytes of database pushed in total.
    pub bytes_pushed: u64,
    /// Completed full-database push rounds.
    pub push_rounds: u64,
    /// Scheduled updates applied so far.
    pub updates_applied: u64,
}

/// Timer token: start (or restart) a full push round.
pub const TOKEN_PUSH: u64 = 0x9e4d;

impl NerdAuthority {
    /// An authority at `addr` seeded from the shared database, pushing to
    /// `subscribers`.
    pub fn new(addr: Ipv4Address, db: &MappingDb, subscribers: Vec<Ipv4Address>) -> Self {
        Self {
            stack: IpStack::new(addr),
            records: db.records(),
            subscribers,
            chunk_records: 64,
            version: 1,
            scheduled_updates: ScheduledUpdates::new(),
            standby: false,
            chunks_sent: 0,
            bytes_pushed: 0,
            push_rounds: 0,
            updates_applied: 0,
        }
    }

    /// Apply `record` to the database at absolute simulation time `at`
    /// and immediately re-push the **whole** database to every
    /// subscriber — NERD's push-update propagation model, whose cost is
    /// the full database times the subscriber count (DESIGN.md §7).
    pub fn schedule_update(&mut self, at: Ns, record: MapRecord) {
        self.scheduled_updates.push(at, record);
    }

    /// Override the records-per-chunk granularity.
    pub fn with_chunk_records(mut self, n: usize) -> Self {
        self.chunk_records = n.max(1);
        self
    }

    /// Mark this authority as a warm standby: it applies the update
    /// stream silently and skips the boot push; the first [`TOKEN_PUSH`]
    /// timer (the takeover, scheduled by the dynamics subsystem at
    /// detection time) promotes it to active.
    pub fn standby(mut self) -> Self {
        self.standby = true;
        self
    }

    /// Whether this authority is still a passive standby.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv4Address {
        self.stack.addr
    }

    /// Current database version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Replace/extend the database (an "update"), bumping the version.
    /// The new data reaches subscribers only at the next push round.
    pub fn update(&mut self, record: MapRecord) {
        // Replace a record for the same prefix if present.
        if let Some(existing) = self
            .records
            .iter_mut()
            .find(|r| r.eid_prefix == record.eid_prefix && r.prefix_len == record.prefix_len)
        {
            *existing = record;
        } else {
            self.records.push(record);
        }
        self.version += 1;
    }

    /// Execute one full push round immediately.
    pub fn push_all(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // Each chunk is copied once per round; every subscriber's packet
        // shares it.
        let chunks: Vec<Arc<[MapRecord]>> = self
            .records
            .chunks(self.chunk_records)
            .map(Arc::from)
            .collect();
        let total = chunks.len().max(1) as u16;
        for &sub in &self.subscribers {
            for (i, chunk) in chunks.iter().enumerate() {
                let push = DbPush {
                    version: self.version,
                    chunk: i as u16,
                    total_chunks: total,
                    records: Arc::clone(chunk),
                };
                // Computed, not materialized — identical to the encoded
                // length (pinned by the codec wire_len pairs).
                self.bytes_pushed += push.wire_len() as u64;
                self.chunks_sent += 1;
                let pkt = self.stack.ctl(
                    ports::LISP_CONTROL,
                    sub,
                    ports::LISP_CONTROL,
                    CtlMsg::DbPush(push),
                );
                ctx.send(0, pkt);
            }
        }
        self.push_rounds += 1;
        ctx.trace(format_args!(
            "nerd v{} pushed {} records to {} subscribers",
            self.version,
            self.records.len(),
            self.subscribers.len()
        ));
    }

    /// Database size in records.
    pub fn db_len(&self) -> usize {
        self.records.len()
    }
}

impl Node<Packet> for NerdAuthority {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // Initial synchronisation shortly after boot (standbys stay
        // silent until a takeover promotes them).
        if !self.standby {
            ctx.set_timer(Ns::from_us(10), TOKEN_PUSH);
        }
        self.scheduled_updates.arm(ctx);
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_, Packet>) {
        // The database is stable storage (NERD's model: a signed file
        // re-read at boot), so records and version survive; there is no
        // connection state to lose.
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Packet>) {
        // Boot behaviour again: actives re-push the (persistent)
        // database to every subscriber, and the crash-dropped update
        // timers are re-armed for updates still in the future.
        if !self.standby {
            ctx.set_timer(Ns::from_us(10), TOKEN_PUSH);
        }
        self.scheduled_updates.rearm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, token: u64) {
        if token == TOKEN_PUSH {
            // A takeover push promotes a standby to active.
            self.standby = false;
            self.push_all(ctx);
        } else if let Some(record) = self.scheduled_updates.get(token) {
            let record = record.clone();
            self.update(record);
            self.updates_applied += 1;
            if !self.standby {
                self.push_all(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SiteEntry;
    use inet::{Prefix, Router};
    use lispdp::{CpMode, Xtr, XtrConfig};
    use lispwire::lispctl::Locator;
    use netsim::{LinkCfg, NodeId, PortId, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    /// Passes packets between its two ports and keeps a copy of each
    /// one that enters on port 0.
    struct Tap {
        seen: Vec<Packet>,
    }
    impl Node<Packet> for Tap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, pkt: Packet) {
            if port == 0 {
                self.seen.push(pkt.clone());
            }
            ctx.send(port ^ 1, pkt);
        }
    }

    /// A NERD authority holding two /8 records, one per chunk, pushing
    /// through a [`Tap`] and a core router to `subscribers` xTRs at
    /// 10.0.0.1, 10.0.0.2, …. Returns `(sim, xtrs, authority, tap)`.
    fn world(subscribers: u8) -> (Sim<Packet>, Vec<NodeId>, NodeId, NodeId) {
        let mut sim: Sim<Packet> = Sim::new(6);
        sim.trace.enable();
        let eid_space = vec![Prefix::new(a([100, 0, 0, 0]), 6)];
        let mut db = MappingDb::new();
        db.register(SiteEntry::single(
            Prefix::new(a([101, 0, 0, 0]), 8),
            a([12, 0, 0, 1]),
            1440,
        ));
        db.register(SiteEntry::single(
            Prefix::new(a([102, 0, 0, 0]), 8),
            a([13, 0, 0, 1]),
            1440,
        ));

        let rlocs: Vec<Ipv4Address> = (1..=subscribers).map(|i| a([10, 0, 0, i])).collect();
        let auth = sim.add_node(
            "nerd",
            Box::new(NerdAuthority::new(a([8, 0, 0, 2]), &db, rlocs.clone()).with_chunk_records(1)),
        );
        let tap = sim.add_node("tap", Box::new(Tap { seen: Vec::new() }));
        let core = sim.add_node("core", Box::new(Router::new()));
        // xTR site ports' placeholder (unused).
        let idle = sim.add_node("site", Box::new(netsim::testkit::Tap::<Packet>::sink()));
        sim.connect(auth, tap, LinkCfg::lan());
        let (_, pa) = sim.connect(tap, core, LinkCfg::wan(Ns::from_ms(20)));
        sim.node_mut::<Router>(core)
            .add_route(Prefix::new(a([8, 0, 0, 0]), 8), pa);
        let mut xtrs = Vec::new();
        for rloc in rlocs {
            let cfg = XtrConfig::new(
                rloc,
                Prefix::new(a([100, 0, 0, 0]), 8),
                eid_space.clone(),
                CpMode::PushDb,
            );
            let xtr = sim.add_node(&format!("xtr-{rloc}"), Box::new(Xtr::new(cfg)));
            sim.connect(idle, xtr, LinkCfg::lan()); // xTR port 0: site
            let (_, px) = sim.connect(xtr, core, LinkCfg::wan(Ns::from_ms(20)));
            sim.node_mut::<Router>(core)
                .add_route(Prefix::new(rloc, 32), px);
            xtrs.push(xtr);
        }
        (sim, xtrs, auth, tap)
    }

    fn build() -> (Sim<Packet>, NodeId, NodeId) {
        let (sim, xtrs, auth, _) = world(1);
        (sim, xtrs[0], auth)
    }

    #[test]
    fn boot_push_populates_subscriber() {
        let (mut sim, xtr, auth) = build();
        sim.run();
        let x = sim.node_mut::<Xtr>(xtr);
        assert_eq!(x.stats.db_records_installed, 2);
        assert_eq!(x.cache.len(), 2);
        let n = sim.node_ref::<NerdAuthority>(auth);
        assert_eq!(n.push_rounds, 1);
        assert_eq!(n.chunks_sent, 2); // 2 records, chunk size 1, 1 subscriber
        assert!(n.bytes_pushed > 0);
    }

    #[test]
    fn push_round_shares_each_chunk() {
        let (mut sim, xtrs, auth, tap) = world(3);
        sim.run();
        let n = sim.node_ref::<NerdAuthority>(auth);
        assert_eq!(n.push_rounds, 1);
        // 2 chunks × 3 subscribers, each 12 header + 16 record bytes.
        assert_eq!((n.chunks_sent, n.bytes_pushed), (6, 6 * 28));
        for &x in &xtrs {
            assert_eq!(sim.node_ref::<Xtr>(x).stats.db_records_installed, 2);
        }
        let pushes: Vec<&DbPush> = sim
            .node_ref::<Tap>(tap)
            .seen
            .iter()
            .map(|pkt| match pkt {
                Packet::LispCtl {
                    msg: CtlMsg::DbPush(push),
                    ..
                } => push,
                other => panic!("not a database push: {other:?}"),
            })
            .collect();
        let wire: usize = pushes
            .iter()
            .map(|&p| CtlMsg::DbPush(p.clone()).to_bytes().len())
            .sum();
        assert_eq!(wire as u64, n.bytes_pushed);
        let chunk =
            |i: u16| -> Vec<&DbPush> { pushes.iter().copied().filter(|p| p.chunk == i).collect() };
        let (first, second) = (chunk(0), chunk(1));
        assert_eq!((first.len(), second.len()), (3, 3));
        for same in [&first, &second] {
            assert!(same
                .iter()
                .all(|p| Arc::ptr_eq(&p.records, &same[0].records)));
        }
        assert!(!Arc::ptr_eq(&first[0].records, &second[0].records));
    }

    #[test]
    fn update_propagates_on_next_round() {
        let (mut sim, xtr, auth) = build();
        sim.run();
        // Update: site 101/8 moves to a new RLOC.
        {
            let n = sim.node_mut::<NerdAuthority>(auth);
            n.update(MapRecord {
                eid_prefix: a([101, 0, 0, 0]),
                prefix_len: 8,
                ttl_minutes: 1440,
                locators: vec![Locator::new(a([14, 0, 0, 9]), 1, 100)],
            });
            assert_eq!(n.version(), 2);
            assert_eq!(n.db_len(), 2);
        }
        // Subscriber still has the old locator until the next push.
        {
            let x = sim.node_mut::<Xtr>(xtr);
            let now = netsim::Ns::from_secs(1);
            let rec = x.cache.lookup(a([101, 0, 0, 7]), now).unwrap();
            assert_eq!(rec.locators[0].rloc, a([12, 0, 0, 1]));
        }
        // Trigger the next round.
        sim.schedule_timer(auth, Ns::ZERO, TOKEN_PUSH);
        sim.run();
        let now = sim.now() + Ns::from_secs(1);
        let x = sim.node_mut::<Xtr>(xtr);
        let rec = x.cache.lookup(a([101, 0, 0, 7]), now).unwrap();
        assert_eq!(rec.locators[0].rloc, a([14, 0, 0, 9]));
    }
}

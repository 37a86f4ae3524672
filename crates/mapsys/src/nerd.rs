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
use std::any::Any;

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
        // One record clone per (subscriber, chunk) packet and nothing
        // else: the fields below are borrowed disjointly.
        let total = self.records.chunks(self.chunk_records).len().max(1) as u16;
        for &sub in &self.subscribers {
            for (i, chunk) in self.records.chunks(self.chunk_records).enumerate() {
                let push = DbPush {
                    version: self.version,
                    chunk: i as u16,
                    total_chunks: total,
                    records: chunk.to_vec(),
                };
                // Computed, not materialized — identical to the legacy
                // to_bytes().len() (pinned by the codec wire_len pairs).
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
    use crate::api::SiteEntry;
    use inet::{Prefix, Router};
    use lispdp::{CpMode, Xtr, XtrConfig};
    use lispwire::lispctl::Locator;
    use netsim::{LinkCfg, Sim};

    fn a(o: [u8; 4]) -> Ipv4Address {
        Ipv4Address(o)
    }

    fn build() -> (Sim<Packet>, netsim::NodeId, netsim::NodeId) {
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

        let cfg = XtrConfig::new(
            a([10, 0, 0, 1]),
            Prefix::new(a([100, 0, 0, 0]), 8),
            eid_space,
            CpMode::PushDb,
        );
        let xtr = sim.add_node("xtr", Box::new(Xtr::new(cfg)));
        let auth = sim.add_node(
            "nerd",
            Box::new(
                NerdAuthority::new(a([8, 0, 0, 2]), &db, vec![a([10, 0, 0, 1])])
                    .with_chunk_records(1),
            ),
        );
        let core = sim.add_node("core", Box::new(Router::new()));
        // xTR site port placeholder (unused), then WAN to core.
        struct Idle;
        impl Node<Packet> for Idle {
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
            fn as_any_ref(&self) -> &dyn Any {
                self
            }
        }
        let idle = sim.add_node("site", Box::new(Idle));
        sim.connect(idle, xtr, LinkCfg::lan());
        let (_, px) = sim.connect(xtr, core, LinkCfg::wan(Ns::from_ms(20)));
        let (_, pa) = sim.connect(auth, core, LinkCfg::wan(Ns::from_ms(20)));
        {
            let r = sim.node_mut::<Router>(core);
            r.add_route(Prefix::new(a([10, 0, 0, 0]), 8), px);
            r.add_route(Prefix::new(a([8, 0, 0, 0]), 8), pa);
        }
        (sim, xtr, auth)
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

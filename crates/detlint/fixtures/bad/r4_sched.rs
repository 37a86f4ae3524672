//! R4 fixture: unchecked arithmetic in schedule-call time arguments
//! (lines 5, 7, 9, 11, 13, 15).

fn schedule(ctx: &mut Ctx, sim: &mut Sim, base: Ns, jitter: Ns, ms: u64) {
    ctx.set_timer(base + jitter, 1);
    // `-` in the time argument is just as unsafe:
    ctx.set_timer(base - jitter, 2);
    // `as` casts hide truncation; schedule_timer's time is argument 1:
    sim.schedule_timer(node, Ns(ms as u64), 3);
    // schedule_call's time is argument 1, after its turbofish:
    sim.schedule_call::<Fragile>(node, base + jitter, |n, _| n.tick());
    // send_after's time is argument 0; the port and packet follow it:
    ctx.send_after(base + jitter, 0, pkt);
    // schedule_node_admin's time is argument 0:
    sim.schedule_node_admin(base + jitter, node, false);
}

fn fine(ctx: &mut Ctx, sim: &mut Sim, base: Ns, jitter: Ns, token: u64) {
    // Arithmetic in the *token* argument is allowed:
    ctx.set_timer(base, token + 1);
    ctx.set_timer(base.saturating_add(jitter), 4);
    sim.schedule_timer(node, base.saturating_sub(jitter), token + 2);
    sim.schedule_link_admin(base, 0, true);
    sim.schedule_node_admin(base.saturating_add(jitter), node, true);
    ctx.send_after(base.saturating_add(jitter), port + 1, pkt);
}

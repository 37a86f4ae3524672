//! Multi-site scale: the scenario the declarative spec layer unlocks.
//! One client site talks to N destination sites with Zipf cross-site
//! popularity; every control plane is compared as N grows (the E9
//! experiment, shown here at a glance).
//!
//! Watch NERD's pushed bytes explode with the site count while the PCE
//! control plane's state keeps tracking active flows only, and the pull
//! systems' resolution latency hold packets (or drop them) at every
//! cold site.
//!
//! ```sh
//! cargo run --release --example scale_sites
//! ```

use pcelisp::experiments::e9_scale::{run_scale, HOSTS_PER_SITE};
use pcelisp::prelude::*;

fn main() {
    // The full sweep is `exp_all --only e9`; here a
    // compact slice: three control planes at N ∈ {2, 8, 32}.
    let mut table = Section::new(
        "scale_slice",
        "Scale slice: N destination sites, Zipf(1.0) cross-site popularity",
        &[
            "cp",
            "n_sites",
            "delivered/sent",
            "miss_drops",
            "mean_lat_ms",
            "ctl_msgs",
            "push_bytes",
        ],
    );
    for n in [2usize, 8, 32] {
        for cp in [CpKind::LispQueue, CpKind::Nerd, CpKind::Pce] {
            let r = run_scale(cp, n, HOSTS_PER_SITE, 1);
            table.row(vec![
                Cell::str(cp.label()),
                Cell::usize(n),
                Cell::str(format!("{}/{}", r.delivered, r.sent())),
                Cell::u64(r.miss_drops),
                Cell::f64(r.mean_queue_delay_ms(), 1),
                Cell::u64(r.tally.control_msgs),
                Cell::u64(r.tally.push_bytes),
            ]);
        }
    }
    print!("{}", table.render());

    println!();
    println!(
        "Declaring a custom world is one call away — e.g. 12 sites with 8\n\
         hosts each: ScenarioSpec::multi_site(CpKind::Pce, 12, 8), then\n\
         tweak any SiteSpec/ProviderSpec field before .build(seed)."
    );

    // And the spec is open: hand-build an asymmetric world where one
    // destination site sits far away (150 ms provider links).
    let mut spec = ScenarioSpec::multi_site(CpKind::Pce, 3, 4);
    for p in &mut spec.topology.sites[3].providers {
        p.owd = Ns::from_ms(150);
    }
    let mut world = spec.build(7);
    world.schedule_all_flows();
    let horizon = world.last_flow_start() + Ns::from_secs(30);
    world.sim.run_until(horizon);
    println!();
    println!(
        "Asymmetric world: {} flows resolved, {} packets delivered across\n\
         {} destination sites (site D2 at 150 ms OWD).",
        world
            .records()
            .iter()
            .filter(|r| r.t_answer.is_some())
            .count(),
        world.server_udp_received(),
        world.server_sites().count(),
    );
}

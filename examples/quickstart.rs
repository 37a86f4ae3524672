//! Quickstart: declare the paper's Fig. 1 world with the PCE control
//! plane via [`ScenarioSpec::fig1`], run one TCP flow from `E_S` to
//! `host-0.d.example`, and print the full step-by-step control-plane
//! trace plus the headline timings.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pcelisp::experiments::e1_fig1::run_fig1_trace;
use pcelisp::prelude::*;

fn main() {
    // The one-liner most tools use: the registered E1 experiment.
    let result = run_fig1_trace(0);

    println!("── Fig. 1 control-plane trace ───────────────────────────────────────");
    // Show only the interesting control-plane lines, in order.
    for line in result.trace.lines() {
        if line.contains("step")
            || line.contains("resolver asks")
            || line.contains("IPC")
            || line.contains("installed flow")
            || line.contains("decap")
            || line.contains("reverse-sync")
            || line.contains("established")
        {
            println!("{line}");
        }
    }
    println!();
    print!("{}", result.section.render());
    println!();
    println!(
        "The mapping was installed at every ITR before the DNS answer reached \
         the end-host: {} — the paper's claims C1 and C2 in one run.",
        result.section.rows[8][1].text
    );

    // The same world, built by hand from the declarative spec — the
    // starting point for describing *any* other world (see
    // ScenarioSpec::multi_site and the scale_sites example).
    let mut world = ScenarioSpec::fig1(CpKind::Pce).build(1);
    world.start_flow(0);
    world.sim.run_until(Ns::from_secs(5));
    let rec = &world.records()[0];
    println!();
    println!(
        "Spec-built world: site S has providers {:?}, T_DNS = {:.1} ms.",
        world.site("S").provider_names,
        rec.dns_time().map(|t| t.as_ms_f64()).unwrap_or(f64::NAN)
    );
}

//! Compare every control plane on the two headline metrics: packets lost
//! or delayed during mapping resolution (E2) and TCP connection-setup
//! latency (E4), at one representative inter-domain delay.
//!
//! ```sh
//! cargo run --release --example cp_comparison
//! ```

use pcelisp::experiments::{cross, e2_drops, e4_tcp_setup, Grid};
use pcelisp::prelude::*;

fn main() {
    // The E2 and E4 grids, cut down to one representative delay.
    let owd = [Ns::from_ms(30)];
    let drops = Grid {
        cells: cross(&owd, &e2_drops::VARIANTS),
        ..e2_drops::grid()
    };
    print!("{}", drops.section(1, 0).render());
    println!();

    let setup = Grid {
        cells: cross(&owd, &e4_tcp_setup::VARIANTS),
        ..e4_tcp_setup::grid()
    };
    print!("{}", setup.section(1, 0).render());
    println!();
    println!(
        "Shape check: PCE loses nothing and matches the no-LISP setup time;\n\
         vanilla LISP pays T_map on the handshake (queue) or fails outright (drop).\n\
         The same rows are machine-readable: `exp_all --only e2,e4 --json out.json`."
    );
}

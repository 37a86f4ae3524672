//! The shared cell/sweep abstraction behind every grid-shaped
//! experiment (DESIGN.md §8).
//!
//! E2/E3/E4/E5/E6/E8/E9/E10/E11 all have the same shape: a grid of
//! independent `run_*_cell(params…, seed)` calls, each building and
//! running its own world, reassembled into rows in grid order. A
//! [`Sweep`] declares that cell list once and gets, for free:
//!
//! * **parallel execution** — cells fan out across a
//!   [`netsim::par::par_map`] worker pool; results come back in input
//!   order, so a report is byte-identical at any job count;
//! * **progress logging with per-cell wall-clock** — one stderr line
//!   per finished cell when [`progress_enabled`] (the `PCELISP_PROGRESS`
//!   environment variable) is on; completion order may interleave under
//!   parallelism, which is why each line carries its own cell label.
//!
//! The `jobs` knob uses `0` to mean *auto* (the machine's available
//! parallelism); any other value is an explicit worker count. `jobs = 1`
//! runs inline on the caller thread with no pool at all, so existing
//! serial entry points pay nothing.

use netsim::par::{available_jobs, par_map};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant; // detlint: allow(R2) -- wall-clock feeds only the PCELISP_PROGRESS stderr log, never a report or trace

/// Resolve a `jobs` knob to a concrete worker count: `0` means auto —
/// [`available_jobs`].
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        available_jobs()
    }
}

/// Whether per-cell progress lines go to stderr (the `PCELISP_PROGRESS`
/// environment variable; off by default so test and golden runs stay
/// quiet).
pub fn progress_enabled() -> bool {
    std::env::var_os("PCELISP_PROGRESS").is_some_and(|v| v != "0" && !v.is_empty())
}

/// A grid-shaped experiment: one experiment key plus its full cell list,
/// declared up front so execution strategy is the sweep's problem, not
/// the experiment's.
pub struct Sweep<C: Send> {
    exp: &'static str,
    cells: Vec<C>,
}

impl<C: Send> Sweep<C> {
    /// A sweep of `cells` belonging to experiment `exp` (`"e2"`, …).
    pub fn new(exp: &'static str, cells: Vec<C>) -> Self {
        Self { exp, cells }
    }

    /// Run every cell on up to [`resolve_jobs`]`(jobs)` workers and
    /// return the results in cell order. `label` names a cell for the
    /// progress log; `run_cell` must be a pure function of the cell (the
    /// determinism contract — DESIGN.md §2 and §8).
    pub fn run<R, L, F>(self, jobs: usize, label: L, run_cell: F) -> Vec<R>
    where
        R: Send,
        L: Fn(&C) -> String + Sync,
        F: Fn(&C) -> R + Sync,
    {
        let jobs = resolve_jobs(jobs);
        let total = self.cells.len();
        let progress = progress_enabled();
        let done = AtomicUsize::new(0);
        let exp = self.exp;
        par_map(jobs, self.cells, |cell| {
            // detlint: allow(R2) -- per-cell wall-clock goes to the stderr progress line only; cell results are pure functions of the cell
            let started = Instant::now();
            let result = run_cell(&cell);
            if progress {
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{exp}] {finished}/{total} {} ({:.1} ms)",
                    label(&cell),
                    started.elapsed().as_secs_f64() * 1e3
                );
            }
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_cell_order_under_parallelism() {
        let cells: Vec<u64> = (0..40).collect();
        let serial = Sweep::new("t", cells.clone()).run(1, |c| c.to_string(), |&c| c * 7);
        let parallel = Sweep::new("t", cells).run(8, |c| c.to_string(), |&c| c * 7);
        assert_eq!(serial, parallel);
        assert_eq!(serial[13], 91);
    }

    #[test]
    fn explicit_jobs_beats_env() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
    }

    #[test]
    fn auto_jobs_is_positive() {
        assert!(resolve_jobs(0) >= 1);
    }
}

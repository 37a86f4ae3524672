//! Experiments as data (DESIGN.md §6 and §8).
//!
//! Most experiments are a grid of independent cells: each cell builds
//! and runs its own world and projects it to one table row. A [`Grid`]
//! declares that once — the section's key, title and columns, the cell
//! list, and one `fn(&cell, seed) -> row` — and [`Grid::section`] fans
//! the cells across a [`netsim::par::par_map`] worker pool. Rows come
//! back in cell order, so a section is byte-identical at any job count
//! as long as the row function is a pure function of its cell and seed
//! (DESIGN.md §2).
//!
//! A grid is its own registry entry. An experiment that adds a second
//! section to a grid, or runs one hand-written world, is a [`Sections`]
//! entry instead: a name, a title and a function to its sections.
//!
//! The `jobs` knob uses `0` to mean *auto* (the machine's available
//! parallelism, [`resolve_jobs`]); any other value is an explicit worker
//! count, and `jobs = 1` runs every cell inline on the caller's thread.

use crate::experiments::report::{Cell, ExpReport, Experiment, Section};
use netsim::par::{available_jobs, par_map};

/// Resolve a `jobs` knob to a concrete worker count: `0` means auto —
/// [`available_jobs`].
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        available_jobs()
    }
}

/// One result section declared as data: its cells and the function that
/// runs a cell and projects it to a row.
pub struct Grid<C> {
    /// Registry key of the experiment (`"e2"`, …).
    pub name: &'static str,
    /// One-line experiment title for `--list`.
    pub title: &'static str,
    /// Section key (`"drops"`, …).
    pub key: &'static str,
    /// Section title (the table's `== … ==` line).
    pub heading: &'static str,
    /// Column names.
    pub columns: &'static [&'static str],
    /// The cells, in row order. Declare cheapest first (size axes
    /// ascending): the pool starts the last-declared cells first, so
    /// the costliest cells never wait at the end of a sweep.
    pub cells: Vec<C>,
    /// Run one cell at a seed and return its row.
    pub row: fn(&C, u64) -> Vec<Cell>,
}

impl<C: Sync> Grid<C> {
    /// Run every cell on up to [`resolve_jobs`]`(jobs)` workers and
    /// return the section, rows in cell order.
    pub fn section(&self, seed: u64, jobs: usize) -> Section {
        let mut section = Section::new(self.key, self.heading, self.columns);
        section.rows = par_map(resolve_jobs(jobs), self.cells.iter().collect(), |cell| {
            (self.row)(cell, seed)
        });
        section
    }
}

impl<C: Sync> Experiment for Grid<C> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        ExpReport::new(self.name, self.title).with_section(self.section(seed, jobs))
    }
}

/// A registry entry that is not a single grid: a name, a title and the
/// function that produces its sections at `(seed, jobs)`.
pub struct Sections {
    /// Registry key (`"e1"`, …).
    pub name: &'static str,
    /// One-line experiment title for `--list`.
    pub title: &'static str,
    /// The sections of one run, in report order.
    pub run: fn(u64, usize) -> Vec<Section>,
}

impl Experiment for Sections {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn run(&self, seed: u64, jobs: usize) -> ExpReport {
        let mut report = ExpReport::new(self.name, self.title);
        report.sections = (self.run)(seed, jobs);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn squares() -> Grid<u64> {
        Grid {
            name: "t",
            title: "squares",
            key: "sq",
            heading: "squares",
            columns: &["n", "n^2"],
            cells: (0..40).collect(),
            row: |&n, seed| vec![Cell::u64(n), Cell::u64(n * n + seed)],
        }
    }

    #[test]
    fn grid_preserves_cell_order_under_parallelism() {
        let serial = squares().run(1, 1).to_json();
        assert_eq!(serial, squares().run(1, 8).to_json());
        assert_eq!(squares().section(1, 8).num(13, "n^2"), Some(170.0));
    }

    /// Start order of each cell of `the_last_declared_cells_start_first`.
    static STARTED: [AtomicUsize; 40] = [const { AtomicUsize::new(usize::MAX) }; 40];
    static STARTS: AtomicUsize = AtomicUsize::new(0);
    /// The first two cells started meet here, so neither thread can
    /// start a third cell before the other has started its first.
    static FIRST_TWO: Barrier = Barrier::new(2);

    #[test]
    fn the_last_declared_cells_start_first() {
        let grid = Grid {
            row: |&n, _| {
                let start = STARTS.fetch_add(1, Ordering::SeqCst);
                STARTED[n as usize].store(start, Ordering::SeqCst);
                if start < 2 {
                    FIRST_TWO.wait();
                }
                vec![Cell::u64(n)]
            },
            ..squares()
        };
        grid.section(1, 2);
        let order = |n: usize| STARTED[n].load(Ordering::SeqCst);
        let mut first_two = [order(38), order(39)];
        first_two.sort_unstable();
        assert_eq!(first_two, [0, 1], "cells 38 and 39 start first");
    }

    #[test]
    fn explicit_jobs_are_kept() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
    }

    #[test]
    fn auto_jobs_is_positive() {
        assert!(resolve_jobs(0) >= 1);
    }
}

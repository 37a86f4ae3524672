//! In-memory span recorder for the traced run. Spans are opened and
//! closed around calls into product code, from outside; nothing in the
//! product is instrumented. A disabled tracer records nothing, so the
//! untraced run executes the same harness code minus the bookkeeping.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: u32,
    /// Allocations and bytes requested while the span was open,
    /// children included.
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    iter: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            iter: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans down to `depth` (after a panic unwound past them).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let (allocs, bytes) = alloc::counted();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent,
            iter: self.iter,
            allocs,
            bytes,
        });
        // Stamp the clock last so the bookkeeping above lands in the parent.
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.last_mut().expect("just pushed").start_ns = now;
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::counted();
        let id = self.open.pop().expect("close without open");
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of root-span time that no leaf span covers: Σ self time of
/// spans that have children ÷ Σ root durations.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let own = self_times_ns(spans);
    let uncovered: u64 = (0..spans.len())
        .filter(|&i| has_child[i])
        .map(|i| own[i])
        .sum();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    if roots == 0 {
        0.0
    } else {
        uncovered as f64 / roots as f64
    }
}

/// Time and allocations of one phase name, summed over an iteration's cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// One iteration of the span tree iteration → cell → phase, flattened.
#[derive(Debug, Default)]
pub struct IterSummary {
    pub wall_ns: u64,
    /// Phase name (`build`, `run`, …) → totals over all cells.
    pub phases: BTreeMap<String, PhaseTotal>,
    /// Cell name → duration of its `run` phase.
    pub cell_run_ns: BTreeMap<String, u64>,
}

impl IterSummary {
    pub fn phase(&self, name: &str) -> PhaseTotal {
        self.phases.get(name).copied().unwrap_or_default()
    }
}

/// Summarise each root span. Relies on spans being stored in open order,
/// so a parent always precedes its children.
pub fn summarise(spans: &[Span]) -> Vec<IterSummary> {
    let mut out: Vec<IterSummary> = Vec::new();
    let mut slot = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let Some(cell) = s.parent else {
            slot[i] = out.len();
            out.push(IterSummary {
                wall_ns: s.duration_ns(),
                ..IterSummary::default()
            });
            continue;
        };
        let Some(root) = spans[cell].parent else {
            continue; // a cell: its phases carry the time
        };
        let sum = &mut out[slot[root]];
        let total = sum.phases.entry(s.name.clone()).or_default();
        total.ns += s.duration_ns();
        total.allocs += s.allocs;
        total.bytes += s.bytes;
        if s.name == "run" {
            sum.cell_run_ns
                .insert(spans[cell].name.clone(), s.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            iter: 0,
            allocs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("iteration", 0, 1000, None),
            span("cell", 10, 900, Some(0)),
            span("build", 20, 120, Some(1)),
            span("run", 120, 880, Some(1)),
        ];
        // iteration: 1000 − 890; cell: 890 − (100 + 760); leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![110, 30, 100, 760]);
        assert!((unattributed_share(&spans) - 0.14).abs() < 1e-12);

        let sums = summarise(&spans);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].wall_ns, 1000);
        assert_eq!(sums[0].phase("build").ns, 100);
        assert_eq!(sums[0].phase("absent"), PhaseTotal::default());
        assert_eq!(sums[0].cell_run_ns.get("cell"), Some(&760));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("a");
        t.close();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn enabled_tracer_nests() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        t.open("outer");
        t.open("inner");
        t.close();
        t.close();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].iter, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
    }
}

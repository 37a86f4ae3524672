//! The unified experiment interface: [`Experiment`] (name + run) and
//! [`ExpReport`] (typed rows + printable tables + JSON).
//!
//! Every experiment produces an `ExpReport` made of [`Section`]s. A
//! section is a titled grid whose cells carry **both** the exact table
//! text (so renderings stay byte-identical to the historical tables)
//! and a typed [`Value`] (so JSON emission keeps numbers as numbers).
//! A section renders itself as a column-aligned text table.

use std::fmt::Write as _;

/// A typed cell value, used for JSON serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float (emitted raw, full precision).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// Missing / not applicable.
    Null,
}

/// One table cell: the rendered text plus the typed value behind it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Exact text shown in the table rendering.
    pub text: String,
    /// Typed value for JSON.
    pub value: Value,
}

impl Cell {
    /// A string cell.
    pub fn str(s: impl Into<String>) -> Self {
        let text = s.into();
        Self {
            value: Value::Str(text.clone()),
            text,
        }
    }

    /// An unsigned-integer cell.
    pub fn u64(v: u64) -> Self {
        Self {
            text: v.to_string(),
            value: Value::UInt(v),
        }
    }

    /// A `usize` cell.
    pub fn usize(v: usize) -> Self {
        Self::u64(v as u64)
    }

    /// A float cell rendered with `prec` decimals.
    pub fn f64(v: f64, prec: usize) -> Self {
        Self {
            text: format!("{v:.prec$}"),
            value: Value::Float(v),
        }
    }

    /// An optional float: `None` renders as `placeholder` and
    /// serializes as JSON `null`.
    pub fn opt_f64(v: Option<f64>, prec: usize, placeholder: &str) -> Self {
        match v {
            Some(v) => Self::f64(v, prec),
            None => Self {
                text: placeholder.to_string(),
                value: Value::Null,
            },
        }
    }

    /// A boolean cell (renders `true` / `false`).
    pub fn bool(v: bool) -> Self {
        Self {
            text: v.to_string(),
            value: Value::Bool(v),
        }
    }

    /// An empty cell (renders as nothing, serializes as `null`).
    pub fn empty() -> Self {
        Self {
            text: String::new(),
            value: Value::Null,
        }
    }
}

/// One titled result grid of an experiment.
#[derive(Debug, Clone)]
pub struct Section {
    /// Stable machine key (`"drops"`, `"ablation_push"`, …).
    pub key: String,
    /// Human title (becomes the table title).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Typed rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Section {
    /// An empty section.
    pub fn new(key: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            key: key.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a typed row.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// The number in `column` of row `row`: `None` for a string, a
    /// boolean or a missing value.
    ///
    /// # Panics
    /// When the section has no such column or row.
    pub fn num(&self, row: usize, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column);
        let col = col.unwrap_or_else(|| panic!("section {:?} has no column {column:?}", self.key));
        match self.rows[row][col].value {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            Value::Str(_) | Value::Bool(_) | Value::Null => None,
        }
    }

    /// Render as a column-aligned text table: `== title ==`, the header,
    /// a dash rule, then one line per row. Rows longer than the header
    /// widen the table; trailing blanks are trimmed from every line.
    pub fn render(&self) -> String {
        let header: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let rows: Vec<Vec<&str>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.text.as_str()).collect())
            .collect();
        let ncols = rows
            .iter()
            .map(Vec::len)
            .chain([header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for line in std::iter::once(&header).chain(&rows) {
            for (w, text) in widths.iter_mut().zip(line) {
                *w = (*w).max(text.len());
            }
        }
        let fmt_line = |cells: &[&str]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<w$}", cells.get(i).copied().unwrap_or(""));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        if !header.is_empty() {
            let _ = writeln!(out, "{}", fmt_line(&header));
            let total = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &rows {
            let _ = writeln!(out, "{}", fmt_line(row));
        }
        out
    }
}

/// The result of one experiment run: typed sections with table and
/// JSON renderings.
///
/// ```
/// use pcelisp::experiments::{Cell, ExpReport, Section};
///
/// let mut s = Section::new("demo", "demo section", &["cp", "drops"]);
/// s.row(vec![Cell::str("pce"), Cell::u64(0)]);
/// let report = ExpReport::new("e0", "demo experiment").with_section(s);
/// assert!(report.is_complete());
/// assert!(report.tables()[0].render().contains("pce"));
/// assert!(report.to_json().contains("[\"pce\",0]"));
/// ```
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Experiment key (`"e1"`, `"e2"`, …).
    pub name: String,
    /// One-line experiment title.
    pub title: String,
    /// Result sections (≥ 1 for a complete report).
    pub sections: Vec<Section>,
}

impl ExpReport {
    /// An empty report.
    pub fn new(name: &str, title: &str) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            sections: Vec::new(),
        }
    }

    /// Add a section, builder-style.
    pub fn with_section(mut self, section: Section) -> Self {
        self.sections.push(section);
        self
    }

    /// All sections, in order; each renders as a table
    /// ([`Section::render`]).
    pub fn tables(&self) -> &[Section] {
        &self.sections
    }

    /// Print every section table to stdout, blank-line separated.
    pub fn print(&self) {
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", s.render());
        }
    }

    /// A report is complete when it has at least one section and every
    /// section has at least one row (the CI smoke gate).
    pub fn is_complete(&self) -> bool {
        !self.sections.is_empty() && self.sections.iter().all(|s| !s.rows.is_empty())
    }

    /// Serialize to a JSON object:
    /// `{"name", "title", "sections": [{"key","title","columns","rows"}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"name\":{},\"title\":{},\"sections\":[",
            json_str(&self.name),
            json_str(&self.title)
        );
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":{},\"title\":{},\"columns\":[",
                json_str(&s.key),
                json_str(&s.title)
            );
            for (j, c) in s.columns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(c));
            }
            out.push_str("],\"rows\":[");
            for (j, row) in s.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, cell) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_value(&cell.value));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// JSON-escape a string (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Str(s) => json_str(s),
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) if f.is_finite() => {
            // Guarantee a float-typed JSON literal.
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains("inf") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Float(_) | Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
    }
}

/// A runnable, registry-listed experiment.
///
/// Implementations are enumerated by [`crate::experiments::registry`]
/// and selected by name through `exp_all --only`. Runs are pure
/// functions of the seed (DESIGN.md §2) — `jobs` only sets how many
/// worker threads a grid-shaped experiment may fan its cells across
/// (DESIGN.md §8; `0` = auto), never what the report contains — so a
/// report regenerates byte-identically at any job count:
///
/// ```
/// use pcelisp::experiments::{Cell, ExpReport, Experiment, Section};
///
/// struct Demo;
/// impl Experiment for Demo {
///     fn name(&self) -> &'static str { "demo" }
///     fn title(&self) -> &'static str { "a demo experiment" }
///     fn run(&self, seed: u64, _jobs: usize) -> ExpReport {
///         let mut s = Section::new("k", "seeded", &["seed"]);
///         s.row(vec![Cell::u64(seed)]);
///         ExpReport::new(self.name(), self.title()).with_section(s)
///     }
/// }
///
/// let report = Demo.run(7, 1);
/// assert_eq!(report.to_json(), Demo.run(7, 8).to_json());
/// ```
pub trait Experiment {
    /// Stable key used by `exp_all --only` (`"e1"`, `"e2"`, …).
    fn name(&self) -> &'static str;
    /// One-line description for `--list` output.
    fn title(&self) -> &'static str;
    /// Run the experiment at the given seed on up to `jobs` worker
    /// threads (`0` = auto; see [`crate::experiments::grid::resolve_jobs`]).
    /// The report is byte-identical for every `jobs` value.
    fn run(&self, seed: u64, jobs: usize) -> ExpReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> ExpReport {
        let mut s = Section::new("rows", "demo section", &["cp", "drops", "ratio", "ok"]);
        s.row(vec![
            Cell::str("pce"),
            Cell::u64(0),
            Cell::f64(1.0, 3),
            Cell::bool(true),
        ]);
        s.row(vec![
            Cell::str("lisp \"drop\""),
            Cell::u64(12),
            Cell::opt_f64(None, 1, "FAILED"),
            Cell::bool(false),
        ]);
        ExpReport::new("e0", "demo").with_section(s)
    }

    #[test]
    fn table_renders_cell_text() {
        let r = demo_report();
        let rendered = r.tables()[0].render();
        assert!(rendered.contains("== demo section =="));
        assert!(rendered.contains("1.000"));
        assert!(rendered.contains("FAILED"));
    }

    #[test]
    fn json_is_typed_and_escaped() {
        let json = demo_report().to_json();
        assert!(json.contains("\"name\":\"e0\""));
        assert!(json.contains("[\"pce\",0,1.0,true]"), "{json}");
        assert!(json.contains("\"lisp \\\"drop\\\"\""), "{json}");
        assert!(
            json.contains(",null,"),
            "None must serialize as null: {json}"
        );
    }

    #[test]
    fn completeness_gate() {
        assert!(demo_report().is_complete());
        let empty = ExpReport::new("x", "no sections");
        assert!(!empty.is_complete());
        let hollow =
            ExpReport::new("x", "empty section").with_section(Section::new("k", "t", &["a"]));
        assert!(!hollow.is_complete());
    }

    #[test]
    fn float_json_always_has_decimal_point() {
        let mut s = Section::new("k", "t", &["v"]);
        s.row(vec![Cell::f64(2.0, 1)]);
        let json = ExpReport::new("e", "t").with_section(s).to_json();
        assert!(json.contains("[2.0]"), "{json}");
    }

    #[test]
    fn renders_aligned() {
        let mut s = Section::new("k", "demo", &["cp", "drops", "latency_ms"]);
        s.row(vec![
            Cell::str("lisp-drop"),
            Cell::u64(120),
            Cell::f64(312.5, 3),
        ]);
        s.row(vec![Cell::str("pce"), Cell::u64(0), Cell::f64(150.0, 3)]);
        let text = s.render();
        assert!(text.contains("== demo =="));
        // Columns aligned: the header line and rows share prefix widths.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let drops_col = lines[1].find("drops").unwrap();
        assert_eq!(lines[3].find("120").unwrap(), drops_col);
        assert_eq!(lines[4], "pce        0      150.000");
    }

    #[test]
    fn ragged_rows_ok() {
        let mut s = Section::new("k", "", &["a"]);
        s.row(vec![Cell::u64(1), Cell::u64(2), Cell::u64(3)]);
        assert_eq!(s.render(), "a\n-------\n1  2  3\n");
    }
}

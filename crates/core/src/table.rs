//! Plain-text table rendering for experiment output.
//!
//! Every experiment report prints its results through this renderer so
//! that EXPERIMENTS.md rows can be regenerated verbatim.

use core::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded; longer rows
    /// are accepted as-is (their extra cells widen the table).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of string slices.
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(core::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:<w$}");
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a nanosecond quantity as milliseconds with 3 decimals.
pub fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Format a ratio with 3 decimals.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.3}")
}

/// Format a float with 1 decimal.
pub fn fmt_f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["cp", "drops", "latency_ms"]);
        t.row_strs(&["lisp-drop", "120", "312.500"]);
        t.row_strs(&["pce", "0", "150.000"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("lisp-drop"));
        assert!(s.contains("pce"));
        // Columns aligned: the header line and rows share prefix widths.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        let drops_col = lines[1].find("drops").unwrap();
        assert_eq!(lines[3].find("120").unwrap(), drops_col);
    }

    #[test]
    fn ragged_rows_ok() {
        let mut t = Table::new("", &["a"]);
        t.row_strs(&["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(1_500_000), "1.500");
        assert_eq!(fmt_ratio(1.23456), "1.235");
        assert_eq!(fmt_f1(2.71), "2.7");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("x", &[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}

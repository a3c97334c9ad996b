//! Plain-text tables and CSV emission for the `repro` harness.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }
}

/// Format a table with aligned columns.
pub fn format_table(t: &Table) -> String {
    let mut widths: Vec<usize> = t.headers.iter().map(|h| h.len()).collect();
    for row in &t.rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {}", t.title);
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
        }
        s.trim_end().to_string()
    };
    let _ = writeln!(out, "{}", line(&t.headers, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
    for row in &t.rows {
        let _ = writeln!(out, "{}", line(row, &widths));
    }
    out
}

/// Write a table as CSV under `dir` (created if needed).
pub fn write_csv(t: &Table, dir: &Path, file: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    let esc = |s: &str| -> String {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let _ = writeln!(
        out,
        "{}",
        t.headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in &t.rows {
        let _ = writeln!(
            out,
            "{}",
            row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
        );
    }
    fs::write(dir.join(file), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig6a ysb", &["nodes", "slash", "uppar"]);
        t.row(vec!["2".into(), "2.6e8".into(), "9.2e7".into()]);
        t.row(vec!["4".into(), "5.1e8".into(), "1.1e8".into()]);
        t
    }

    #[test]
    fn formatting_aligns_columns() {
        let s = format_table(&sample());
        assert!(s.contains("## fig6a ysb"));
        assert!(s.contains("nodes  slash  uppar"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("slash-bench-report-test");
        write_csv(&sample(), &dir, "t.csv").unwrap();
        let read = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(read.lines().next().unwrap(), "nodes,slash,uppar");
        assert_eq!(read.lines().count(), 3);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["hello, world".into()]);
        let dir = std::env::temp_dir().join("slash-bench-report-test2");
        write_csv(&t, &dir, "e.csv").unwrap();
        let read = std::fs::read_to_string(dir.join("e.csv")).unwrap();
        assert!(read.contains("\"hello, world\""));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}

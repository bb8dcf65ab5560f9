//! Result tables: ASCII rendering (what the bench targets print) and CSV
//! export.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table with a title and footnote.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    footnote: Option<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            footnote: None,
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Sets a footnote printed under the table.
    pub fn footnote(&mut self, note: impl Into<String>) {
        self.footnote = Some(note.into());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned ASCII.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        line(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {:<width$} ", h, width = widths[i]);
        }
        out.push_str("|\n");
        line(&mut out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "| {:<width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        }
        line(&mut out);
        if let Some(note) = &self.footnote {
            let _ = writeln!(out, "{note}");
        }
        let _ = writeln!(out, "({} columns x {} rows)", cols, self.rows.len());
        out
    }

    /// Writes the table as CSV to `path`.
    pub fn write_csv_to(&self, path: &Path) -> io::Result<()> {
        let mut buf = String::new();
        let _ = writeln!(buf, "{}", self.header.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let _ = writeln!(buf, "{}", escaped.join(","));
        }
        std::fs::write(path, buf)
    }
}

/// Writes arbitrary rows as CSV (header + stringified rows) to `path`.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut table = Table::new("csv", header);
    for row in rows {
        table.row(row);
    }
    table.write_csv_to(path)
}

/// Formats an f32 with 3 decimals for table cells.
pub fn fmt3(v: f32) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["model", "mse"]);
        t.row(&["MSD-Mixer".to_string(), "0.300".to_string()]);
        t.row(&["DLinear".to_string(), "0.350".to_string()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| MSD-Mixer | 0.300 |"));
        assert!(s.contains("| DLinear   | 0.350 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn csv_round_trips_through_fs() {
        let dir = std::env::temp_dir().join(format!("msd_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".to_string(), "va,l".to_string()]);
        t.write_csv_to(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,\"va,l\"\n");
    }

    #[test]
    fn fmt3_formats() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt3(f32::INFINITY), "inf");
    }
}

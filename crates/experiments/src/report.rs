//! Tabular output: ASCII for the terminal, CSV for plotting.

use replica_engine::output::csv_field;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-oriented results table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Table title (becomes a CSV comment line).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified by the producer).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>>(title: S, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Renders RFC 4180 CSV with a leading `#` title comment.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let fields: Vec<_> = row.iter().map(|c| csv_field(c)).collect();
            let _ = writeln!(out, "{}", fields.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats an `f64` with a fixed number of decimals (the tables' house
/// style).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Streams `values` (in their natural experiment order) through the
/// engine's P² sketches and returns the `(p50, p90)` estimates — the
/// same estimator behind the fleet runner's percentile columns, so
/// experiment CSVs and fleet tables quote comparable numbers. Exact
/// below five observations; `(0.0, 0.0)` when empty.
pub fn p50_p90<I: IntoIterator<Item = f64>>(values: I) -> (f64, f64) {
    let mut acc = replica_engine::MetricAccumulator::default();
    for value in values {
        acc.push(value);
    }
    let stats = acc.stats();
    (stats.p50, stats.p90)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "2.50".into()]);
        t.push_row(vec!["10".into(), "0.25".into()]);
        t
    }

    #[test]
    fn ascii_aligns() {
        let text = sample().to_ascii();
        assert!(text.contains("## demo"));
        assert!(text.contains(" x  value"));
        assert!(text.contains(" 1   2.50"));
        assert!(text.contains("10   0.25"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["he,llo \"x\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"he,llo \"\"x\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("replica-experiments-test");
        let path = dir.join("sample.csv");
        sample().write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, sample().to_csv());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 3), "2.000");
    }

    #[test]
    fn percentiles_match_the_engine_estimator() {
        assert_eq!(p50_p90([]), (0.0, 0.0));
        assert_eq!(p50_p90([3.0, 1.0, 2.0]), (2.0, 3.0), "exact under five");
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 1000) as f64).collect();
        let (p50, p90) = p50_p90(values.iter().copied());
        assert!((p50 - 500.0).abs() < 25.0, "p50 ≈ median, got {p50}");
        assert!((p90 - 900.0).abs() < 25.0, "p90 ≈ 900, got {p90}");
        // Same estimator as the fleet's accumulators, bit for bit.
        let mut acc = replica_engine::MetricAccumulator::default();
        values.iter().for_each(|&v| acc.push(v));
        assert_eq!((acc.stats().p50, acc.stats().p90), (p50, p90));
    }
}

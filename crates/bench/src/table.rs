//! Plain-text table rendering for experiment output.

use std::fmt;

/// A paper-style results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table/figure title, e.g. `"Fig 4a: IPC normalized to baseline"`.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Rows: label + one cell per remaining header.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of formatted values.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Appends a row of `f64` cells rendered with 3 decimals.
    pub(crate) fn row_f64(&mut self, label: impl Into<String>, cells: &[f64]) {
        self.row(label, cells.iter().map(|v| format!("{v:.3}")).collect());
    }

    /// Appends a geometric-mean summary row, one cell per column of
    /// inputs. Columns whose inputs contained non-positive values are
    /// flagged with the clamp count — their aggregate is
    /// epsilon-dominated and must not be read as a real ratio.
    pub(crate) fn row_geomean<C: AsRef<[f64]>>(&mut self, label: impl Into<String>, cols: &[C]) {
        let cells = cols
            .iter()
            .map(|c| {
                let (g, clamped) = dcl1_common::stats::geomean_counting(c.as_ref());
                if clamped > 0 {
                    format!("{g:.3} [{clamped} clamped]")
                } else {
                    format!("{g:.3}")
                }
            })
            .collect();
        self.row(label, cells);
    }

    /// Looks up a cell by row label and column header (testing helper).
    pub fn cell(&self, row: &str, col: &str) -> Option<&str> {
        let ci = self.headers.iter().position(|h| h == col)?;
        if ci == 0 {
            return None;
        }
        self.rows
            .iter()
            .find(|(l, _)| l == row)
            .and_then(|(_, cells)| cells.get(ci - 1))
            .map(String::as_str)
    }

    /// Parses a cell as `f64` (testing helper).
    #[cfg(test)]
    pub(crate) fn cell_f64(&self, row: &str, col: &str) -> Option<f64> {
        self.cell(row, col)?.parse().ok()
    }

    /// Renders the table as RFC-4180-style CSV (quoting cells that need
    /// it), for spreadsheet/plotting pipelines.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for (label, cells) in &self.rows {
            let mut row = vec![field(label)];
            row.extend(cells.iter().map(|c| field(c)));
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let ncols = self.headers.len();
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.len());
            for (i, c) in cells.iter().enumerate() {
                if i + 1 < ncols {
                    widths[i + 1] = widths[i + 1].max(c.len());
                }
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[&str]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    write!(f, "{:<w$}", c, w = widths[0])?;
                } else {
                    write!(f, "  {:>w$}", c, w = widths[i])?;
                }
            }
            writeln!(f)
        };
        let hdr: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        line(f, &hdr)?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)))?;
        for (label, cells) in &self.rows {
            let mut row: Vec<&str> = vec![label];
            row.extend(cells.iter().map(String::as_str));
            line(f, &row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_export_quotes_and_rounds_trip() {
        let mut t = Table::new("T", &["app", "note"]);
        t.row("plain", vec!["1.0".into()]);
        t.row("with,comma", vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "app,note");
        assert_eq!(lines[1], "plain,1.0");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn renders_and_reads_back() {
        let mut t = Table::new("Fig X", &["app", "ipc", "miss"]);
        t.row_f64("T-AlexNet", &[2.9, 0.05]);
        t.row_f64("C-BLK", &[1.0, 0.99]);
        assert_eq!(t.cell("T-AlexNet", "ipc"), Some("2.900"));
        assert_eq!(t.cell_f64("C-BLK", "miss"), Some(0.99));
        assert!(t.cell("nope", "ipc").is_none());
        assert!(t.cell("C-BLK", "app").is_none());
        let s = t.to_string();
        assert!(s.contains("Fig X"));
        assert!(s.contains("T-AlexNet"));
    }
}

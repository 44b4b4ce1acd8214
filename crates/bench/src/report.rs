//! Plain-text table rendering in the style of the paper's tables, plus a
//! CSV sink under `target/experiments/` so EXPERIMENTS.md can reference
//! machine-readable results.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple fixed-width table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line: String = {
            let mut s = String::new();
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    s.push_str("-+-");
                }
                s.push_str(&"-".repeat(*w));
            }
            s
        };
        let fmt_row = |cells: &[String]| {
            let mut s = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    s.push_str(" | ");
                }
                let _ = write!(s, "{cell:<w$}");
            }
            s
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Print to stdout and persist as CSV under `target/experiments/`.
    pub fn emit(&self, file_stem: &str) {
        println!("{}", self.render());
        if let Err(e) = self.write_csv(file_stem) {
            eprintln!("warning: could not persist {file_stem}.csv: {e}");
        }
    }

    fn write_csv(&self, file_stem: &str) -> std::io::Result<()> {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        dir.pop();
        dir.pop(); // workspace root
        dir.push("target");
        dir.push("experiments");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{file_stem}.csv"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()
    }
}

/// Format seconds with adaptive precision.
pub fn secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Format a float with 3–4 significant digits, paper-style.
pub fn sig(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("Demo", &["Method", "MAE(m)"]);
        t.row(vec!["PPQ-A".into(), "18.35".into()]);
        t.row(vec!["Residual Quantization".into(), "868.96".into()]);
        let out = t.render();
        assert!(out.contains("=== Demo ==="));
        assert!(out.contains("PPQ-A"));
        let lines: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        // All data lines share the same column positions.
        let bar = lines[0].find('|').unwrap();
        for l in &lines {
            assert_eq!(l.find('|').unwrap(), bar);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(18.349), "18.3");
        assert_eq!(sig(0.123), "0.123");
        assert_eq!(sig(1752.29), "1752");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.50");
    }
}

//! Aligned text tables.

use std::fmt;

use crate::fixed::Fixed;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default; labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple rectangular table with a title and column headers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Right-aligns every column except the first (the usual numeric shape).
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (wi, cell) in w.iter_mut().zip(row) {
                *wi = (*wi).max(cell.len());
            }
        }
        w
    }

    /// Renders an aligned ASCII table with a title and separator rules.
    pub fn render_ascii(&self) -> String {
        self.to_string()
    }

    /// Writes the ASCII rendering, padding every cell straight into `out`.
    fn write_ascii(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let w = self.widths();
        out.write_str(&self.title)?;
        out.write_char('\n')?;
        let rule = |out: &mut dyn fmt::Write| -> fmt::Result {
            for (i, &wi) in w.iter().enumerate() {
                if i > 0 {
                    out.write_char('+')?;
                }
                write!(out, "{:-<1$}", "", wi + 2)?;
            }
            out.write_char('\n')
        };
        rule(out)?;
        self.write_row(out, &self.headers, &w)?;
        rule(out)?;
        for row in &self.rows {
            self.write_row(out, row, &w)?;
        }
        Ok(())
    }

    fn write_row(&self, out: &mut impl fmt::Write, cells: &[String], w: &[usize]) -> fmt::Result {
        for (i, ((cell, &wi), align)) in cells.iter().zip(w).zip(&self.aligns).enumerate() {
            if i > 0 {
                out.write_char('|')?;
            }
            match align {
                Align::Left => write!(out, " {cell:<wi$} ")?,
                Align::Right => write!(out, " {cell:>wi$} ")?,
            }
        }
        out.write_char('\n')
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        let seps: Vec<&str> = self
            .aligns
            .iter()
            .map(|a| match a {
                Align::Left => "---",
                Align::Right => "---:",
            })
            .collect();
        out.push_str(&format!("| {} |\n", seps.join(" | ")));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (headers first), escaping via [`crate::csv`] rules.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        crate::csv::line(&mut out, &self.headers);
        for row in &self.rows {
            crate::csv::line(&mut out, row);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_ascii(f)
    }
}

/// Formats an `f64` with `prec` decimals (helper used by all experiments),
/// byte for byte as `format!("{v:.prec$}")` would, on the exact integer
/// path of [`Fixed`].
pub fn num(v: f64, prec: usize) -> String {
    format!("{:.prec$}", Fixed(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", &["name", "value"]);
        t.numeric();
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["beta-long".into(), "22.25".into()]);
        t
    }

    #[test]
    fn ascii_contains_all_cells_aligned() {
        let s = sample().render_ascii();
        assert!(s.contains("alpha"));
        assert!(s.contains("22.25"));
        // Right-aligned numeric column: "1.5" padded on the left.
        assert!(s.contains("  1.5 "), "got:\n{s}");
    }

    #[test]
    fn markdown_shape() {
        let s = sample().render_markdown();
        assert!(s.starts_with("### T"));
        assert!(s.contains("| name | value |"));
        assert!(s.contains("| --- | ---: |"));
        assert!(s.contains("| alpha | 1.5 |"));
    }

    #[test]
    fn csv_round_trip_basicly() {
        let s = sample().render_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines, vec!["name,value", "alpha,1.5", "beta-long,22.25"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        sample().row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        Table::new("bad", &[]);
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.title(), "T");
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.headers().len(), 2);
        assert_eq!(t.rows()[1][0], "beta-long");
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.23456, 3), "1.235");
        assert_eq!(num(2.0, 0), "2");
    }

    #[test]
    fn display_matches_ascii() {
        let t = sample();
        assert_eq!(format!("{t}"), t.render_ascii());
    }
}

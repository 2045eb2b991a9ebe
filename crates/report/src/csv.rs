//! Minimal CSV writing (RFC 4180-style quoting).

use std::fmt::{self, Write as _};

/// One CSV field as it is written: quoted when it contains a comma, quote,
/// or newline, with embedded quotes doubled. Formatting it writes straight
/// into the output, so a record is one `write!` with no per-field `String`.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a>(pub &'a str);

impl fmt::Display for Field<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if !s.contains([',', '"', '\n']) {
            return f.write_str(s);
        }
        f.write_char('"')?;
        for (i, part) in s.split('"').enumerate() {
            if i > 0 {
                f.write_str("\"\"")?;
            }
            f.write_str(part)?;
        }
        f.write_char('"')
    }
}

/// Appends one CSV record (with trailing newline) to `out`.
pub fn line<S: AsRef<str>>(out: &mut String, cells: &[S]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", Field(cell.as_ref()));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(s: &str) -> String {
        Field(s).to_string()
    }

    fn record(cells: &[&str]) -> String {
        let mut out = String::new();
        line(&mut out, cells);
        out
    }

    #[test]
    fn plain_fields_untouched() {
        assert_eq!(field("abc"), "abc");
        assert_eq!(field("1.25"), "1.25");
    }

    #[test]
    fn commas_and_quotes_escaped() {
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(field("two\nlines"), "\"two\nlines\"");
        assert_eq!(field("\"a,b\""), "\"\"\"a,b\"\"\"");
    }

    #[test]
    fn line_joins_and_terminates() {
        assert_eq!(record(&["a", "b,c", "d"]), "a,\"b,c\",d\n");
        assert_eq!(record(&["x\"y,z", "w"]), "\"x\"\"y,z\",w\n");
        assert_eq!(record(&[]), "\n");
        let mut out = String::from("head\n");
        line(&mut out, &["a"]);
        assert_eq!(out, "head\na\n", "appends after what is there");
    }
}

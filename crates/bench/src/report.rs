//! Plain-text table formatting for reproduction reports.

use std::fmt;

/// A titled, column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. `Table 3: ...`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats seconds as milliseconds with sensible precision.
pub fn fmt_ms(seconds: f64) -> String {
    let ms = seconds * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.2}")
    }
}

/// Formats a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["longer".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 22    |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(0.2424), "242");
        assert_eq!(fmt_ms(0.0189), "18.9");
        assert_eq!(fmt_ms(0.00151), "1.51");
        assert_eq!(fmt_pct(0.916), "91.6%");
    }
}

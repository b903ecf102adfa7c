//! Plain-text tables for the experiment reports.

/// A report table: what the paper would print as a figure/table.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form conclusion line ("who wins, by what factor").
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// Format a simulated time in microseconds with 2 decimals.
pub fn us(t: f64) -> String {
    format!("{:.2}", t * 1e6)
}

/// Format a ratio with 2 decimals.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("E0", "demo", &["np", "time"]);
        t.row(vec!["4".into(), "1.00".into()]);
        t.row(vec!["16".into(), "12.50".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("np"));
        assert!(s.contains("note: hello"));
        // Rows and header present.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(1e-6), "1.00");
        assert_eq!(ratio(2.0), "2.00");
    }
}

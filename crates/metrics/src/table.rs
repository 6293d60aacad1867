//! Plain-text table rendering.
//!
//! Every bench target prints its reproduction of a paper table or figure as
//! an aligned text table via [`TextTable`], so `cargo bench` output can be
//! compared against the paper side by side.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::TextTable;
///
/// let mut t = TextTable::new(vec!["Workload", "Linux-4KB", "HawkEye"]);
/// t.row(vec!["Redis".into(), "233".into(), "551".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Redis"));
/// assert!(s.contains("HawkEye"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows are allowed (extra cells get width 0 pads).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let ncols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = w.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "{}", w.iter().map(|n| "-".repeat(*n)).collect::<Vec<_>>().join("  "))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header"]).with_title("T");
        t.row(vec!["xxxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== T ==");
        assert!(lines[1].starts_with("a    "));
        // all data rows align the second column at the same offset
        let col = lines[3].find('1').unwrap();
        assert_eq!(lines[4].find('2').unwrap(), col);
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "extra".into()]);
        t.row(vec![]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(s.contains("extra"));
    }
}

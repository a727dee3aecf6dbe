//! Plain-text table rendering in the paper's format.

/// A simple left-labelled table: one row per measure, one column per
/// parameter value — the layout of the paper's Tables 3–9.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Adds a row (label + one value per column).
    pub fn row(&mut self, label: impl Into<String>, values: Vec<String>) -> &mut Self {
        let label = label.into();
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row '{label}' has {} values for {} columns",
            values.len(),
            self.columns.len()
        );
        self.rows.push((label, values));
        self
    }

    /// Adds a row whose value in each column is `value` of the matching
    /// item.
    pub fn row_map<T>(
        &mut self,
        label: impl Into<String>,
        items: &[T],
        value: impl FnMut(&T) -> String,
    ) -> &mut Self {
        self.row(label, items.iter().map(value).collect())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap()
            .max(24);
        let mut col_w: Vec<usize> = self.columns.iter().map(std::string::String::len).collect();
        for (_, vals) in &self.rows {
            for (i, v) in vals.iter().enumerate() {
                col_w[i] = col_w[i].max(v.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        let total = label_w + col_w.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&format!("{label:<label_w$}"));
            for (v, w) in vals.iter().zip(&col_w) {
                out.push_str(&format!("  {v:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats seconds with adaptive precision (the paper mixes second and
/// millisecond magnitudes).
pub fn secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.3}")
    } else {
        format!("{s:.4}")
    }
}

/// Formats milliseconds (Table 9 uses ms).
pub fn millis(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// Formats a kB figure.
pub fn kb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", vec!["150".into(), "1,500".into()]);
        t.row("Client time [s]", vec!["0.002".into(), "0.014".into()]);
        t.row("Recall [%]", vec!["59.80".into(), "91.6".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Client time [s]"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "2 values for 1 columns")]
    fn row_arity_checked() {
        let mut t = Table::new("X", vec!["a".into()]);
        t.row("r", vec!["1".into(), "2".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(secs(Duration::from_micros(800)), "0.0008");
        assert_eq!(millis(Duration::from_micros(2690)), "2.690");
        assert_eq!(kb(25805), "25.805");
    }
}

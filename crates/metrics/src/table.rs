use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A simple rectangular table of strings with a header row — the output
/// format of every figure/table regeneration binary (aligned text to
/// stdout, CSV to `results/`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.columns.len(), String::new());
        self.rows.push(cells);
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing `, " \n`).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the rows as JSON objects — `  {"col":cell,…}`, one per line,
    /// comma-separated, keys in column order — for the `cells` arrays of the
    /// `BENCH_*.json` records. A column is written bare when every cell in
    /// it is a JSON number, `true`, `false` or `null`, exactly as the cell
    /// was formatted (`"{:.1}"` stays `73.6`); any other column is written
    /// as quoted, escaped strings, so a column has one JSON type.
    pub fn to_json_rows(&self) -> String {
        let bare: Vec<bool> = (0..self.columns.len())
            .map(|c| self.rows.iter().all(|row| is_json_literal(&row[c])))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .columns
                    .iter()
                    .zip(row)
                    .zip(&bare)
                    .map(|((key, cell), &bare)| {
                        let value = if bare {
                            cell.clone()
                        } else {
                            json_string(cell)
                        };
                        format!("{}:{value}", json_string(key))
                    })
                    .collect();
                format!("  {{{}}}", fields.join(","))
            })
            .collect();
        rows.join(",\n")
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// `true` for text that is already a JSON value of a non-string scalar type.
fn is_json_literal(cell: &str) -> bool {
    if matches!(cell, "true" | "false" | "null") {
        return true;
    }
    // `str::parse::<f64>` is laxer than the JSON grammar: rule out a sign
    // other than `-`, a bare or trailing `.`, a leading zero, `inf`, `NaN`.
    let digits = cell.strip_prefix('-').unwrap_or(cell).as_bytes();
    digits.first().is_some_and(u8::is_ascii_digit)
        && digits.last().is_some_and(u8::is_ascii_digit)
        && !(digits.len() > 1 && digits[0] == b'0' && digits[1].is_ascii_digit())
        && cell.parse::<f64>().is_ok_and(f64::is_finite)
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Table {
    /// Aligned fixed-width text rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}", w = w)?;
            }
            writeln!(f)
        };
        render(f, &self.columns)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["method", "acc"]);
        t.push_row(vec!["APT".into(), "92.2".into()]);
        t.push_row(vec!["fp32".into()]); // short row padded
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv, "method,acc\nAPT,92.2\nfp32,\n");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(&["a"]);
        t.push_row(vec!["x,y".into()]);
        t.push_row(vec!["he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn json_rows_match_a_hand_written_golden() {
        let mut t = Table::new(&["op", "shape", "n", "ms", "ok", "scaling"]);
        t.push_row(
            ["add", "1048576", "-3", "73.60", "true", "null"]
                .map(String::from)
                .to_vec(),
        );
        t.push_row(
            ["say \"hi\"\\\n", "8x8", "12", "1e-3", "false", "null"]
                .map(String::from)
                .to_vec(),
        );
        // Keys in column order; `shape` is quoted in both rows because one
        // of its cells is not a number; `73.60` keeps its trailing zero.
        assert_eq!(
            t.to_json_rows(),
            concat!(
                r#"  {"op":"add","shape":"1048576","n":-3,"ms":73.60,"ok":true,"scaling":null},"#,
                "\n",
                r#"  {"op":"say \"hi\"\\\n","shape":"8x8","n":12,"ms":1e-3,"ok":false,"scaling":null}"#,
            )
        );
        for not_json in ["", "+1", "1.", ".5", "01", "inf", "NaN", "0x10", "1 "] {
            assert!(!is_json_literal(not_json), "{not_json:?}");
        }
        assert_eq!(Table::new(&["a"]).to_json_rows(), "");
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("apt_metrics_test");
        let path = dir.join("nested/out.csv");
        sample().write_csv(&path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counting() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.columns().len(), 2);
        assert!(Table::new(&["x"]).is_empty());
    }
}

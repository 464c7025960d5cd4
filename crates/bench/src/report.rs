//! Experiment result tables: aligned text for the terminal, CSV and JSON
//! for further analysis.

use std::path::Path;

/// One experiment's output table.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig11-q1`).
    pub name: String,
    /// Free-text description shown above the table.
    pub description: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ExperimentResult {
    /// Create an empty result table.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        headers: Vec<String>,
    ) -> Self {
        ExperimentResult {
            name: name.into(),
            description: description.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Aligned text rendering.
    pub fn pretty(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("## {} — {}\n", self.name, self.description);
        for (i, h) in self.headers.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", h, w = widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// JSON rendering (hand-rolled; the environment builds without serde).
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn string_array(items: &[String], indent: &str) -> String {
            let body: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("{indent}[{}]", body.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| string_array(r, "    ")).collect();
        format!(
            "{{\n  \"name\": {},\n  \"description\": {},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            quote(&self.name),
            quote(&self.description),
            string_array(&self.headers, ""),
            rows.join(",\n")
        )
    }

    /// Write `name.csv` and `name.json` into a directory.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())?;
        std::fs::write(dir.join(format!("{}.json", self.name)), self.to_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        let mut r = ExperimentResult::new("fig0", "demo", vec!["scale".into(), "time".into()]);
        r.push_row(vec!["1".into(), "0.5".into()]);
        r.push_row(vec!["2".into(), "1.1".into()]);
        r
    }

    #[test]
    fn pretty_and_csv() {
        let r = sample();
        assert!(r.pretty().contains("## fig0"));
        assert_eq!(r.to_csv(), "scale,time\n1,0.5\n2,1.1\n");
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("cohana-bench-report-test");
        let r = sample();
        r.write_to(&dir).unwrap();
        assert!(dir.join("fig0.csv").exists());
        assert!(dir.join("fig0.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

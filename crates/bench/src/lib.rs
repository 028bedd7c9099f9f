//! # spp-bench — the paper's experiments and the `spp` binary
//!
//! One module per paper artifact; each has a `run(&Opts) -> String`
//! that regenerates the table/figure data (printing a side-by-side
//! "paper" column where the paper gives numbers) and returns the
//! formatted text. [`scenario_cli::registry`] lists them all;
//! `spp repro <id>` runs one and `spp repro all` runs every one, in
//! registry order, and is what EXPERIMENTS.md records.

#![warn(missing_docs)]

pub mod backend;
pub mod bus;
pub mod cachestudy;
pub mod chaos;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod grid;
pub mod insight;
pub mod latency;
pub mod protocol;
pub mod race;
pub mod recovery;
pub mod scale;
pub mod scenario_cli;
pub mod sensitivity;
pub mod table1;
pub mod table2;
pub mod trace;

/// The report directory every experiment writes its `BENCH_*.json`
/// under: `target/repro`, overridable with `SPP_REPRO_DIR`.
pub fn repro_dir() -> std::path::PathBuf {
    std::env::var_os("SPP_REPRO_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/repro"))
}

/// Write a campaign's report `name` under [`repro_dir`] and say where
/// it went, or why it did not, for the campaign's text.
pub(crate) fn write_bench(name: &str, doc: &Json) -> String {
    match spp_scenario::write_report(&repro_dir(), name, doc) {
        Ok(path) => format!("[report written to {}]", path.display()),
        Err(e) => format!("[could not write report: {e}]"),
    }
}

use spp_core::json::Json;
/// The options every experiment's `run` takes; one type shared with
/// the scenario engine, so each registry entry is the module's own
/// `run` function.
pub use spp_scenario::ExperimentOpts as Opts;

/// Minimal fixed-width table formatter (plain text, pasteable into
/// markdown as a code block).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut w = vec![0usize; ncol];
        for c in 0..ncol {
            w[c] = self.headers[c].len();
            for r in &self.rows {
                w[c] = w[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], w: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", cell, width = w[c]));
            }
            out.push('\n');
        };
        line(&self.headers, &w, &mut out);
        out.push_str(&format!(
            "{}\n",
            "-".repeat(w.iter().sum::<usize>() + 2 * ncol)
        ));
        for r in &self.rows {
            line(r, &w, &mut out);
        }
        out
    }
}

/// Format a float to a compact fixed string.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Print a section header and its content (used by every
/// experiment).
pub fn emit(title: &str, body: &str) -> String {
    let bar = "=".repeat(title.len());
    let text = format!("\n{title}\n{bar}\n{body}");
    println!("{text}");
    text
}

/// Write `doc` in the report layout and parse it back with the strict
/// reader, failing the test on anything that is not valid JSON.
#[cfg(test)]
pub(crate) fn parse_report(doc: &Json) -> Json {
    let text = doc.report();
    spp_core::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// Parse the JSON file at `path` with the strict reader.
#[cfg(test)]
pub(crate) fn parse_file(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    spp_core::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// The array under `key` of a parsed report.
#[cfg(test)]
pub(crate) fn report_array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "longer"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("longer"));
        assert!(lines[2].ends_with("2  "));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 1), "10.0");
    }
}

//! # subword-bench
//!
//! Harnesses regenerating every table and figure of the paper's
//! evaluation, in two binaries:
//!
//! * `all` measures the paper kernels under shapes A–D in one
//!   [`SweepReport`] and renders from it Table 1 (crossbar area and
//!   delay, control memory, the §5.1 die-overhead claim), Figure 9,
//!   Table 2 (branch statistics), Table 3 (permutations off-loaded
//!   through decoupled control), the §6 shape ablation, the energy
//!   extension and the machine-parameter sensitivity study;
//! * `sweep` writes the full kernel × shape matrix as a JSON
//!   [`SweepReport`] and gates it against a committed cycles baseline.
//!
//! Measured values print alongside the published ones. Absolute
//! magnitudes are also shown re-scaled to the paper's ~10^10-clock runs
//! (the paper executed each routine millions of times on silicon; the
//! simulator executes a handful of blocks exactly and scales — see
//! DESIGN.md §2).
//!
//! All measurement traffic flows through the [`sweep`] orchestration
//! layer (DESIGN.md §4): a parallel job matrix over kernel × crossbar
//! shape × block count that lifts each job once, and whose
//! [`SweepReport`] is the one result every harness reads. Its passes
//! run on the [`pool`] of workers, which the fuzz campaign shares. On
//! top of that sits the persistent, content-addressed [`store`]
//! (DESIGN.md §13): with `sweep --cache-dir`, cells whose inputs are
//! unchanged are replayed from disk instead of re-simulated.

pub mod baseline;
pub mod json;
pub mod pool;
pub mod store;
pub mod sweep;

pub use store::{cell_key, CellKey, MeasurementStore, StoreStats, PIPELINE_VERSION};
pub use sweep::{run_sweep, CompileCache, SweepConfig, SweepReport};

/// Format a float in the paper's `1.51E+10` scientific style.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0.00E+00".to_string();
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    format!("{mant:.2}E+{exp:02}")
}

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_matches_paper_style() {
        assert_eq!(sci(1.51e10), "1.51E+10");
        assert_eq!(sci(8.42e6), "8.42E+06");
        assert_eq!(sci(0.0), "0.00E+00");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with(" 1"));
        assert!(lines[3].starts_with("long-name"));
    }
}

//! # subword-bench
//!
//! Harnesses regenerating every table and figure of the paper's
//! evaluation:
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `figure9`         | Figure 9 — cycles on MMX vs MMX+SPU per kernel |
//! | `table1`          | Table 1 — crossbar area/delay + control memory, plus the §5.1 die-overhead claim |
//! | `table2`          | Table 2 — branch statistics |
//! | `table3`          | Table 3 — permutations off-loaded through decoupled control |
//! | `ablation_shapes` | §6 discussion — per-kernel minimal crossbar shape and cost/benefit across shapes A–D |
//! | `sweep`           | the full kernel × shape matrix as a JSON [`sweep::SweepReport`] |
//! | `all`             | everything above in sequence |
//!
//! Measured values print alongside the published ones. Absolute
//! magnitudes are also shown re-scaled to the paper's ~10^10-clock runs
//! (the paper executed each routine millions of times on silicon; the
//! simulator executes a handful of blocks exactly and scales — see
//! DESIGN.md §2).
//!
//! All batch measurement traffic flows through the [`sweep`]
//! orchestration layer (DESIGN.md §4): a parallel job matrix over
//! kernel × crossbar shape × block count with a shared compiled-program
//! cache. ([`run_entry`] remains as an uncached one-off probe.) On top
//! of that sits the persistent, content-addressed [`store`] (DESIGN.md
//! §13): with `sweep --cache-dir`, cells whose inputs are unchanged are
//! replayed from disk instead of re-simulated.

pub mod baseline;
pub mod json;
pub mod store;
pub mod sweep;

use subword_kernels::framework::Measurement;
use subword_kernels::suite::SuiteEntry;
use subword_spu::crossbar::CrossbarShape;

pub use store::{cell_key, CellKey, MeasurementStore, StoreStats, PIPELINE_VERSION};
pub use sweep::{
    run_sweep, run_sweep_with_cache, run_sweep_with_store, CompileCache, SweepConfig, SweepReport,
    SweepRun,
};

/// Run the whole Figure 9 suite under one shape — a single-shape
/// [`run_sweep`] pass (parallel over kernels, compilation cached across
/// block counts).
pub fn run_suite(shape: &CrossbarShape) -> Vec<Measurement> {
    let run = run_sweep(&SweepConfig::paper(std::slice::from_ref(shape)))
        .unwrap_or_else(|e| panic!("suite sweep: {e}"));
    run.measurements.into_iter().map(|m| m.measurement).collect()
}

/// Measure one suite entry directly — a fresh, uncached lift and run.
/// One-off probes only: batch work belongs in [`run_sweep`], which
/// shares compiled artifacts across block counts, scales and shapes.
pub fn run_entry(e: &SuiteEntry, shape: &CrossbarShape) -> Measurement {
    let opts = subword_kernels::MeasureOpts::default();
    subword_kernels::measure(e.kernel, e.blocks_small, e.blocks_large, shape, &opts)
        .unwrap_or_else(|err| panic!("{}: {err}", e.kernel.name()))
}

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
    fn run_entry_measures_a_kernel() {
        let e = subword_kernels::suite::dotprod_example();
        let m = run_entry(&e, &subword_spu::SHAPE_A);
        assert!(m.baseline.per_block.cycles > 0);
        assert!(m.spu.per_block.cycles > 0);
        assert!(m.offloaded_per_block() > 0);
        assert!(m.speedup() > 1.0);
    }

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

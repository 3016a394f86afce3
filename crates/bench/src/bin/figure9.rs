//! Regenerates **Figure 9**: cycles executed on the MMX and on the
//! MMX+SPU for the eight IPP media routines, including the extra SPU
//! pipeline stage's mispredict cost.
//!
//! ```text
//! cargo run --release -p subword-bench --bin figure9
//! ```
//!
//! The data comes from a single-shape [`SweepReport`] pass rather than a
//! private measurement loop.

use subword_bench::sweep::{run_sweep, SweepConfig, SweepReport};
use subword_bench::{sci, Table};
use subword_kernels::paper::paper_row;
use subword_spu::SHAPE_A;

fn main() {
    println!("Figure 9 — cycles executed on MMX and MMX+SPU (shape A crossbar)\n");
    let run = run_sweep(&SweepConfig::paper(&[SHAPE_A]), None).expect("figure 9 sweep");
    let report: &SweepReport = &run.report;

    let mut t = Table::new(&[
        "benchmark",
        "MMX cycles",
        "MMX+SPU cycles",
        "saved %",
        "MMX-active %",
        "paper scale MMX",
        "paper scale MMX+SPU",
    ]);
    for cell in report.for_shape("A") {
        let r = &cell.record;
        let scale = paper_row(cell.kernel()).map(|p| r.paper_scale(p)).unwrap_or(1.0);
        t.row(vec![
            cell.kernel().to_string(),
            r.baseline_per_block.cycles.to_string(),
            r.spu_per_block.cycles.to_string(),
            format!("{:.1}", r.pct_cycles_saved()),
            format!("{:.0}", 100.0 * r.baseline_per_block.mmx_active_fraction()),
            sci(r.baseline_per_block.cycles as f64 * scale),
            sci(r.spu_per_block.cycles as f64 * scale),
        ]);
    }
    println!("{}", t.render());
    println!("paper: \"speedups resulting from the SPU range from 4-20%\"; the");
    println!("hashed bars (MMX-active %) are large for FIR/DCT/MatMul/Transpose");
    println!("and small for IIR/FFT, which \"do not utilize the MMX efficiently\".");

    let saved: Vec<f64> =
        report.for_shape("A").iter().map(|c| c.record.pct_cycles_saved()).collect();
    let lo = saved.iter().cloned().fold(f64::MAX, f64::min);
    let hi = saved.iter().cloned().fold(f64::MIN, f64::max);
    println!("\nmeasured speedup band: {lo:.1}% .. {hi:.1}% of cycles saved");
}

//! Regenerates **Table 3**: cycles overlapped through decoupled control —
//! how many MMX permutation instructions the SPU controller absorbs, as a
//! share of MMX and of all instructions.

use subword_bench::sweep::{run_sweep, SweepConfig};
use subword_bench::{sci, Table};
use subword_kernels::paper::paper_row;
use subword_spu::SHAPE_A;

fn main() {
    println!("Table 3 — cycles overlapped through decoupled control\n");
    let run = run_sweep(&SweepConfig::paper(&[SHAPE_A]), None).expect("table 3 sweep");

    let mut t = Table::new(&[
        "algorithm",
        "overlapped (scaled)",
        "paper overlapped",
        "% MMX instr",
        "paper %",
        "% total instr",
        "paper %",
    ]);
    for cell in &run.report.cells {
        let r = &cell.record;
        let p = paper_row(&r.kernel).unwrap();
        let scale = r.paper_scale(p);
        t.row(vec![
            r.kernel.clone(),
            sci(r.offloaded_per_block() as f64 * scale),
            sci(p.cycles_overlapped),
            format!("{:.2}", r.pct_mmx_instr()),
            format!("{:.2}", p.pct_mmx_instr),
            format!("{:.2}", r.pct_total_instr()),
            format!("{:.2}", p.pct_total_instr),
        ]);
    }
    println!("{}", t.render());
    println!("paper: \"Between 11% and 93% of MMX permutation instructions are");
    println!("off-loaded to the SPU controller ... total instruction savings");
    println!("between 3.58% and 17.55%.\"  Classification differences between");
    println!("VTune's categories and ours are discussed in EXPERIMENTS.md.");
}

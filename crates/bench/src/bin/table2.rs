//! Regenerates **Table 2**: branch statistics for the media algorithms
//! on the MMX machine — demonstrating that the SPU's extra pipe stage is
//! benign because media kernels barely mispredict.

use subword_bench::sweep::{run_sweep, SweepConfig};
use subword_bench::{run_suite, sci, Table};
use subword_kernels::paper::paper_row;
use subword_spu::SHAPE_A;

fn main() {
    println!("Table 2 — branch statistics on the MMX machine\n");
    let results = run_suite(&SHAPE_A);

    let mut t = Table::new(&[
        "algorithm",
        "clocks (scaled)",
        "branches (scaled)",
        "missed (scaled)",
        "missed %",
        "paper missed %",
        "description",
    ]);
    for m in &results {
        let p = paper_row(m.name).unwrap();
        let scale = m.paper_scale(p);
        let b = &m.baseline.per_block;
        t.row(vec![
            m.name.to_string(),
            sci(b.cycles as f64 * scale),
            sci(b.branches as f64 * scale),
            sci(b.mispredicts as f64 * scale),
            format!("{:.3}", 100.0 * b.miss_per_clock()),
            format!("{:.3}", p.missed_pct),
            p.description.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("paper claim: all miss rates are tiny (<= 0.157% of clocks), so an");
    println!("extra pipeline stage for the SPU interconnect costs almost nothing.");

    // The +1-cycle sensitivity claim, measured directly: one baseline
    // sweep per penalty.
    println!("\nMispredict-penalty sensitivity (baseline machine, per block):");
    let cycles_at = |penalty: u64| -> Vec<(String, u64)> {
        let mut cfg = SweepConfig::paper(&[SHAPE_A]);
        cfg.base.mispredict_penalty = penalty;
        cfg.measure_scheduled = false;
        let run = run_sweep(&cfg, None).expect("mispredict-penalty sweep");
        run.report
            .cells
            .into_iter()
            .map(|c| (c.record.kernel, c.record.baseline_per_block.cycles))
            .collect()
    };
    let mut s = Table::new(&["algorithm", "cycles @4", "cycles @5", "delta %"]);
    for ((name, c4), (_, c5)) in cycles_at(4).into_iter().zip(cycles_at(5)) {
        s.row(vec![
            name,
            c4.to_string(),
            c5.to_string(),
            format!("{:.3}", 100.0 * (c5 as f64 - c4 as f64) / c4 as f64),
        ]);
    }
    println!("{}", s.render());
    println!("paper: \"If a single extra cycle penalty is added for each branch");
    println!("mis-predict, our results are essentially the same.\"");
}

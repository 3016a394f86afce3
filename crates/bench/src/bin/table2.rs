//! Regenerates **Table 2**: branch statistics for the media algorithms
//! on the MMX machine — demonstrating that the SPU's extra pipe stage is
//! benign because media kernels barely mispredict.

use subword_bench::{run_suite, sci, Table};
use subword_kernels::paper::paper_row;
use subword_kernels::KernelBuild;
use subword_sim::MachineConfig;
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

    // The +1-cycle sensitivity claim, measured directly.
    println!("\nMispredict-penalty sensitivity (baseline machine, per block):");
    let mut s = Table::new(&["algorithm", "cycles @4", "cycles @5", "delta %"]);
    for e in subword_kernels::suite::paper_suite() {
        let b1 = e.kernel.build(e.blocks_small);
        let b2 = e.kernel.build(e.blocks_large);
        let run = |penalty: u64| -> u64 {
            let cfg = MachineConfig { mispredict_penalty: penalty, ..MachineConfig::mmx_only() };
            let run_one = |b: &KernelBuild| {
                b.run_checked(&b.program, cfg.clone(), e.kernel.name())
                    .unwrap_or_else(|err| panic!("{err}"))
                    .stats
                    .cycles
            };
            (run_one(&b2) - run_one(&b1)) / (e.blocks_large - e.blocks_small)
        };
        let c4 = run(4);
        let c5 = run(5);
        s.row(vec![
            e.kernel.name().to_string(),
            c4.to_string(),
            c5.to_string(),
            format!("{:.3}", 100.0 * (c5 as f64 - c4 as f64) / c4 as f64),
        ]);
    }
    println!("{}", s.render());
    println!("paper: \"If a single extra cycle penalty is added for each branch");
    println!("mis-predict, our results are essentially the same.\"");
}

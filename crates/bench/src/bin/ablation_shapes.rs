//! Ablation across crossbar shapes (paper §6 discussion): how much each
//! kernel benefits under each of the four Table 1 configurations, against
//! that configuration's silicon cost — including the claim that
//! *"All the applications used in this paper can be realized with
//! configuration D"*.
//!
//! The A–D matrix comes from **one** parallel [`run_sweep`] pass instead
//! of the former four serial per-shape suite runs.

use subword_bench::sweep::{run_sweep, SweepConfig};
use subword_bench::Table;
use subword_hw::crossbar::CrossbarModel;
use subword_spu::crossbar::CANONICAL_SHAPES;

fn main() {
    println!("Ablation — SPU benefit vs crossbar configuration\n");
    let xbar = CrossbarModel::default();
    let run = run_sweep(&SweepConfig::paper(&CANONICAL_SHAPES), None).expect("shape sweep");
    let report = &run.report;

    let mut t =
        Table::new(&["benchmark", "shape", "area mm2", "offloaded/block", "cycles saved %"]);
    let mut d_matches_a = true;
    let kernels: Vec<String> =
        report.for_shape("A").iter().map(|c| c.kernel().to_string()).collect();
    for kernel in &kernels {
        let mut per_shape = Vec::new();
        for shape in CANONICAL_SHAPES {
            let cell = report.cell(kernel, shape.name).expect("cell measured");
            let r = &cell.record;
            t.row(vec![
                kernel.clone(),
                shape.name.to_string(),
                format!("{:.2}", xbar.area_mm2(&shape)),
                r.offloaded_per_block().to_string(),
                format!("{:.1}", r.pct_cycles_saved()),
            ]);
            per_shape.push((shape.name, r.offloaded_per_block()));
        }
        let a = per_shape.iter().find(|(n, _)| *n == "A").unwrap().1;
        let d = per_shape.iter().find(|(n, _)| *n == "D").unwrap().1;
        if a != d {
            d_matches_a = false;
        }
    }
    println!("{}", t.render());
    println!(
        "(matrix from one parallel sweep: {} analyses, {} cache replays)",
        report.cache.misses, report.cache.hits
    );
    if d_matches_a {
        println!("confirmed: configuration D off-loads exactly what configuration A");
        println!("does on every paper kernel (paper §5.1: \"All the applications used");
        println!("in this paper can be realized with configuration D\").");
    } else {
        println!("NOTE: some kernel off-loads fewer permutations under D than A.");
    }
}

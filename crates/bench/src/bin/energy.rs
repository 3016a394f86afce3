//! Energy ablation (extension; motivated by the paper's introduction):
//! per-kernel energy on MMX vs MMX+SPU under the first-order model of
//! `subword-hw::energy`. The SPU trades front-end fetch/decode energy of
//! the deleted permutes against control-memory reads and crossbar
//! traversals.

use subword_bench::sweep::{run_sweep, SweepConfig};
use subword_bench::Table;
use subword_hw::energy::EnergyModel;
use subword_spu::SHAPE_A;

fn main() {
    println!("Energy per block (extension; first-order 0.25um-era model)\n");
    let model = EnergyModel::default();
    let run = run_sweep(&SweepConfig::paper(&[SHAPE_A]), None).expect("energy sweep");

    let mut t = Table::new(&[
        "benchmark",
        "MMX nJ",
        "MMX+SPU nJ",
        "saved %",
        "SPU overhead nJ",
        "front-end saved nJ",
    ]);
    for cell in &run.report.cells {
        let r = &cell.record;
        let base = model.estimate(&r.baseline_per_block, None);
        let spu = model.estimate(&r.spu_per_block, Some(&SHAPE_A));
        t.row(vec![
            r.kernel.clone(),
            format!("{:.0}", base.total()),
            format!("{:.0}", spu.total()),
            format!("{:.1}", 100.0 * (1.0 - spu.total() / base.total())),
            format!("{:.0}", spu.spu),
            format!("{:.0}", base.front_end - spu.front_end),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: kernels whose permutes the SPU removes save both the");
    println!("deleted instructions' front-end energy and cycle energy; the");
    println!("controller's control-memory reads charge back a fraction of it.");
    println!("IIR/FFT barely move — their energy lives in scalar multiplies.");
}

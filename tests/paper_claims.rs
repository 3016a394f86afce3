//! Integration tests pinning the paper's evaluation claims end to end:
//! the full pipeline (kernel assembly → lifting pass → cycle simulation)
//! must reproduce the *shape* of Figure 9 and Tables 2–3.

use subword::kernels::framework::{measure, MeasureOpts, Measurement};
use subword::kernels::suite::paper_suite;
use subword::prelude::*;

fn measure_all(shape: &CrossbarShape) -> Vec<Measurement> {
    paper_suite()
        .iter()
        .map(|e| {
            measure(e.kernel, e.blocks_small, e.blocks_large, shape, &MeasureOpts::default())
                .expect("measure")
        })
        .collect()
}

fn by_name<'a>(ms: &'a [Measurement], name: &str) -> &'a Measurement {
    ms.iter().find(|m| m.name == name).unwrap()
}

#[test]
fn figure9_shape_holds() {
    let ms = measure_all(&SHAPE_A);

    // Nothing slows down, and the band tops out in double digits.
    for m in &ms {
        assert!(
            m.pct_cycles_saved() > -0.5,
            "{} slowed down: {:.2}%",
            m.name,
            m.pct_cycles_saved()
        );
    }

    // Winners: the inter-word kernels (paper §5.2.3 — "the speedups are
    // quite a bit more impressive, as shown by the DCT, matrix multiply
    // and matrix transpose kernels").
    let transpose = by_name(&ms, "Matrix Transpose").pct_cycles_saved();
    let dct = by_name(&ms, "DCT").pct_cycles_saved();
    let mm = by_name(&ms, "Matrix Multiply").pct_cycles_saved();
    let fir12 = by_name(&ms, "FIR12").pct_cycles_saved();
    let iir = by_name(&ms, "IIR").pct_cycles_saved();
    let fft1024 = by_name(&ms, "FFT1024").pct_cycles_saved();

    assert!(transpose > 8.0, "transpose saved only {transpose:.1}%");
    assert!(dct > 5.0, "dct saved only {dct:.1}%");
    assert!(mm > 5.0, "matmul saved only {mm:.1}%");
    // FIR: modest (paper ~8%, "only a small eight percent speedup").
    assert!((1.0..10.0).contains(&fir12), "fir12 saved {fir12:.1}%");
    assert!(fir12 < transpose);
    // IIR/FFT: "the SPU obviously does not impact the performance on
    // these routines".
    assert!(iir < 1.5, "iir saved {iir:.1}%");
    assert!(fft1024 < 1.5, "fft saved {fft1024:.1}%");

    // The hashed-bar story: MMX-active fraction is high for the vector
    // kernels and tiny for the scalar-bound ones.
    assert!(by_name(&ms, "FIR12").baseline.per_block.mmx_active_fraction() > 0.5);
    assert!(by_name(&ms, "DCT").baseline.per_block.mmx_active_fraction() > 0.5);
    assert!(by_name(&ms, "IIR").baseline.per_block.mmx_active_fraction() < 0.1);
    assert!(by_name(&ms, "FFT1024").baseline.per_block.mmx_active_fraction() < 0.1);
}

#[test]
fn table2_shape_holds() {
    let ms = measure_all(&SHAPE_A);
    for m in &ms {
        let rate = m.baseline.per_block.miss_per_clock();
        // Paper: all rates ≤ 0.157% of clocks; ours stay sub-0.5% (our
        // per-block loops exit more often than IPP's unrolled code —
        // see EXPERIMENTS.md).
        assert!(rate < 0.005, "{}: miss/clock {:.4}", m.name, rate);
        assert!(m.baseline.per_block.branches > 0);
    }
    // FFT128's short inner loops mispredict more than FFT1024's (paper:
    // 0.157% vs 0.066%).
    let f128 = by_name(&ms, "FFT128").baseline.per_block.miss_per_clock();
    let f1024 = by_name(&ms, "FFT1024").baseline.per_block.miss_per_clock();
    assert!(f128 > f1024, "FFT128 {f128:.5} should exceed FFT1024 {f1024:.5}");
}

#[test]
fn table3_shape_holds() {
    let ms = measure_all(&SHAPE_A);
    for m in &ms {
        let mmx_share = m.pct_mmx_instr();
        let total_share = m.pct_total_instr();
        assert!(
            (1.0..=70.0).contains(&mmx_share),
            "{}: off-load share {:.1}% of MMX",
            m.name,
            mmx_share
        );
        assert!(total_share <= 20.0, "{}: {total_share:.1}% of total", m.name);
        assert!(total_share > 0.0, "{}: nothing off-loaded", m.name);
    }
    // FIR has the lowest off-load share of MMX instructions (the
    // coefficient-replication idiom already dodges permutes); the
    // scalar kernels (IIR/FFT) have high shares of their tiny MMX
    // populations; total savings peak on the inter-word kernels.
    let fir = by_name(&ms, "FIR12").pct_mmx_instr();
    for other in ["IIR", "FFT1024", "FFT128", "DCT", "Matrix Multiply", "Matrix Transpose"] {
        assert!(
            fir < by_name(&ms, other).pct_mmx_instr(),
            "FIR12 share {:.1}% should be the lowest (vs {} at {:.1}%)",
            fir,
            other,
            by_name(&ms, other).pct_mmx_instr()
        );
    }
    let top_total = ["DCT", "Matrix Multiply", "Matrix Transpose"]
        .iter()
        .map(|n| by_name(&ms, n).pct_total_instr())
        .fold(f64::MIN, f64::max);
    let scalar_top = ["IIR", "FFT1024", "FFT128"]
        .iter()
        .map(|n| by_name(&ms, n).pct_total_instr())
        .fold(f64::MIN, f64::max);
    assert!(top_total > 3.0 * scalar_top);
}

#[test]
fn shape_d_suffices_for_all_kernels() {
    // Paper §5.1: "All the applications used in this paper can be
    // realized with configuration D".
    let a = measure_all(&SHAPE_A);
    let d = measure_all(&SHAPE_D);
    for (ma, md) in a.iter().zip(&d) {
        assert_eq!(
            ma.offloaded_per_block(),
            md.offloaded_per_block(),
            "{}: shape D off-loads less than shape A",
            ma.name
        );
    }
}

#[test]
fn spu_pipe_stage_is_benign() {
    // §5.1: the extra pipeline stage costs ≤ mispredicts × 1 cycle,
    // which is < 0.5% of cycles on every kernel.
    for e in paper_suite() {
        let opts = MeasureOpts::default();
        let m = measure(e.kernel, e.blocks_small, e.blocks_large, &SHAPE_A, &opts).unwrap();
        let extra = m.baseline.per_block.mispredicts as f64;
        let frac = extra / m.baseline.per_block.cycles as f64;
        assert!(frac < 0.005, "{}: pipe-stage cost {frac:.4}", e.kernel.name());
    }
}

#[test]
fn die_overhead_near_one_percent() {
    use subword::hw::die::DieOverhead;
    use subword::hw::technology::Technology;
    // The shape that suffices for every kernel (D), single context, at
    // the paper's 0.18um node.
    let o = DieOverhead::evaluate(&SHAPE_D, 1, &Technology::PIII_018);
    assert!(o.die_fraction < 0.02, "shape D costs {:.2}% of the die", 100.0 * o.die_fraction);
}

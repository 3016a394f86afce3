//! Order-10 IIR filter (paper benchmark "IIR") — the serial-recurrence
//! workload.
//!
//! The feedback dependence defeats vectorisation, so (as in IPP, per the
//! paper's §5.2.2: "neither the FFT or IIR filter routines from the IPP
//! package utilize the MMX efficiently") the recurrence runs on the
//! scalar pipeline — 21 blocking `imul`s per sample — while MMX only
//! handles the block-edge format conversions: sign-extension widening of
//! the input (copy + self-unpack + arithmetic shift) and saturating
//! narrowing of the output (`packssdw`). Nearly all of that small MMX
//! population is realignment, which is why the paper's Table 3 shows the
//! IIR with the *highest* off-loaded share of MMX instructions and
//! Figure 9 shows almost no overall speedup.

use crate::framework::{Kernel, KernelBuild};
use crate::refimpl::iir;
use crate::suite::Family;
use crate::workload::{coefficients, samples, to_bytes};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_X: u32 = 0x1_0000;
/// x32 working buffer, with 16 zero dwords of leading history padding.
const A_X32: u32 = 0x3_0000;
const A_Y32: u32 = 0x4_0000;
const A_OUT: u32 = 0x5_0000;
const PAD_DWORDS: u32 = 16;

/// Samples per block (paper: 150-sample blocks; rounded to a multiple of
/// four for the widening/narrowing groups).
pub const BLOCK_SAMPLES: usize = 152;

/// Feed-forward taps (order 10 ⇒ b0..b10).
const B_TAPS: usize = 11;
/// Feedback taps (a1..a10).
const A_TAPS: usize = 10;

/// The order-10 IIR kernel.
pub struct Iir10;

impl Iir10 {
    fn coeffs() -> (Vec<i16>, Vec<i16>) {
        let b = coefficients(0x11B, B_TAPS);
        // Mild feedback keeps the filter stable and saturation-free.
        let na: Vec<i16> = coefficients(0x11A, A_TAPS).iter().map(|&v| v / 2).collect();
        (b, na)
    }
}

impl Kernel for Iir10 {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        "IIR"
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let x = samples(0x11F, BLOCK_SAMPLES, 8000);
        let (bc, nac) = Self::coeffs();
        let groups = BLOCK_SAMPLES / 4;

        let x32_base = (A_X32 + PAD_DWORDS * 4) as i32;
        let y32_base = (A_Y32 + PAD_DWORDS * 4) as i32;

        let mut b = ProgramBuilder::new("iir10-mmx");
        b.mov_ri(R9, blocks as i32);
        let outer = b.bind_here("outer");

        // --- Widening pass: i16 x -> i32 x32 (MMX sign extension). ---
        b.mov_ri(R0, A_X as i32);
        b.mov_ri(R1, x32_base);
        b.mov_ri(R3, groups as i32);
        let widen = b.bind_here("widen");
        b.movq_load(MM0, Mem::base(R0));
        b.movq_rr(MM1, MM0); // liftable copy
        b.mmx_rr(MmxOp::Punpcklwd, MM0, MM0); // [w0 w0 w1 w1] (liftable)
        b.mmx_rr(MmxOp::Punpckhwd, MM1, MM1); // [w2 w2 w3 w3] (liftable)

        // mm1's shift comes first: once the realignments are lifted, its
        // operand routes from mm0's raw load value, so mm0 must not yet
        // be rewritten (SPU-aware schedule).
        b.mmx_ri(MmxOp::Psrad, MM1, 16); // sign-extended w2, w3
        b.mmx_ri(MmxOp::Psrad, MM0, 16); // sign-extended w0, w1
        b.movq_store(Mem::base(R1), MM0);
        b.movq_store(Mem::base_disp(R1, 8), MM1);
        b.alu_ri(AluOp::Add, R0, 8);
        b.alu_ri(AluOp::Add, R1, 16);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, widen);
        b.mark_loop(widen, Some(groups as u64));

        // --- Scalar recurrence: 21 multiplies per sample. ---
        b.mov_ri(R0, x32_base);
        b.mov_ri(R1, y32_base);
        b.mov_ri(R3, BLOCK_SAMPLES as i32);
        let rec = b.bind_here("recur");
        // acc = Σ b_k·x32[n−k] + Σ na_k·y32[n−k]
        b.load(R4, Mem::base(R0));
        b.alu_ri(AluOp::Imul, R4, bc[0] as i32);
        b.mov_rr(R5, R4);
        for (k, &bk) in bc.iter().enumerate().skip(1) {
            b.load(R4, Mem::base_disp(R0, -(4 * k as i32)));
            b.alu_ri(AluOp::Imul, R4, bk as i32);
            b.alu_rr(AluOp::Add, R5, R4);
        }
        for (k1, &ak) in nac.iter().enumerate() {
            let k = k1 + 1;
            b.load(R4, Mem::base_disp(R1, -(4 * k as i32)));
            b.alu_ri(AluOp::Imul, R4, ak as i32);
            b.alu_rr(AluOp::Add, R5, R4);
        }
        b.alu_ri(AluOp::Sar, R5, 15);
        b.store(Mem::base(R1), R5);
        b.alu_ri(AluOp::Add, R0, 4);
        b.alu_ri(AluOp::Add, R1, 4);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, rec);
        b.mark_loop(rec, Some(BLOCK_SAMPLES as u64));

        // --- Narrowing pass: i32 y32 -> i16 out (saturating pack). ---
        b.mov_ri(R1, y32_base);
        b.mov_ri(R2, A_OUT as i32);
        b.mov_ri(R3, groups as i32);
        let narrow = b.bind_here("narrow");
        b.movq_load(MM0, Mem::base(R1));
        b.movq_load(MM1, Mem::base_disp(R1, 8));
        b.mmx_rr(MmxOp::Packssdw, MM0, MM1); // saturating (not liftable)
        b.movq_store(Mem::base(R2), MM0);
        b.alu_ri(AluOp::Add, R1, 16);
        b.alu_ri(AluOp::Add, R2, 8);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, narrow);
        b.mark_loop(narrow, Some(groups as u64));

        b.alu_ri(AluOp::Sub, R9, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, Some(blocks));
        b.halt();

        let y = iir(&x, &bc, &nac);
        KernelBuild {
            program: b.finish().expect("iir assembles"),
            setup: TestSetup {
                mem_init: vec![(A_X, to_bytes(&x))],
                outputs: vec![(A_OUT, BLOCK_SAMPLES * 2)],
                ..Default::default()
            },
            expected: vec![(A_OUT, to_bytes(&y))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::SHAPE_A;

    #[test]
    fn mmx_variant_matches_reference() {
        let build = Iir10.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "iir").unwrap();
    }

    #[test]
    fn scalar_recurrence_dominates_and_spu_barely_helps() {
        let meas = measure(&Iir10, 2, 4, &SHAPE_A, &MeasureOpts::default()).unwrap();
        // MMX is a sliver of the instruction stream (paper: ~7%).
        assert!(
            meas.baseline.per_block.mmx_fraction() < 0.15,
            "mmx fraction {:.3}",
            meas.baseline.per_block.mmx_fraction()
        );
        // ... but most of that sliver is liftable realignment: the
        // widening copies and self-unpacks all lift (3 per group).
        assert_eq!(meas.offloaded_per_block(), 3 * (BLOCK_SAMPLES as u64 / 4));
        let share = meas.pct_mmx_instr();
        assert!(share > 20.0, "IIR off-load share should be high, got {share:.1}%");
        // Overall speedup is negligible (paper Figure 9: no visible bar
        // change): the 9-cycle scalar multiplies dominate.
        let saved = meas.pct_cycles_saved();
        assert!((-1.0..4.0).contains(&saved), "IIR saved {saved:.1}%");
        // 21 multiplies per sample are the bottleneck.
        assert_eq!(meas.baseline.per_block.scalar_multiplies, 21 * BLOCK_SAMPLES as u64);
    }
}

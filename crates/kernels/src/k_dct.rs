//! 8×8 DCT (paper benchmark "DCT") — row pass, transpose, column pass.
//!
//! Each 1-D pass forms every coefficient as a `pmaddwd` dot product of
//! the input row against a Q13 cosine row, with the horizontal-add
//! copy/shift idiom; the intermediate transpose is a Figure 3 unpack
//! network on the four 4×4 tiles of the 8×8 block. The transpose plus
//! the per-output horizontal adds give the DCT its high off-loadable
//! share (paper: ~24 % of MMX instructions, 16.75 % of all instructions).

use crate::framework::{Kernel, KernelBuild};
use crate::refimpl::{dct8_coefficients, dct8x8};
use crate::suite::Family;
use crate::workload::{samples, to_bytes, to_bytes_u32};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_SRC: u32 = 0x1_0000;
const A_COEFF: u32 = 0x2_0000;
const A_TMP: u32 = 0x3_0000;
const A_TMP2: u32 = 0x4_0000;
const A_OUT: u32 = 0x5_0000;
const A_TILETAB: u32 = 0x6_0000;

const ROW_BYTES: i32 = 16;

/// The 8×8 DCT kernel.
pub struct Dct8x8;

/// Emit one 1-D DCT pass: 8 rows from `src_base` to `dst_base`, each row
/// unrolled over the 8 outputs. Returns nothing; marks the loop.
fn emit_pass(b: &mut ProgramBuilder, name: &str, src_base: u32, dst_base: u32) {
    b.mov_ri(R0, src_base as i32);
    b.mov_ri(R2, dst_base as i32);
    b.mov_ri(R3, 8);
    let l = b.bind_here(name);
    // SPU-aware allocation: route sources stay inside mm0..mm2 so the
    // smallest crossbar window (shape D) expresses every lift. Row
    // halves in mm2/mm3, accumulator mm0, scratch mm1.
    b.movq_load(MM2, Mem::base(R0));
    b.movq_load(MM3, Mem::base_disp(R0, 8));
    for u in 0..8i32 {
        // Copy-then-destroy pmaddwd idiom for the low chunk (the copy
        // lifts); coefficient load for the high chunk.
        b.movq_rr(MM0, MM2); // liftable copy
        b.mmx_rm(MmxOp::Pmaddwd, MM0, Mem::abs(A_COEFF + (u * 16) as u32));
        b.movq_load(MM1, Mem::abs(A_COEFF + (u * 16 + 8) as u32));
        b.mmx_rr(MmxOp::Pmaddwd, MM1, MM3);
        b.mmx_rr(MmxOp::Paddd, MM0, MM1);
        b.movq_rr(MM1, MM0); // liftable horizontal-add copy
        b.mmx_ri(MmxOp::Psrlq, MM1, 32);
        b.mmx_rr(MmxOp::Paddd, MM0, MM1);
        b.mmx_ri(MmxOp::Psrad, MM0, 13);
        b.movd_from_mm(R4, MM0);
        b.store_w(Mem::base_disp(R2, u * 2), R4);
    }
    b.alu_ri(AluOp::Add, R0, ROW_BYTES);
    b.alu_ri(AluOp::Add, R2, ROW_BYTES);
    b.alu_ri(AluOp::Sub, R3, 1);
    b.jcc(Cond::Ne, l);
    b.mark_loop(l, Some(8));
}

impl Kernel for Dct8x8 {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        "DCT"
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let src = samples(0xDC7, 64, 4000);
        let coeff = dct8_coefficients();
        let coeff_flat: Vec<i16> = coeff.iter().flatten().copied().collect();

        // 8×8 transpose = four 4×4 tiles, row stride 16 bytes.
        let mut tab = Vec::new();
        for ti in 0..2u32 {
            for tj in 0..2u32 {
                tab.push(A_TMP + ti * 4 * ROW_BYTES as u32 + tj * 8);
                tab.push(A_TMP2 + tj * 4 * ROW_BYTES as u32 + ti * 8);
            }
        }

        let mut b = ProgramBuilder::new("dct8x8-mmx");
        b.mov_ri(R9, blocks as i32);
        let outer = b.bind_here("outer");
        // Row pass: SRC -> TMP.
        emit_pass(&mut b, "rows", A_SRC, A_TMP);
        // Transpose TMP -> TMP2 (Figure 3 tiles).
        b.mov_ri(R3, 4);
        b.mov_ri(R7, A_TILETAB as i32);
        let tile = b.bind_here("tile");
        b.load(R0, Mem::base(R7));
        b.load(R1, Mem::base_disp(R7, 4));
        b.movq_load(MM0, Mem::base(R0));
        b.movq_load(MM2, Mem::base_disp(R0, 2 * ROW_BYTES));
        b.movq_rr(MM1, MM0);
        b.movq_rr(MM3, MM2);
        b.mmx_rm(MmxOp::Punpcklwd, MM0, Mem::base_disp(R0, ROW_BYTES));
        b.mmx_rm(MmxOp::Punpckhwd, MM1, Mem::base_disp(R0, ROW_BYTES));
        b.mmx_rm(MmxOp::Punpcklwd, MM2, Mem::base_disp(R0, 3 * ROW_BYTES));
        b.mmx_rm(MmxOp::Punpckhwd, MM3, Mem::base_disp(R0, 3 * ROW_BYTES));
        b.movq_rr(MM4, MM0);
        b.mmx_rr(MmxOp::Punpckldq, MM0, MM2);
        b.mmx_rr(MmxOp::Punpckhdq, MM4, MM2);
        b.movq_rr(MM5, MM1);
        b.mmx_rr(MmxOp::Punpckldq, MM1, MM3);
        b.mmx_rr(MmxOp::Punpckhdq, MM5, MM3);
        b.movq_store(Mem::base(R1), MM0);
        b.movq_store(Mem::base_disp(R1, ROW_BYTES), MM4);
        b.movq_store(Mem::base_disp(R1, 2 * ROW_BYTES), MM1);
        b.movq_store(Mem::base_disp(R1, 3 * ROW_BYTES), MM5);
        b.alu_ri(AluOp::Add, R7, 8);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, tile);
        b.mark_loop(tile, Some(4));
        // Column pass (rows of the transposed block): TMP2 -> OUT.
        emit_pass(&mut b, "cols", A_TMP2, A_OUT);
        b.alu_ri(AluOp::Sub, R9, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, Some(blocks));
        b.halt();

        let out = dct8x8(&src);
        KernelBuild {
            program: b.finish().expect("dct assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_SRC, to_bytes(&src)),
                    (A_COEFF, to_bytes(&coeff_flat)),
                    (A_TILETAB, to_bytes_u32(&tab)),
                ],
                outputs: vec![(A_OUT, 128)],
                ..Default::default()
            },
            expected: vec![(A_OUT, to_bytes(&out))],
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
        let build = Dct8x8.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "dct").unwrap();
    }

    #[test]
    fn spu_lifts_transpose_and_horizontal_adds() {
        let meas = measure(&Dct8x8, 2, 5, &SHAPE_A, &MeasureOpts::default()).unwrap();
        // Row+col passes: 8 rows × 8 outputs × 2 copies × 2 passes;
        // transpose: 4 tiles × 6 liftable.
        assert_eq!(meas.offloaded_per_block(), 256 + 24);
        let saved = meas.pct_cycles_saved();
        assert!(saved > 4.0, "dct should save >4%, got {saved:.1}%");
        assert!(meas.baseline.per_block.mmx_fraction() > 0.6);
    }
}

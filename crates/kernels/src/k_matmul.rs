//! 16×16 16-bit matrix multiply (paper benchmark "Matrix Multiply").
//!
//! IPP-style structure: transpose `B` once per block (tile unpack
//! network — the inter-word-restricted part), then form each output as a
//! four-group `pmaddwd` dot product of an `A` row against a `Bᵀ` row,
//! with a horizontal-add copy/shift to fold the two dword partial sums —
//! Q15 rescaled and stored as i16.

use crate::framework::{Kernel, KernelBuild};
use crate::refimpl::matmul16;
use crate::suite::Family;
use crate::workload::{matrix, to_bytes, to_bytes_u32};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_A: u32 = 0x1_0000;
const A_B: u32 = 0x1_8000;
const A_BT: u32 = 0x4_0000;
const A_C: u32 = 0x5_0000;
const A_TILETAB: u32 = 0x6_0000;

const N: usize = 16;
const ROW_BYTES: i32 = 32;

/// The 16×16 16-bit matrix-multiply kernel.
pub struct MatMul16;

impl Kernel for MatMul16 {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        "Matrix Multiply"
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let a = matrix(0xA1A, N, N, 8000);
        let bm = matrix(0xB1B, N, N, 8000);

        let mut tab = Vec::new();
        for ti in 0..4u32 {
            for tj in 0..4u32 {
                tab.push(A_B + ti * 4 * ROW_BYTES as u32 + tj * 8);
                tab.push(A_BT + tj * 4 * ROW_BYTES as u32 + ti * 8);
            }
        }

        let mut b = ProgramBuilder::new("matmul16-mmx");
        b.mov_ri(R9, blocks as i32);
        let outer = b.bind_here("outer");
        // --- Transpose B into BT (Figure 3 tile network). ---
        b.mov_ri(R3, 16);
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
        b.mark_loop(tile, Some(16));
        // --- C = A × B via pmaddwd dot products. ---
        b.mov_ri(R5, 0); // row byte offset (i * 32)
        b.mov_ri(R6, N as i32); // i counter
        let iloop = b.bind_here("iloop");
        // SPU-aware register allocation: every lifted route's source must
        // sit in one 4-register window (mm1..mm4) so the smallest
        // crossbar (shape D) can express the kernel — the paper's §5.1
        // claim. A-row chunks land in mm3..mm6, accumulator in mm1,
        // scratch in mm2.
        b.lea(R0, Mem::base_disp(R5, A_A as i32));
        b.movq_load(MM3, Mem::base(R0));
        b.movq_load(MM4, Mem::base_disp(R0, 8));
        b.movq_load(MM5, Mem::base_disp(R0, 16));
        b.movq_load(MM6, Mem::base_disp(R0, 24));
        b.mov_ri(R1, A_BT as i32);
        b.lea(R2, Mem::base_disp(R5, A_C as i32));
        b.mov_ri(R3, N as i32); // j counter
        let jloop = b.bind_here("jloop");
        // First two chunks use the copy-then-destroy idiom (the copies
        // lift); the last two load Bᵀ chunks into the scratch register.
        b.movq_rr(MM1, MM3); // liftable copy
        b.mmx_rm(MmxOp::Pmaddwd, MM1, Mem::base(R1));
        b.movq_rr(MM2, MM4); // liftable copy
        b.mmx_rm(MmxOp::Pmaddwd, MM2, Mem::base_disp(R1, 8));
        b.mmx_rr(MmxOp::Paddd, MM1, MM2);
        b.movq_load(MM2, Mem::base_disp(R1, 16));
        b.mmx_rr(MmxOp::Pmaddwd, MM2, MM5);
        b.mmx_rr(MmxOp::Paddd, MM1, MM2);
        b.movq_load(MM2, Mem::base_disp(R1, 24));
        b.mmx_rr(MmxOp::Pmaddwd, MM2, MM6);
        b.mmx_rr(MmxOp::Paddd, MM1, MM2);
        b.movq_rr(MM2, MM1); // liftable horizontal-add copy
        b.mmx_ri(MmxOp::Psrlq, MM2, 32);
        b.mmx_rr(MmxOp::Paddd, MM1, MM2);
        b.mmx_ri(MmxOp::Psrad, MM1, 15);
        b.movd_from_mm(R4, MM1);
        b.store_w(Mem::base(R2), R4);
        b.alu_ri(AluOp::Add, R1, ROW_BYTES);
        b.alu_ri(AluOp::Add, R2, 2);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, jloop);
        b.mark_loop(jloop, Some(N as u64));
        b.alu_ri(AluOp::Add, R5, ROW_BYTES);
        b.alu_ri(AluOp::Sub, R6, 1);
        b.jcc(Cond::Ne, iloop);
        b.mark_loop(iloop, Some(N as u64));
        b.alu_ri(AluOp::Sub, R9, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, Some(blocks));
        b.halt();

        let c = matmul16(&a, &bm);
        KernelBuild {
            program: b.finish().expect("matmul assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_A, to_bytes(&a)),
                    (A_B, to_bytes(&bm)),
                    (A_TILETAB, to_bytes_u32(&tab)),
                ],
                outputs: vec![(A_C, N * N * 2)],
                ..Default::default()
            },
            expected: vec![(A_C, to_bytes(&c))],
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
        let build = MatMul16.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "matmul").unwrap();
    }

    #[test]
    fn spu_lifts_transpose_and_horizontal_adds() {
        let meas = measure(&MatMul16, 2, 4, &SHAPE_A, &MeasureOpts::default()).unwrap();
        // Transpose tiles: 6×16 (two row copies per tile stay, clobbered
        // by the kept memory-source unpacks); j-loop: 3 copies × 256
        // outputs.
        assert_eq!(meas.offloaded_per_block(), 6 * 16 + 3 * 256);
        let saved = meas.pct_cycles_saved();
        assert!(saved > 4.0, "matmul should save >4%, got {saved:.1}%");
        // Off-loaded share of MMX instructions near the paper's 18.7%.
        let share = meas.pct_mmx_instr();
        assert!((5.0..30.0).contains(&share), "offload share {share:.1}%");
        assert!(meas.baseline.per_block.mmx_fraction() > 0.6);
    }
}

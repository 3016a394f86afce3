//! 16×16 16-bit matrix transpose (paper benchmark "Matrix Transpose") —
//! the canonical *inter-word restriction* workload (paper §2.2,
//! Figure 3).
//!
//! The MMX variant processes sixteen 4×4 tiles through the Figure 3
//! unpack network (memory-source unpacks fold half the merges into the
//! loads, as IPP-era code did), staging the result and copying it out —
//! the cache-blocked structure of an out-of-place library transpose.
//! With the SPU, the column gathers ride the stores' operand routing and
//! every register-source unpack and copy disappears.

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::transpose;
use crate::suite::Family;
use crate::workload::{matrix, to_bytes, to_bytes_u32};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_SRC: u32 = 0x1_0000;
const A_STAGE: u32 = 0x4_0000;
const A_DST: u32 = 0x5_0000;
const A_TILETAB: u32 = 0x6_0000;

const N: usize = 16;
const ROW_BYTES: i32 = 32;

/// The 16×16 16-bit transpose kernel.
pub struct Transpose16;

impl Kernel for Transpose16 {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        "Matrix Transpose"
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let src = matrix(0x7A05, N, N, 30000);

        // Tile table: (src address, staging address) per 4×4 tile.
        let mut tab = Vec::new();
        for ti in 0..4u32 {
            for tj in 0..4u32 {
                tab.push(A_SRC + ti * 4 * ROW_BYTES as u32 + tj * 8);
                tab.push(A_STAGE + tj * 4 * ROW_BYTES as u32 + ti * 8);
            }
        }

        let mut b = ProgramBuilder::new("transpose16-mmx");
        let outer = b.bind_here("outer");
        b.mov_ri(R3, 16);
        b.mov_ri(R7, A_TILETAB as i32);
        let tile = b.bind_here("tile");
        b.load(R0, Mem::base(R7)); // src tile base
        b.load(R1, Mem::base_disp(R7, 4)); // staging tile base

        // Rows a (row0) and c (row2).
        b.movq_load(MM0, Mem::base(R0));
        b.movq_load(MM2, Mem::base_disp(R0, 2 * ROW_BYTES));
        b.movq_rr(MM1, MM0); // liftable copy
        b.movq_rr(MM3, MM2); // liftable copy

        // Merge in rows b (row1) and d (row3) straight from memory.
        b.mmx_rm(MmxOp::Punpcklwd, MM0, Mem::base_disp(R0, ROW_BYTES)); // a0 b0 a1 b1
        b.mmx_rm(MmxOp::Punpckhwd, MM1, Mem::base_disp(R0, ROW_BYTES)); // a2 b2 a3 b3
        b.mmx_rm(MmxOp::Punpcklwd, MM2, Mem::base_disp(R0, 3 * ROW_BYTES)); // c0 d0 c1 d1
        b.mmx_rm(MmxOp::Punpckhwd, MM3, Mem::base_disp(R0, 3 * ROW_BYTES)); // c2 d2 c3 d3

        // Column assembly (all liftable).
        b.movq_rr(MM4, MM0);
        b.mmx_rr(MmxOp::Punpckldq, MM0, MM2); // a0 b0 c0 d0
        b.mmx_rr(MmxOp::Punpckhdq, MM4, MM2); // a1 b1 c1 d1
        b.movq_rr(MM5, MM1);
        b.mmx_rr(MmxOp::Punpckldq, MM1, MM3); // a2 b2 c2 d2
        b.mmx_rr(MmxOp::Punpckhdq, MM5, MM3); // a3 b3 c3 d3
        b.movq_store(Mem::base(R1), MM0);
        b.movq_store(Mem::base_disp(R1, ROW_BYTES), MM4);
        b.movq_store(Mem::base_disp(R1, 2 * ROW_BYTES), MM1);
        b.movq_store(Mem::base_disp(R1, 3 * ROW_BYTES), MM5);
        b.alu_ri(AluOp::Add, R7, 8);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, tile);
        b.mark_loop(tile, Some(16));
        // Copy the staged result out (cache-blocked out-of-place write),
        // 16 bytes per iteration.
        b.mov_ri(R0, A_STAGE as i32);
        b.mov_ri(R1, A_DST as i32);
        b.mov_ri(R3, (N * N / 8) as i32);
        let copy = b.bind_here("copy");
        b.movq_load(MM6, Mem::base(R0));
        b.movq_load(MM7, Mem::base_disp(R0, 8));
        b.movq_store(Mem::base(R1), MM6);
        b.movq_store(Mem::base_disp(R1, 8), MM7);
        b.alu_ri(AluOp::Add, R0, 16);
        b.alu_ri(AluOp::Add, R1, 16);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, copy);
        b.mark_loop(copy, Some((N * N / 8) as u64));
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let out = transpose(&src, N, N);
        KernelBuild {
            program: b.finish().expect("transpose assembles"),
            setup: TestSetup {
                mem_init: vec![(A_SRC, to_bytes(&src)), (A_TILETAB, to_bytes_u32(&tab))],
                outputs: vec![(A_DST, N * N * 2)],
                reg_init: vec![block_count(blocks)],
                ..Default::default()
            },
            expected: vec![(A_DST, to_bytes(&out))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::{SHAPE_A, SHAPE_D};

    #[test]
    fn mmx_variant_matches_reference() {
        let build = Transpose16.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "transpose").unwrap();
    }

    #[test]
    fn spu_removes_all_register_permutes() {
        let meas = measure(&Transpose16, 2, 5, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        // Per tile: the two column-assembly copies and the four dq
        // unpacks lift. The two row copies (mm1, mm3) must stay: their
        // source registers are clobbered by the kept memory-source
        // unpacks before the consumers read them.
        assert_eq!(meas.offloaded_per_block(), 6 * 16);
        assert_eq!(meas.spu_per_block.mmx_realignments, 2 * 16);
        // Inter-word kernel: the SPU's biggest win (paper: top of the
        // 4-20% band).
        let saved = meas.pct_cycles_saved();
        assert!(saved > 8.0, "transpose should save >8% of cycles, got {saved:.1}%");
        // MMX dominates the instruction stream (paper: 87%).
        assert!(meas.baseline_per_block.mmx_fraction() > 0.6);
    }

    #[test]
    fn word_granular_tiles_fit_shape_d() {
        let meas = measure(&Transpose16, 2, 4, &SHAPE_D, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas.offloaded_per_block(), 6 * 16);
    }
}

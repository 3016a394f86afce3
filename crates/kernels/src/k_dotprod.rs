//! The paper's running example (Figure 5): packed dot-product with
//! cross-element sub-word alignment.
//!
//! Per group of four 16-bit elements from `X = [a b c d]` and
//! `Y = [e f g h]`, compute the low and high halves of
//! `[a e b f] × [c g d h]`. On plain MMX the operand alignment costs two
//! unpacks and two register copies per group; the SPU routes the
//! multiplier operands directly (Figure 7).

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::figure5_products;
use crate::suite::Family;
use crate::workload::{samples, to_bytes};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_X: u32 = 0x1_0000;
const A_Y: u32 = 0x1_8000;
const A_OUT: u32 = 0x5_0000;

/// Number of 4-element groups per block.
pub const GROUPS: usize = 32;

/// The Figure 5 dot-product kernel.
pub struct DotProd;

impl Kernel for DotProd {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        "DotProd"
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let x = samples(0xD07, GROUPS * 4, 12000);
        let y = samples(0xD08, GROUPS * 4, 12000);

        let mut b = ProgramBuilder::new("dotprod-mmx");
        let outer = b.bind_here("outer");
        b.mov_ri(R0, A_X as i32);
        b.mov_ri(R1, A_Y as i32);
        b.mov_ri(R2, A_OUT as i32);
        b.mov_ri(R3, GROUPS as i32);
        let l = b.bind_here("group");
        b.movq_load(MM0, Mem::base(R0)); // [a b c d]
        b.movq_load(MM1, Mem::base(R1)); // [e f g h]
        b.movq_rr(MM2, MM0);
        b.mmx_rr(MmxOp::Punpcklwd, MM2, MM1); // [a e b f]
        b.mmx_rr(MmxOp::Punpckhwd, MM0, MM1); // [c g d h]
        b.movq_rr(MM3, MM2);
        b.mmx_rr(MmxOp::Pmullw, MM2, MM0); // low products
        b.mmx_rr(MmxOp::Pmulhw, MM3, MM0); // high products
        b.movq_store(Mem::base(R2), MM2);
        b.movq_store(Mem::base_disp(R2, 8), MM3);
        b.alu_ri(AluOp::Add, R0, 8);
        b.alu_ri(AluOp::Add, R1, 8);
        b.alu_ri(AluOp::Add, R2, 16);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, l);
        b.mark_loop(l, Some(GROUPS as u64));
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let (lo, hi) = figure5_products(&x, &y);
        // Output layout: per group, 8 bytes of low halves then 8 bytes of
        // high halves.
        let mut expected = Vec::with_capacity(GROUPS * 16);
        for g in 0..GROUPS {
            expected.extend(to_bytes(&lo[4 * g..4 * g + 4]));
            expected.extend(to_bytes(&hi[4 * g..4 * g + 4]));
        }

        KernelBuild {
            program: b.finish().expect("dotprod assembles"),
            setup: TestSetup {
                mem_init: vec![(A_X, to_bytes(&x)), (A_Y, to_bytes(&y))],
                outputs: vec![(A_OUT, GROUPS * 16)],
                reg_init: vec![block_count(blocks)],
                ..Default::default()
            },
            expected: vec![(A_OUT, expected)],
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
        let build = DotProd.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "dotprod").unwrap();
    }

    #[test]
    fn measured_speedup_and_offload() {
        let meas = measure(&DotProd, 2, 6, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        // Four realignments per group lift.
        assert_eq!(meas.offloaded_per_block(), 4 * GROUPS as u64);
        assert!(meas.speedup() > 1.05, "dot product should speed up, got {:.3}", meas.speedup());
        // Shape D suffices (paper §5.1).
        let meas_d = measure(&DotProd, 2, 6, &SHAPE_D, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas_d.offloaded_per_block(), 4 * GROUPS as u64);
    }
}

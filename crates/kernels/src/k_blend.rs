//! Per-pixel alpha blend over packed bytes — the pixel family's
//! *routed-multiplier* workload.
//!
//! `out = dst + ((src − dst)·α >> 7)` with a Q7 alpha plane
//! (`α ∈ 0..=128`), the compositing form whose product
//! (±255 · 128 = ±32640) exactly fills the signed-16 multiplier. Per
//! four pixels the kernel zero-extends src/dst/α bytes to words
//! (register-source `punpcklbw` against a zero register), takes the
//! signed difference, multiplies by alpha (`pmullw`), arithmetic-shifts
//! back and re-packs. After lifting, *all three* operand interleaves
//! ride SPU routes — including the `pmullw` operand, the paper's
//! Figure 7 pattern of a multiplier fed directly from routed bytes.

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::alpha_blend;
use crate::suite::Family;
use crate::workload::{pixels, pixels_max};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_SRC: u32 = 0x1_0000;
const A_DST: u32 = 0x1_4000;
const A_ALPHA: u32 = 0x1_8000;
const A_OUT: u32 = 0x5_0000;

/// Pixels blended per block.
pub const PIXELS: usize = 64;

/// The packed-byte alpha-blend kernel.
pub struct AlphaBlend;

impl Kernel for AlphaBlend {
    fn name(&self) -> &'static str {
        "Blend"
    }

    fn family(&self) -> Family {
        Family::Pixel
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let src = pixels(0xB1, PIXELS);
        let dst = pixels(0xB2, PIXELS);
        let alpha = pixels_max(0xB3, PIXELS, 128);

        let mut b = ProgramBuilder::new("blend-mmx");
        b.mmx_rr(MmxOp::Pxor, MM7, MM7); // zero register
        let outer = b.bind_here("outer");
        b.mov_ri(R0, A_SRC as i32);
        b.mov_ri(R1, A_DST as i32);
        b.mov_ri(R2, A_ALPHA as i32);
        b.mov_ri(R3, A_OUT as i32);
        b.mov_ri(R6, (PIXELS / 4) as i32);
        let group = b.bind_here("group");
        b.movd_load(MM4, Mem::base(R0)); // src bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM4, MM7); // liftable: src words
        b.movd_load(MM5, Mem::base(R1)); // dst bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM5, MM7); // liftable: dst words
        b.movd_load(MM6, Mem::base(R2)); // alpha bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM6, MM7); // liftable: alpha words
        b.movq_rr(MM0, MM4); // liftable copy
        b.mmx_rr(MmxOp::Psubw, MM0, MM5); // src − dst
        b.mmx_rr(MmxOp::Pmullw, MM0, MM6); // · alpha (routed multiplier)
        b.mmx_ri(MmxOp::Psraw, MM0, 7); // Q7 rescale, round toward −∞
        b.mmx_rr(MmxOp::Paddw, MM0, MM5); // + dst
        b.mmx_rr(MmxOp::Packuswb, MM0, MM0);
        b.movd_store(Mem::base(R3), MM0);
        b.alu_ri(AluOp::Add, R0, 4);
        b.alu_ri(AluOp::Add, R1, 4);
        b.alu_ri(AluOp::Add, R2, 4);
        b.alu_ri(AluOp::Add, R3, 4);
        b.alu_ri(AluOp::Sub, R6, 1);
        b.jcc(Cond::Ne, group);
        b.mark_loop(group, Some((PIXELS / 4) as u64));
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let out = alpha_blend(&src, &dst, &alpha);
        KernelBuild {
            program: b.finish().expect("blend assembles"),
            setup: TestSetup {
                mem_init: vec![(A_SRC, src), (A_DST, dst), (A_ALPHA, alpha)],
                outputs: vec![(A_OUT, PIXELS)],
                reg_init: vec![block_count(blocks)],
                ..Default::default()
            },
            expected: vec![(A_OUT, out)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::{SHAPE_A, SHAPE_B};

    #[test]
    fn mmx_variant_matches_reference() {
        let build = AlphaBlend.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "blend").unwrap();
    }

    #[test]
    fn operand_interleaves_lift_including_the_multiplier() {
        // 3 widening unpacks + 1 copy per 4-pixel group.
        let meas = measure(&AlphaBlend, 2, 6, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas.offloaded_per_block(), 4 * (PIXELS as u64 / 4));
        // The SPU variant still multiplies every group: the pmullw reads
        // its alpha operand through a route instead of an unpacked
        // register.
        assert_eq!(meas.spu_per_block.mmx_multiplies, meas.baseline_per_block.mmx_multiplies);
        assert!(meas.speedup() > 1.0, "blend should speed up, got {:.3}", meas.speedup());
        // The whole network sits in the mm4..mm7 window.
        let meas_b =
            measure(&AlphaBlend, 2, 6, &SHAPE_B, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas_b.offloaded_per_block(), 4 * (PIXELS as u64 / 4));
    }
}

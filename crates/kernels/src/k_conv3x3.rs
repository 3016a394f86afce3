//! 3×3 Gaussian convolution over a u8 image tile — the pixel family's
//! *neighborhood reuse* workload.
//!
//! The kernel `[[1,2,1],[2,4,2],[1,2,1]] / 16` smooths the interior of a
//! 16×16 tile, four output pixels per inner iteration. Every tap is a
//! `movd` of four neighbor bytes, a register-source `punpcklbw` widen
//! against a zero register (liftable), a power-of-two `psllw` weight and
//! a word accumulate — nine overlapping reads per output group, the
//! densest realignment traffic in the suite (9 widens per 4 pixels).
//! After lifting, the tap bytes route zero-extended straight into the
//! shift/add consumers and the tile's row reuse turns into pure SPU
//! gather traffic.
//!
//! The accumulator/temporaries live in mm4..mm6 beside the zero in mm7,
//! so the 4-register-window shape B lifts the network as completely as
//! the full-file shape A.

use crate::framework::{Kernel, KernelBuild};
use crate::refimpl::conv3x3_gauss;
use crate::suite::Family;
use crate::workload::image;
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_SRC: u32 = 0x1_0000;
const A_DST: u32 = 0x5_0000;

/// Input tile geometry (stride = width).
pub const W: usize = 16;
/// Input tile height.
pub const H: usize = 16;
/// Output pixels per row (three 4-pixel groups over the interior).
pub const OUT_W: usize = 12;
/// Output rows (the interior of the tile).
pub const OUT_H: usize = H - 2;

/// The 3×3 Gaussian convolution kernel.
pub struct Conv3x3;

impl Kernel for Conv3x3 {
    fn name(&self) -> &'static str {
        "Conv3x3"
    }

    fn family(&self) -> Family {
        Family::Pixel
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let src = image(0xC0117, W, H);

        let mut b = ProgramBuilder::new("conv3x3-mmx");
        b.mmx_rr(MmxOp::Pxor, MM7, MM7); // zero register
        b.mov_ri(R9, blocks as i32);
        let outer = b.bind_here("outer");
        b.mov_ri(R0, A_SRC as i32); // top-left of the 3×3 support
        b.mov_ri(R1, A_DST as i32);
        b.mov_ri(R4, OUT_H as i32);
        let rows = b.bind_here("rows");
        b.mov_ri(R3, (OUT_W / 4) as i32);
        let group = b.bind_here("group");
        // One tap: movd four neighbor bytes into the accumulator or a
        // temp, widen (liftable), weight by a power-of-two shift,
        // accumulate. Tap displacements walk the 3×3 support around
        // [r0 + W + 1].
        let tap = |b: &mut ProgramBuilder, reg, disp: i32, shift: u8, first: bool| {
            b.movd_load(reg, Mem::base_disp(R0, disp));
            b.mmx_rr(MmxOp::Punpcklbw, reg, MM7); // liftable widen
            if shift > 0 {
                b.mmx_ri(MmxOp::Psllw, reg, shift);
            }
            if !first {
                b.mmx_rr(MmxOp::Paddw, MM4, reg);
            }
        };
        // Top row (weights 1 2 1) — the first tap initialises mm4.
        tap(&mut b, MM4, 0, 0, true);
        tap(&mut b, MM5, 1, 1, false);
        tap(&mut b, MM6, 2, 0, false);
        // Middle row (weights 2 4 2).
        tap(&mut b, MM5, W as i32, 1, false);
        tap(&mut b, MM6, W as i32 + 1, 2, false);
        tap(&mut b, MM5, W as i32 + 2, 1, false);
        // Bottom row (weights 1 2 1).
        tap(&mut b, MM6, 2 * W as i32, 0, false);
        tap(&mut b, MM5, 2 * W as i32 + 1, 1, false);
        tap(&mut b, MM6, 2 * W as i32 + 2, 0, false);
        // Normalise (sum ≤ 16·255, logical shift) and store four bytes.
        b.mmx_ri(MmxOp::Psrlw, MM4, 4);
        b.mmx_rr(MmxOp::Packuswb, MM4, MM4);
        b.movd_store(Mem::base(R1), MM4);
        b.alu_ri(AluOp::Add, R0, 4);
        b.alu_ri(AluOp::Add, R1, 4);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, group);
        b.mark_loop(group, Some((OUT_W / 4) as u64));
        // Advance the support to the next row: the group loop consumed
        // OUT_W bytes of the stride-W input row.
        b.alu_ri(AluOp::Add, R0, (W - OUT_W) as i32);
        b.alu_ri(AluOp::Sub, R4, 1);
        b.jcc(Cond::Ne, rows);
        b.mark_loop(rows, Some(OUT_H as u64));
        b.alu_ri(AluOp::Sub, R9, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, Some(blocks));
        b.halt();

        let full = conv3x3_gauss(&src, W, H);
        // The kernel computes the leftmost OUT_W of the (W−2)-wide
        // interior per row (12 of 14 columns — groups of four).
        let out: Vec<u8> =
            (0..OUT_H).flat_map(|r| full[r * (W - 2)..r * (W - 2) + OUT_W].to_vec()).collect();

        KernelBuild {
            program: b.finish().expect("conv3x3 assembles"),
            setup: TestSetup {
                mem_init: vec![(A_SRC, src)],
                outputs: vec![(A_DST, OUT_W * OUT_H)],
                ..Default::default()
            },
            expected: vec![(A_DST, out)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::{SHAPE_A, SHAPE_B, SHAPE_C};

    #[test]
    fn mmx_variant_matches_reference() {
        let build = Conv3x3.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "conv3x3").unwrap();
    }

    #[test]
    fn nine_tap_widens_lift_per_group() {
        // 9 liftable widens per group, 3 groups per row, 14 rows.
        let per_block = 9 * (OUT_W as u64 / 4) * OUT_H as u64;
        let meas = measure(&Conv3x3, 2, 4, &SHAPE_A, &MeasureOpts::default()).unwrap();
        assert_eq!(meas.offloaded_per_block(), per_block);
        assert!(meas.speedup() > 1.0, "conv should speed up, got {:.3}", meas.speedup());
        // The window shape absorbs the same network...
        let meas_b = measure(&Conv3x3, 2, 4, &SHAPE_B, &MeasureOpts::default()).unwrap();
        assert_eq!(meas_b.offloaded_per_block(), per_block);
        // ...but 16-bit ports cannot express byte-granular widening even
        // with whole-file reach.
        let meas_c = measure(&Conv3x3, 2, 4, &SHAPE_C, &MeasureOpts::default()).unwrap();
        assert_eq!(meas_c.offloaded_per_block(), 0);
    }
}

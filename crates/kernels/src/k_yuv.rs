//! Planar YUV→RGB color conversion — the pixel family's *saturating
//! pack* workload.
//!
//! Per group of four pixels the kernel zero-extends Y/U/V bytes to words
//! (`movd` + register-source `punpcklbw` against a zero register —
//! liftable), centres and pre-scales the chroma, forms the color terms
//! with `pmulhw` against Q14 coefficients held in memory, and clamps the
//! word results back to bytes with `packuswb` — the saturating pack §2
//! calls "vital to ensure proper data". Full-range chroma drives both
//! pack rails (negative sums → 0, overshoots → 255), so the packs do
//! real arithmetic and stay in the MMX stream; everything that merely
//! *interleaves* bytes routes through the SPU.
//!
//! The interleave network lives in mm4..mm7, so the byte-port shapes A
//! *and* the windowed B both absorb it; the 16-bit-port shapes C/D
//! cannot express the byte-granular zero-extension and keep the MMX
//! unpacks.

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::{yuv_to_rgb, YUV_COEF};
use crate::suite::Family;
use crate::workload::{pixels, to_bytes};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_Y: u32 = 0x1_0000;
const A_U: u32 = 0x1_4000;
const A_V: u32 = 0x1_8000;
const A_C128: u32 = 0x3_0000;
const A_CRV: u32 = 0x3_0008;
const A_CGU: u32 = 0x3_0010;
const A_CGV: u32 = 0x3_0018;
const A_CBU: u32 = 0x3_0020;
const A_R: u32 = 0x5_0000;
const A_G: u32 = 0x5_4000;
const A_B: u32 = 0x5_8000;

/// Pixels converted per block.
pub const PIXELS: usize = 64;

/// The planar YUV→RGB conversion kernel.
pub struct YuvToRgb;

impl Kernel for YuvToRgb {
    fn name(&self) -> &'static str {
        "YUV2RGB"
    }

    fn family(&self) -> Family {
        Family::Pixel
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let y = pixels(0x17, PIXELS);
        let u = pixels(0x18, PIXELS);
        let v = pixels(0x19, PIXELS);
        let (c_rv, c_gu, c_gv, c_bu) = YUV_COEF;
        let rep4 = |c: i16| to_bytes(&[c; 4]);

        let mut b = ProgramBuilder::new("yuv2rgb-mmx");
        b.mmx_rr(MmxOp::Pxor, MM7, MM7); // zero register
        let outer = b.bind_here("outer");
        b.mov_ri(R0, A_Y as i32);
        b.mov_ri(R1, A_U as i32);
        b.mov_ri(R2, A_V as i32);
        b.mov_ri(R3, A_R as i32);
        b.mov_ri(R4, A_G as i32);
        b.mov_ri(R5, A_B as i32);
        b.mov_ri(R6, (PIXELS / 4) as i32);
        let group = b.bind_here("group");
        // Zero-extend four pixels of each plane (mm4..mm6 so the SPU
        // window covers every route source).
        b.movd_load(MM4, Mem::base(R0)); // y bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM4, MM7); // liftable: y words
        b.movd_load(MM5, Mem::base(R1)); // u bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM5, MM7); // liftable: u words
        b.movd_load(MM6, Mem::base(R2)); // v bytes
        b.mmx_rr(MmxOp::Punpcklbw, MM6, MM7); // liftable: v words
                                              // Centre and pre-scale the chroma: (c − 128) << 2 keeps the Q14
                                              // pmulhw products at full precision.
        b.mmx_rm(MmxOp::Psubw, MM5, Mem::abs(A_C128));
        b.mmx_rm(MmxOp::Psubw, MM6, Mem::abs(A_C128));
        b.mmx_ri(MmxOp::Psllw, MM5, 2);
        b.mmx_ri(MmxOp::Psllw, MM6, 2);
        // R = y + ((v'·c_rv) >> 16)
        b.movq_rr(MM0, MM6); // liftable copy
        b.mmx_rm(MmxOp::Pmulhw, MM0, Mem::abs(A_CRV));
        b.mmx_rr(MmxOp::Paddw, MM0, MM4);
        // G = y − ((u'·c_gu) >> 16) − ((v'·c_gv) >> 16)
        b.movq_rr(MM1, MM5); // liftable copy
        b.mmx_rm(MmxOp::Pmulhw, MM1, Mem::abs(A_CGU));
        b.movq_rr(MM2, MM6); // liftable copy
        b.mmx_rm(MmxOp::Pmulhw, MM2, Mem::abs(A_CGV));
        b.movq_rr(MM3, MM4); // liftable copy
        b.mmx_rr(MmxOp::Psubw, MM3, MM1);
        b.mmx_rr(MmxOp::Psubw, MM3, MM2);
        // B = y + ((u'·c_bu) >> 16)
        b.movq_rr(MM1, MM5); // liftable copy
        b.mmx_rm(MmxOp::Pmulhw, MM1, Mem::abs(A_CBU));
        b.mmx_rr(MmxOp::Paddw, MM1, MM4);
        // Saturating packs clamp the word sums to bytes.
        b.mmx_rr(MmxOp::Packuswb, MM0, MM0);
        b.mmx_rr(MmxOp::Packuswb, MM3, MM3);
        b.mmx_rr(MmxOp::Packuswb, MM1, MM1);
        b.movd_store(Mem::base(R3), MM0);
        b.movd_store(Mem::base(R4), MM3);
        b.movd_store(Mem::base(R5), MM1);
        b.alu_ri(AluOp::Add, R0, 4);
        b.alu_ri(AluOp::Add, R1, 4);
        b.alu_ri(AluOp::Add, R2, 4);
        b.alu_ri(AluOp::Add, R3, 4);
        b.alu_ri(AluOp::Add, R4, 4);
        b.alu_ri(AluOp::Add, R5, 4);
        b.alu_ri(AluOp::Sub, R6, 1);
        b.jcc(Cond::Ne, group);
        b.mark_loop(group, Some((PIXELS / 4) as u64));
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let (r, g, bb) = yuv_to_rgb(&y, &u, &v);
        KernelBuild {
            program: b.finish().expect("yuv assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_Y, y),
                    (A_U, u),
                    (A_V, v),
                    (A_C128, to_bytes(&[128i16; 4])),
                    (A_CRV, rep4(c_rv)),
                    (A_CGU, rep4(c_gu)),
                    (A_CGV, rep4(c_gv)),
                    (A_CBU, rep4(c_bu)),
                ],
                outputs: vec![(A_R, PIXELS), (A_G, PIXELS), (A_B, PIXELS)],
                reg_init: vec![block_count(blocks)],
                ..Default::default()
            },
            expected: vec![(A_R, r), (A_G, g), (A_B, bb)],
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
        let build = YuvToRgb.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "yuv").unwrap();
    }

    #[test]
    fn conversion_exercises_both_pack_rails() {
        // The golden outputs must include clamped pixels on both rails,
        // or the saturating packs degrade to pure realignments.
        let build = YuvToRgb.build(1);
        let zeros = build.expected.iter().flat_map(|(_, v)| v).filter(|&&p| p == 0).count();
        let saturated = build.expected.iter().flat_map(|(_, v)| v).filter(|&&p| p == 255).count();
        assert!(zeros > 0, "no pixel clamped to 0");
        assert!(saturated > 0, "no pixel clamped to 255");
    }

    #[test]
    fn interleave_network_lifts_on_byte_shapes() {
        // 3 widening unpacks + 5 copies lift per 4-pixel group.
        let meas = measure(&YuvToRgb, 2, 6, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas.offloaded_per_block(), 8 * (PIXELS as u64 / 4));
        assert!(meas.speedup() > 1.0, "YUV should speed up, got {:.3}", meas.speedup());
        // The whole network sits in the mm4..mm7 window.
        let meas_b = measure(&YuvToRgb, 2, 6, &SHAPE_B, &MeasureOpts::default()).unwrap().record();
        assert_eq!(meas_b.offloaded_per_block(), 8 * (PIXELS as u64 / 4));
    }
}

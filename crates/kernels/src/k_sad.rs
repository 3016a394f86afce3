//! 16×16 SAD motion-estimation candidate search — the pixel family's
//! *unsigned saturation* workload.
//!
//! Per block, the kernel computes the sum of absolute differences of a
//! 16×16 current block against eight candidate positions in a 32-wide
//! reference window (the inner step of a motion search), stores the
//! eight SADs, then scans them scalarly for the best (first-wins)
//! candidate. `|a − b|` on unsigned bytes is the classic MMX pair of
//! saturating subtracts (`psubusb` both ways, `por` the halves — §2's
//! "vital to ensure proper data" saturation), and the byte→word widening
//! before the accumulate is a register-source unpack network the SPU can
//! absorb: with the SPU, the absolute-difference bytes route *zero-
//! extended* straight into the accumulator adds.
//!
//! The widening routes are byte-granular (diff bytes interleaved with a
//! zero register), so byte-port crossbars (shapes A/B) lift them while
//! the 16-bit-port shapes C/D cannot — the pixel family's counterpoint
//! to the word-granular paper kernels that shape D covers.

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::sad_search;
use crate::suite::Family;
use crate::workload::{pixels, to_bytes_u32};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_CUR: u32 = 0x1_0000;
const A_REF: u32 = 0x2_0000;
const A_ONES: u32 = 0x3_0000;
const A_SAD: u32 = 0x5_0000;
const A_BEST: u32 = 0x5_0100;
const A_CAND: u32 = 0x6_0000;

const REF_STRIDE: usize = 32;

/// Candidate offsets `(dx, dy)` into the 32×24 reference window.
pub const CANDIDATES: [(u32, u32); 8] =
    [(0, 0), (8, 0), (16, 0), (0, 4), (8, 4), (16, 4), (0, 8), (16, 8)];

/// Where the noisy copy of the current block is planted in the window
/// (candidate index 4), so the search has a meaningful minimum.
pub const PLANTED: usize = 4;

/// The 16×16 SAD candidate-search kernel.
pub struct Sad16x16;

impl Kernel for Sad16x16 {
    fn name(&self) -> &'static str {
        "SAD"
    }

    fn family(&self) -> Family {
        Family::Pixel
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let cur = pixels(0x5AD0, 256);
        let mut refw = pixels(0x5AD1, REF_STRIDE * 24);
        // Plant a noisy copy of the block at the PLANTED candidate so the
        // argmin is data-driven, not degenerate.
        let (dx, dy) = CANDIDATES[PLANTED];
        for y in 0..16 {
            for x in 0..16 {
                let noisy = cur[y * 16 + x].wrapping_add(((y * 16 + x) % 5) as u8);
                refw[(dy as usize + y) * REF_STRIDE + dx as usize + x] = noisy;
            }
        }
        let cand_bases: Vec<u32> =
            CANDIDATES.iter().map(|&(dx, dy)| A_REF + dy * REF_STRIDE as u32 + dx).collect();

        let mut b = ProgramBuilder::new("sad16x16-mmx");
        b.mmx_rr(MmxOp::Pxor, MM7, MM7); // zero register
        b.mmx_rr(MmxOp::Pxor, MM6, MM6); // word accumulator
        let outer = b.bind_here("outer");
        b.mov_ri(R7, A_CAND as i32);
        b.mov_ri(R8, A_SAD as i32);
        b.mov_ri(R6, CANDIDATES.len() as i32);
        let cand = b.bind_here("cand");
        b.mov_ri(R0, A_CUR as i32);
        b.load(R1, Mem::base(R7)); // candidate base address
        b.mov_ri(R3, 16);
        let row = b.bind_here("row");
        // Low 8 bytes: |cur − ref| via the saturating-subtract pair, then
        // widen to words against the zero register and accumulate. The
        // por results live in mm4/mm5 so the widening routes fit a
        // 4-register crossbar window (mm4..mm7).
        b.movq_load(MM0, Mem::base(R0));
        b.movq_load(MM4, Mem::base(R1));
        b.movq_rr(MM1, MM0); // cur copy
        b.mmx_rr(MmxOp::Psubusb, MM1, MM4); // max(cur − ref, 0)
        b.mmx_rr(MmxOp::Psubusb, MM4, MM0); // max(ref − cur, 0)
        b.mmx_rr(MmxOp::Por, MM4, MM1); // |cur − ref| bytes
        b.movq_rr(MM1, MM4); // liftable copy
        b.mmx_rr(MmxOp::Punpcklbw, MM4, MM7); // liftable widen
        b.mmx_rr(MmxOp::Punpckhbw, MM1, MM7); // liftable widen
        b.mmx_rr(MmxOp::Paddw, MM6, MM4);
        b.mmx_rr(MmxOp::Paddw, MM6, MM1);
        // High 8 bytes, same pattern in mm2/mm3/mm5.
        b.movq_load(MM2, Mem::base_disp(R0, 8));
        b.movq_load(MM5, Mem::base_disp(R1, 8));
        b.movq_rr(MM3, MM2);
        b.mmx_rr(MmxOp::Psubusb, MM3, MM5);
        b.mmx_rr(MmxOp::Psubusb, MM5, MM2);
        b.mmx_rr(MmxOp::Por, MM5, MM3);
        b.movq_rr(MM3, MM5); // liftable copy
        b.mmx_rr(MmxOp::Punpcklbw, MM5, MM7); // liftable widen
        b.mmx_rr(MmxOp::Punpckhbw, MM3, MM7); // liftable widen
        b.mmx_rr(MmxOp::Paddw, MM6, MM5);
        b.mmx_rr(MmxOp::Paddw, MM6, MM3);
        b.alu_ri(AluOp::Add, R0, 16);
        b.alu_ri(AluOp::Add, R1, REF_STRIDE as i32);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, row);
        b.mark_loop(row, Some(16));
        // Horizontal reduce: 8 word lanes → one dword SAD.
        b.mmx_rm(MmxOp::Pmaddwd, MM6, Mem::abs(A_ONES));
        b.movq_rr(MM0, MM6);
        b.mmx_ri(MmxOp::Psrlq, MM0, 32);
        b.mmx_rr(MmxOp::Paddd, MM6, MM0);
        b.movd_store(Mem::base(R8), MM6);
        b.mmx_rr(MmxOp::Pxor, MM6, MM6);
        b.alu_ri(AluOp::Add, R7, 4);
        b.alu_ri(AluOp::Add, R8, 4);
        b.alu_ri(AluOp::Sub, R6, 1);
        b.jcc(Cond::Ne, cand);
        b.mark_loop(cand, Some(CANDIDATES.len() as u64));
        // Scalar argmin over the eight SADs (first-wins: strictly-less
        // updates only). Data-dependent branches — deliberately outside
        // the SPU's reach.
        b.mov_ri(R0, A_SAD as i32);
        b.mov_ri(R2, 0); // current index
        b.mov_ri(R4, 0); // best index
        b.load(R5, Mem::base(R0)); // best value
        b.mov_ri(R3, (CANDIDATES.len() - 1) as i32);
        let scan = b.bind_here("scan");
        let skip = b.new_label("skip");
        b.alu_ri(AluOp::Add, R0, 4);
        b.alu_ri(AluOp::Add, R2, 1);
        b.load(R1, Mem::base(R0));
        b.cmp_rr(R1, R5);
        b.jcc(Cond::Ae, skip);
        b.mov_rr(R5, R1);
        b.mov_rr(R4, R2);
        b.bind(skip);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, scan);
        b.mark_loop(scan, Some((CANDIDATES.len() - 1) as u64));
        b.store(Mem::abs(A_BEST), R4);
        b.store(Mem::abs(A_BEST + 4), R5);
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let offsets: Vec<usize> =
            CANDIDATES.iter().map(|&(dx, dy)| dy as usize * REF_STRIDE + dx as usize).collect();
        let (sads, best_idx, best) = sad_search(&cur, &refw, REF_STRIDE, &offsets);

        KernelBuild {
            program: b.finish().expect("sad assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_CUR, cur),
                    (A_REF, refw),
                    (A_ONES, to_bytes_u32(&[0x0001_0001, 0x0001_0001])),
                    (A_CAND, to_bytes_u32(&cand_bases)),
                ],
                outputs: vec![(A_SAD, 32), (A_BEST, 8)],
                reg_init: vec![block_count(blocks)],
                ..Default::default()
            },
            expected: vec![(A_SAD, to_bytes_u32(&sads)), (A_BEST, to_bytes_u32(&[best_idx, best]))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::{SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};

    #[test]
    fn mmx_variant_matches_reference() {
        let build = Sad16x16.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "sad").unwrap();
    }

    #[test]
    fn planted_candidate_wins() {
        let build = Sad16x16.build(1);
        let state = build.run_checked(&build.program, MachineConfig::mmx_only(), "sad").unwrap();
        assert_eq!(state.read(A_BEST, 4).unwrap()[0] as usize, PLANTED);
    }

    #[test]
    fn byte_crossbars_lift_the_widening_network_fully() {
        // Shapes A *and* B lift the whole realignment network — both
        // pre-subtract copies and all four widening unpacks, 8 per row,
        // 16 rows, 8 candidates. The widening routes gather from five
        // registers (mm4, mm5, mm7 and the mm0/mm2 copy sources), which
        // used to degrade shape B's 4-register window to the two copy
        // elisions; the live-range register compaction pass now renames
        // the per-half cur/|diff| values into the mm4..mm7 window (the
        // zero register mm7 and the accumulator mm6 are live across the
        // loop and stay pinned), so the windowed byte crossbar lifts
        // exactly what the full one does.
        for shape in [SHAPE_A, SHAPE_B] {
            let meas = measure(&Sad16x16, 2, 4, &shape, &MeasureOpts::default()).unwrap().record();
            assert_eq!(meas.offloaded_per_block(), 8 * 16 * 8, "shape {}", shape.name);
            assert!(
                meas.speedup() > 1.0,
                "shape {}: SAD should speed up, got {:.3}",
                shape.name,
                meas.speedup()
            );
        }
        // Compaction only ran for the windowed shape.
        let lifted = subword_compile::lift_permutes(&Sad16x16.build(2).program, &SHAPE_B).unwrap();
        assert!(
            lifted.report.loops.iter().any(|l| l.renamed_ranges > 0),
            "shape B full lift requires renamed live ranges"
        );
        let lifted_a =
            subword_compile::lift_permutes(&Sad16x16.build(2).program, &SHAPE_A).unwrap();
        assert!(lifted_a.report.loops.iter().all(|l| l.renamed_ranges == 0));
        // The 16-bit-port shapes C/D reject the byte interleaves
        // outright (no renaming can re-align a byte-granular gather) and
        // keep the two whole-register pre-subtract copies; the window no
        // longer costs shape D anything relative to full-reach C.
        for shape in [SHAPE_C, SHAPE_D] {
            let m = measure(&Sad16x16, 2, 4, &shape, &MeasureOpts::default()).unwrap().record();
            assert_eq!(m.offloaded_per_block(), 2 * 16 * 8, "shape {}", shape.name);
            assert!(
                m.spu_per_block.mmx_realignments > 0,
                "shape {}: the widening unpacks must stay in the MMX stream",
                shape.name
            );
        }
    }
}

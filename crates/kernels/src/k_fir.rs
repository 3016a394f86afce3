//! FIR filters (paper benchmarks FIR12 and FIR22): block FIR with the
//! IPP coefficient-replication idiom.
//!
//! §5.2.2: *"The FIR filters for the MMX try to avoid many sub-word
//! permutes ... by having multiple copies of the filter coefficients in
//! the MMX registers where each copy of coefficients are offset by one
//! sub word"* — so per output phase `p ∈ 0..4` the kernel runs `pmaddwd`
//! against a pre-shifted coefficient row, and the only remaining
//! realignments are the horizontal-add copy/shift at the end of each
//! accumulation. That is why the paper reports FIR's off-loadable share
//! as the lowest of all kernels (≈ 11 % of MMX instructions) and the SPU
//! speedup as modest (≈ 8 %).

use crate::framework::{block_count, Kernel, KernelBuild, BLOCKS};
use crate::refimpl::fir;
use crate::suite::Family;
use crate::workload::{coefficients, samples, to_bytes};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_XPAD: u32 = 0x1_0000;
const A_COEFF: u32 = 0x2_0000;
const A_OUT: u32 = 0x5_0000;

/// Samples per block (the paper's 150 rounded up to a group multiple).
pub const BLOCK_SAMPLES: usize = 152;

/// A `TAPS`-tap block FIR kernel.
pub struct Fir<const TAPS: usize>;

/// The paper's 12-tap FIR.
pub type Fir12 = Fir<12>;
/// The paper's 22-tap FIR.
pub type Fir22 = Fir<22>;

impl<const TAPS: usize> Fir<TAPS> {
    /// Leading zero-padding (window alignment), in samples.
    const LEAD: usize = TAPS.div_ceil(4) * 4;
    /// Window width in samples (LEAD + one output group).
    const WINDOW: usize = Self::LEAD + 4;

    /// Phase-replicated coefficient table: `cc[p][j] = c[LEAD + p − j]`
    /// where in range, else 0; rows of `WINDOW` words.
    fn replicate(c: &[i16]) -> Vec<i16> {
        let mut t = vec![0i16; 4 * Self::WINDOW];
        for p in 0..4 {
            for j in 0..Self::WINDOW {
                let k = Self::LEAD as isize + p as isize - j as isize;
                if (0..TAPS as isize).contains(&k) {
                    t[p * Self::WINDOW + j] = c[k as usize];
                }
            }
        }
        t
    }
}

impl<const TAPS: usize> Kernel for Fir<TAPS> {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        match TAPS {
            12 => "FIR12",
            22 => "FIR22",
            _ => "FIR",
        }
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        let x = samples(0xF1A + TAPS as u64, BLOCK_SAMPLES, 12000);
        let c = coefficients(0xC0EF + TAPS as u64, TAPS);
        let groups = BLOCK_SAMPLES / 4;
        let row_bytes = (Self::WINDOW * 2) as i32;
        let nblocks4 = Self::WINDOW / 4; // pmaddwd blocks per phase

        // Padded input: LEAD zeros then the samples.
        let mut xpad = vec![0i16; Self::LEAD];
        xpad.extend_from_slice(&x);

        let mut b = ProgramBuilder::new(format!("fir{TAPS}-mmx"));
        let outer = b.bind_here("outer");
        b.mov_ri(R0, A_XPAD as i32); // x window pointer (starts at x[-LEAD])
        b.mov_ri(R1, A_COEFF as i32);
        b.mov_ri(R2, A_OUT as i32);
        b.mov_ri(R3, groups as i32);
        let l = b.bind_here("group");
        for p in 0..4i32 {
            // Accumulate Σ_j x[W+j]·cc[p][j] over WINDOW words.
            b.movq_load(MM4, Mem::base_disp(R1, p * row_bytes));
            b.mmx_rm(MmxOp::Pmaddwd, MM4, Mem::base(R0));
            for blk in 1..nblocks4 as i32 {
                b.movq_load(MM5, Mem::base_disp(R1, p * row_bytes + blk * 8));
                b.mmx_rm(MmxOp::Pmaddwd, MM5, Mem::base_disp(R0, blk * 8));
                b.mmx_rr(MmxOp::Paddd, MM4, MM5);
            }
            // Horizontal add of the two dword partial sums, then Q15
            // rescale.
            b.movq_rr(MM5, MM4); // liftable copy
            b.mmx_ri(MmxOp::Psrlq, MM5, 32);
            b.mmx_rr(MmxOp::Paddd, MM4, MM5);
            b.mmx_ri(MmxOp::Psrad, MM4, 15);
            b.movd_from_mm(R4, MM4);
            b.store_w(Mem::base_disp(R2, p * 2), R4);
        }
        b.alu_ri(AluOp::Add, R0, 8);
        b.alu_ri(AluOp::Add, R2, 8);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, l);
        b.mark_loop(l, Some(groups as u64));
        b.alu_ri(AluOp::Sub, BLOCKS, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, None);
        b.halt();

        let y = fir(&x, &c);
        KernelBuild {
            program: b.finish().expect("fir assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_XPAD, to_bytes(&xpad)),
                    (A_COEFF, to_bytes(&Self::replicate(&c))),
                ],
                outputs: vec![(A_OUT, BLOCK_SAMPLES * 2)],
                reg_init: vec![block_count(blocks)],
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

    fn check_mmx<const T: usize>() {
        let build = Fir::<T>.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "fir").unwrap();
    }

    #[test]
    fn fir12_matches_reference() {
        check_mmx::<12>();
    }

    #[test]
    fn fir22_matches_reference() {
        check_mmx::<22>();
    }

    #[test]
    fn fir12_modest_speedup_and_low_offload_share() {
        let meas = measure(&Fir::<12>, 2, 5, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        // One liftable copy per phase per group.
        assert_eq!(meas.offloaded_per_block(), 4 * (BLOCK_SAMPLES as u64 / 4));
        // The FIR idiom leaves little for the SPU: off-loaded share of
        // MMX instructions stays below 15% (paper: 11.2%) and the
        // speedup is modest (paper: ~8%).
        assert!(meas.pct_mmx_instr() < 15.0, "got {:.1}%", meas.pct_mmx_instr());
        let saved = meas.pct_cycles_saved();
        assert!((0.5..15.0).contains(&saved), "cycles saved {saved:.1}%");
        // Highly vectorised kernel: most instructions are MMX.
        assert!(meas.baseline_per_block.mmx_fraction() > 0.5);
    }

    #[test]
    fn fir22_similar_shape() {
        let meas = measure(&Fir::<22>, 2, 5, &SHAPE_A, &MeasureOpts::default()).unwrap().record();
        assert!(meas.pct_mmx_instr() < 15.0);
        assert!(meas.speedup() > 1.0);
    }
}

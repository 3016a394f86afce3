//! Radix-2 fixed-point FFT (paper benchmarks "FFT1024" and "FFT128").
//!
//! Mirrors the IPP profile the paper reports (§5.2.2: the FFT "does not
//! utilize the MMX efficiently"): bit-reversal and the butterfly stages
//! run on the scalar pipeline (four `imul`s per butterfly), and MMX only
//! appears in the spectrum de-interleave post-pass — a copy/unpack
//! network converting the interleaved `(re, im)` work buffer into split
//! re/im arrays. Roughly half of that small MMX population is liftable
//! realignment, matching the paper's ~50 % off-load share at a few
//! percent of total instructions.
//!
//! The paper's routine is a *real* FFT; this reproduction computes the
//! complex FFT of the real input (imaginary parts zero) with per-stage
//! `>>1` scaling — the same arithmetic shape (see DESIGN.md's
//! substitution table).

use crate::framework::{Kernel, KernelBuild};
use crate::refimpl::{bit_reverse_table, deinterleave, fft_q15, twiddles};
use crate::suite::Family;
use crate::workload::{samples, to_bytes, to_bytes_u32};
use subword_compile::TestSetup;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg::*;
use subword_isa::ProgramBuilder;

const A_X: u32 = 0x1_0000;
const A_TW: u32 = 0x2_0000;
const A_WORK: u32 = 0x3_0000;
const A_RE: u32 = 0x5_0000;
const A_IM: u32 = 0x5_8000;
const A_BR: u32 = 0x6_0000;

/// An `N`-point fixed-point FFT kernel (`N` a power of two).
pub struct Fft<const N: usize>;

/// The paper's 1024-point FFT.
pub type Fft1024 = Fft<1024>;
/// The paper's 128-point FFT.
pub type Fft128 = Fft<128>;

impl<const N: usize> Kernel for Fft<N> {
    fn family(&self) -> Family {
        Family::Paper
    }

    fn name(&self) -> &'static str {
        match N {
            1024 => "FFT1024",
            128 => "FFT128",
            _ => "FFT",
        }
    }

    fn build(&self, blocks: u64) -> KernelBuild {
        assert!(N.is_power_of_two() && N >= 8);
        let x = samples(0xFF7 + N as u64, N, 3000);
        let tw: Vec<i16> = twiddles(N).iter().flat_map(|&(r, i)| [r, i]).collect();
        let br = bit_reverse_table(N);

        let mut b = ProgramBuilder::new(format!("fft{N}-mmx"));
        b.mov_ri(R9, blocks as i32);
        let outer = b.bind_here("outer");

        // --- Bit-reversal scatter: work[br[i]] = (x[i], 0). ---
        b.mov_ri(R0, 0);
        b.mov_ri(R6, 0);
        b.mov_ri(R13, N as i32);
        let brl = b.bind_here("bitrev");
        b.load(R4, Mem::isd(R0, 4, A_BR as i32));
        b.load_w(R5, Mem::isd(R0, 2, A_X as i32), true);
        b.lea(R7, Mem::isd(R4, 4, A_WORK as i32));
        b.store_w(Mem::base(R7), R5);
        b.store_w(Mem::base_disp(R7, 2), R6);
        b.alu_ri(AluOp::Add, R0, 1);
        b.cmp_rr(R0, R13);
        b.jcc(Cond::Ne, brl);

        // --- Butterfly stages (scalar). ---
        b.mov_ri(R8, 1); // half
        b.mov_ri(R10, (N / 2) as i32); // twiddle stride
        let sloop = b.bind_here("stage");
        b.mov_ri(R11, 0); // k
        let kloop = b.bind_here("kblock");
        b.mov_ri(R12, 0); // j
        b.mov_ri(R14, 0); // twiddle byte offset
        let jloop = b.bind_here("butterfly");
        b.lea(R0, Mem::bisd(R11, R12, 1, 0)); // p = k + j (points)
        b.lea(R0, Mem::isd(R0, 4, A_WORK as i32)); // p byte address
        b.lea(R1, Mem::bisd(R0, R8, 4, 0)); // q = p + half
        b.load_w(R2, Mem::base_disp(R14, A_TW as i32), true); // wr
        b.load_w(R3, Mem::base_disp(R14, A_TW as i32 + 2), true); // wi
        b.load_w(R4, Mem::base(R1), true); // br
        b.load_w(R5, Mem::base_disp(R1, 2), true); // bi

        // tr = (wr·br − wi·bi) >> 15
        b.mov_rr(R6, R2);
        b.alu_rr(AluOp::Imul, R6, R4);
        b.mov_rr(R7, R3);
        b.alu_rr(AluOp::Imul, R7, R5);
        b.alu_rr(AluOp::Sub, R6, R7);
        b.alu_ri(AluOp::Sar, R6, 15);
        // ti = (wr·bi + wi·br) >> 15
        b.alu_rr(AluOp::Imul, R2, R5);
        b.alu_rr(AluOp::Imul, R3, R4);
        b.alu_rr(AluOp::Add, R2, R3);
        b.alu_ri(AluOp::Sar, R2, 15);
        // u, outputs (u ± t) >> 1
        b.load_w(R4, Mem::base(R0), true); // ur
        b.load_w(R5, Mem::base_disp(R0, 2), true); // ui
        b.mov_rr(R7, R4);
        b.alu_rr(AluOp::Add, R7, R6);
        b.alu_ri(AluOp::Sar, R7, 1);
        b.store_w(Mem::base(R0), R7);
        b.mov_rr(R7, R5);
        b.alu_rr(AluOp::Add, R7, R2);
        b.alu_ri(AluOp::Sar, R7, 1);
        b.store_w(Mem::base_disp(R0, 2), R7);
        b.alu_rr(AluOp::Sub, R4, R6);
        b.alu_ri(AluOp::Sar, R4, 1);
        b.store_w(Mem::base(R1), R4);
        b.alu_rr(AluOp::Sub, R5, R2);
        b.alu_ri(AluOp::Sar, R5, 1);
        b.store_w(Mem::base_disp(R1, 2), R5);
        // Advance j, twiddle offset.
        b.lea(R14, Mem::bisd(R14, R10, 4, 0));
        b.alu_ri(AluOp::Add, R12, 1);
        b.cmp_rr(R12, R8);
        b.jcc(Cond::Ne, jloop);
        // Advance k by len = 2·half.
        b.lea(R11, Mem::bisd(R11, R8, 2, 0));
        b.cmp_rr(R11, R13);
        b.jcc(Cond::Ne, kloop);
        // Next stage: half ×= 2, stride ÷= 2; stop when half == N.
        b.alu_ri(AluOp::Shl, R8, 1);
        b.alu_ri(AluOp::Shr, R10, 1);
        b.cmp_rr(R8, R13);
        b.jcc(Cond::Ne, sloop);

        // --- De-interleave (MMX): work (re,im) pairs -> RE / IM. ---
        b.mov_ri(R0, A_WORK as i32);
        b.mov_ri(R1, A_RE as i32);
        b.mov_ri(R2, A_IM as i32);
        b.mov_ri(R3, (N / 4) as i32);
        let dloop = b.bind_here("deinterleave");
        b.movq_load(MM0, Mem::base(R0)); // re0 im0 re1 im1
        b.movq_load(MM1, Mem::base_disp(R0, 8)); // re2 im2 re3 im3
        b.movq_rr(MM2, MM0); // liftable copy
        b.mmx_rr(MmxOp::Punpcklwd, MM2, MM1); // re0 re2 im0 im2
        b.mmx_rr(MmxOp::Punpckhwd, MM0, MM1); // re1 re3 im1 im3
        b.movq_rr(MM3, MM2); // liftable copy
        b.mmx_rr(MmxOp::Punpcklwd, MM2, MM0); // re0 re1 re2 re3
        b.mmx_rr(MmxOp::Punpckhwd, MM3, MM0); // im0 im1 im2 im3
        b.movq_store(Mem::base(R1), MM2);
        b.movq_store(Mem::base(R2), MM3);
        b.alu_ri(AluOp::Add, R0, 16);
        b.alu_ri(AluOp::Add, R1, 8);
        b.alu_ri(AluOp::Add, R2, 8);
        b.alu_ri(AluOp::Sub, R3, 1);
        b.jcc(Cond::Ne, dloop);
        b.mark_loop(dloop, Some((N / 4) as u64));

        b.alu_ri(AluOp::Sub, R9, 1);
        b.jcc(Cond::Ne, outer);
        b.mark_loop(outer, Some(blocks));
        b.halt();

        let w = fft_q15(&x);
        let (re, im) = deinterleave(&w);
        KernelBuild {
            program: b.finish().expect("fft assembles"),
            setup: TestSetup {
                mem_init: vec![
                    (A_X, to_bytes(&x)),
                    (A_TW, to_bytes(&tw)),
                    (A_BR, to_bytes_u32(&br)),
                ],
                outputs: vec![(A_RE, N * 2), (A_IM, N * 2)],
                ..Default::default()
            },
            expected: vec![(A_RE, to_bytes(&re)), (A_IM, to_bytes(&im))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{measure, MeasureOpts};
    use subword_sim::MachineConfig;
    use subword_spu::SHAPE_A;

    fn check_mmx<const N: usize>() {
        let build = Fft::<N>.build(1);
        build.run_checked(&build.program, MachineConfig::mmx_only(), "fft").unwrap();
    }

    #[test]
    fn fft128_matches_reference() {
        check_mmx::<128>();
    }

    #[test]
    fn fft1024_matches_reference() {
        check_mmx::<1024>();
    }

    #[test]
    fn fft128_scalar_dominated_with_high_offload_share() {
        let meas = measure(&Fft::<128>, 1, 3, &SHAPE_A, &MeasureOpts::default()).unwrap();
        // Tiny MMX fraction (paper: ~7%).
        assert!(
            meas.baseline.per_block.mmx_fraction() < 0.15,
            "mmx fraction {:.3}",
            meas.baseline.per_block.mmx_fraction()
        );
        // The de-interleave loop's copies+unpacks all lift: 6 per group.
        assert_eq!(meas.offloaded_per_block(), 6 * (128 / 4));
        // Off-load share of MMX instructions is high (paper: ~48%) ...
        let share = meas.pct_mmx_instr();
        assert!(share > 25.0, "offload share {share:.1}%");
        // ... but the total effect is small (paper Figure 9: no change).
        let saved = meas.pct_cycles_saved();
        assert!((-1.0..5.0).contains(&saved), "fft saved {saved:.1}%");
    }
}

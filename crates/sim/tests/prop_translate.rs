//! Property-based testing of the threaded engine's traces: for
//! **arbitrary** straight-line loop bodies — random MMX/ALU/memory mixes,
//! multiplier pressure, optional interior labels that split the body into
//! several regions — the threaded engine must agree with
//! [`Machine::run_reference`] bit-for-bit on [`SimStats`] *and* on
//! architectural state, while actually replaying traces (not silently
//! falling back).
//!
//! The reference engine keeps its own allocating hazard logic precisely
//! so it can serve as the oracle here: any divergence indicts the
//! recorded schedules, the entry signatures that key them, or the bulk
//! statistics a replay applies.

use proptest::prelude::*;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_isa::ProgramBuilder;
use subword_sim::{ExecEngine, Machine, MachineConfig};

const MEM_BASE: u32 = 0x1_0000;
const MEM_SLOTS: u32 = 16;

/// One generated loop-body instruction.
#[derive(Clone, Debug)]
enum S {
    Mmx { op_idx: u8, dst: u8, src: u8 },
    MmxImm { shift_idx: u8, dst: u8, imm: u8 },
    Load { dst: u8, slot: u8 },
    Store { src: u8, slot: u8 },
    Alu { op_idx: u8, dst: u8, src: u8 },
    MovdFromMm { dst: u8, src: u8 },
}

const OPS: [MmxOp; 10] = [
    MmxOp::Paddw,
    MmxOp::Psubb,
    MmxOp::Paddsw,
    MmxOp::Pmullw,
    MmxOp::Pmulhw,
    MmxOp::Pmaddwd,
    MmxOp::Pxor,
    MmxOp::Punpcklwd,
    MmxOp::Packssdw,
    MmxOp::Movq,
];
const SHIFTS: [MmxOp; 3] = [MmxOp::Psllw, MmxOp::Psrlq, MmxOp::Psraw];
const ALUS: [AluOp; 6] = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Imul, AluOp::Shl];

fn step_strategy() -> impl Strategy<Value = S> {
    prop_oneof![
        (0u8..10, 0u8..8, 0u8..8).prop_map(|(op_idx, dst, src)| S::Mmx { op_idx, dst, src }),
        (0u8..3, 0u8..8, 0u8..66).prop_map(|(shift_idx, dst, imm)| S::MmxImm {
            shift_idx,
            dst,
            imm
        }),
        (0u8..8, 0u8..16).prop_map(|(dst, slot)| S::Load { dst, slot }),
        (0u8..8, 0u8..16).prop_map(|(src, slot)| S::Store { src, slot }),
        (0u8..6, 1u8..8, 1u8..8).prop_map(|(op_idx, dst, src)| S::Alu { op_idx, dst, src }),
        (1u8..8, 0u8..8).prop_map(|(dst, src)| S::MovdFromMm { dst, src }),
    ]
}

fn mm(i: u8) -> MmReg {
    MmReg::from_index(i as usize & 7).unwrap()
}

fn gp(i: u8) -> GpReg {
    GpReg::from_index(i as usize & 7).unwrap()
}

/// Build a counted loop around `steps`. `split` binds an extra label
/// after that many body instructions, cutting the body into several
/// straight-line regions (a fallthrough trace feeding a loop trace).
fn build(steps: &[S], trips: u64, split: Option<usize>) -> Program {
    let mut b = ProgramBuilder::new("prop-translate");
    b.mov_ri(gp(0), trips as i32);
    let l = b.bind_here("loop");
    for (k, s) in steps.iter().enumerate() {
        if split == Some(k) && k > 0 {
            b.bind_here("split");
        }
        match s {
            S::Mmx { op_idx, dst, src } => {
                b.mmx_rr(OPS[*op_idx as usize % 10], mm(*dst), mm(*src));
            }
            S::MmxImm { shift_idx, dst, imm } => {
                b.mmx_ri(SHIFTS[*shift_idx as usize % 3], mm(*dst), *imm);
            }
            S::Load { dst, slot } => {
                b.movq_load(mm(*dst), Mem::abs(MEM_BASE + (*slot as u32 % MEM_SLOTS) * 8));
            }
            S::Store { src, slot } => {
                b.movq_store(Mem::abs(MEM_BASE + (*slot as u32 % MEM_SLOTS) * 8), mm(*src));
            }
            S::Alu { op_idx, dst, src } => {
                b.alu_rr(ALUS[*op_idx as usize % 6], gp(*dst), gp(*src));
            }
            S::MovdFromMm { dst, src } => {
                b.movd_from_mm(gp(*dst), mm(*src));
            }
        }
    }
    b.alu_ri(AluOp::Sub, gp(0), 1);
    b.jcc(Cond::Ne, l);
    b.mark_loop(l, Some(trips));
    b.halt();
    b.finish().unwrap()
}

fn init_machine(engine: ExecEngine, seed: u64, init_mem: &[u8]) -> Machine {
    let mut m = Machine::new(MachineConfig { engine, ..MachineConfig::mmx_only() });
    m.mem.write_bytes(MEM_BASE, init_mem).unwrap();
    for i in 0..8 {
        m.regs.write_mm(mm(i), init_mm(seed, i));
    }
    m
}

fn init_mm(seed: u64, i: u8) -> u64 {
    (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Threaded vs reference oracle over arbitrary straight-line regions:
    /// identical statistics, registers and memory — with real replays.
    #[test]
    fn threaded_replays_match_reference(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        trips in 2u64..8,
        split_at in proptest::option::of(1usize..15),
        seed: u64,
    ) {
        let split = split_at.filter(|&k| k < steps.len());
        let p = build(&steps, trips, split);

        let mut init_mem = vec![0u8; (MEM_SLOTS as usize + 1) * 8];
        let mut s = seed;
        for byte in init_mem.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *byte = (s >> 33) as u8;
        }

        let mut reference = init_machine(ExecEngine::Reference, seed, &init_mem);
        let want = reference.run(&p).expect("reference runs");

        let mut threaded = init_machine(ExecEngine::Threaded, seed, &init_mem);
        let got = threaded.run(&p).expect("threaded runs");

        prop_assert_eq!(got, want, "SimStats diverge");
        for i in 0..8 {
            prop_assert_eq!(threaded.regs.read_mm(mm(i)), reference.regs.read_mm(mm(i)), "mm{}", i);
            prop_assert_eq!(threaded.regs.read_gp(gp(i)), reference.regs.read_gp(gp(i)), "r{}", i);
        }
        let got_mem = threaded.mem.read_bytes(MEM_BASE, init_mem.len()).unwrap();
        let want_mem = reference.mem.read_bytes(MEM_BASE, init_mem.len()).unwrap();
        prop_assert_eq!(got_mem, want_mem);

        // The equivalence must come from actual trace replays, not a
        // silent wholesale fallback. Without an interior label, every
        // loop iteration but (at most) the first enters the loop region
        // at its head — the back edge redirects there — and either
        // records a trace or replays one, and the entry state settles
        // after at most two recordings (the cold entry and the steady
        // state). With a split, regions can legitimately be entered
        // mid-stream (the dynamic pairing window crosses the label), so
        // only the differential part above is asserted unconditionally.
        if split.is_none() {
            let tl = threaded.translation;
            prop_assert!(
                tl.replays + tl.translations >= trips - 1 && tl.translations <= 2,
                "expected >= {} replays and recordings, at most 2 recordings, got {:?}",
                trips - 1,
                tl
            );
        }
    }
}

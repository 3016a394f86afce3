//! End-to-end tests of the live-range register compaction pass: loops
//! whose route spans exceed a windowed crossbar's reach must lift fully
//! after renaming, and the renamed programs must be observationally
//! identical to the originals, with all three engines agreeing on them.

use proptest::prelude::*;
use subword_compile::verify::{compare, run, Compared, ENGINES};
use subword_compile::{differential, lift_permutes, LoopStatus, TestSetup};
use subword_isa::instr::Instr;
use subword_isa::mem::Mem;
use subword_isa::op::{AluOp, Cond, MmxOp};
use subword_isa::reg::gp::*;
use subword_isa::reg::MmReg;
use subword_isa::{Program, ProgramBuilder};
use subword_sim::MachineConfig;
use subword_spu::crossbar::CrossbarShape;
use subword_spu::{SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D};

const IN_BASE: u32 = 0x1_0000;
const OUT_BASE: u32 = 0x4_0000;

fn mm(i: u8) -> MmReg {
    MmReg::from_index(i as usize & 7).unwrap()
}

/// A reduction loop whose SPU routes gather from `srcs` — spread-out
/// registers whose joint span exceeds every 4-register window — via
/// liftable whole-register copies (word-aligned routes, so the 16-bit
/// port shapes C/D can express them too). `tmp` holds the copies; `acc`
/// accumulates and is stored every iteration.
///
/// Without compaction, windowed shapes degrade this loop by un-deleting
/// copies until the surviving spans fit; with compaction the source
/// live ranges are renamed into one window and every copy lifts.
fn wide_span_program(srcs: &[u8], ops: &[u8], tmp: u8, acc: u8, trips: u64) -> Program {
    wide_span_program_tail(srcs, ops, tmp, acc, trips, None)
}

/// [`wide_span_program`] with an optional post-loop store of one
/// register — a one-instruction change *outside* the loop that makes
/// that register live on the loop's exit edge.
fn wide_span_program_tail(
    srcs: &[u8],
    ops: &[u8],
    tmp: u8,
    acc: u8,
    trips: u64,
    tail_read: Option<u8>,
) -> Program {
    let mut b = ProgramBuilder::new("wide-span");
    const OPS: [MmxOp; 3] = [MmxOp::Paddw, MmxOp::Psubw, MmxOp::Pxor];
    b.mmx_rr(MmxOp::Pxor, mm(acc), mm(acc));
    b.mov_ri(R0, trips as i32);
    b.mov_ri(R1, OUT_BASE as i32);
    let l = b.bind_here("loop");
    for (i, &s) in srcs.iter().enumerate() {
        b.movq_load(mm(s), Mem::abs(IN_BASE + 8 * i as u32));
    }
    for (i, &s) in srcs.iter().enumerate() {
        b.movq_rr(mm(tmp), mm(s)); // liftable copy
        b.mmx_rr(OPS[ops[i] as usize % OPS.len()], mm(acc), mm(tmp));
    }
    b.movq_store(Mem::base(R1), mm(acc));
    b.alu_ri(AluOp::Add, R1, 8);
    b.alu_ri(AluOp::Sub, R0, 1);
    b.jcc(Cond::Ne, l);
    b.mark_loop(l, Some(trips));
    if let Some(r) = tail_read {
        b.movq_store(Mem::abs(OUT_BASE + 0x1000), mm(r));
    }
    b.halt();
    b.finish().unwrap()
}

fn wide_span_setup(trips: u64) -> TestSetup {
    let input: Vec<u8> = (0..64u32).map(|i| (i * 83 + 29) as u8).collect();
    TestSetup {
        mem_init: vec![(IN_BASE, input)],
        outputs: vec![(OUT_BASE, trips as usize * 8)],
        ..Default::default()
    }
}

/// First disagreement between the engines running the lifted `program`
/// on the SPU machine, over the whole state.
fn engine_divergence(
    program: &Program,
    shape: &CrossbarShape,
    setup: &TestSetup,
) -> Option<String> {
    let states = ENGINES.map(|engine| {
        let cfg = MachineConfig { engine, ..MachineConfig::with_spu(*shape) };
        run(program, setup, cfg).unwrap()
    });
    ENGINES.iter().zip(&states).skip(1).find_map(|(engine, state)| {
        compare(&states[0], state, Compared::All).map(|d| format!("Reference vs {engine:?}: {d}"))
    })
}

/// The targeted acceptance case: a loop whose routes span five registers
/// (mm0, mm2, mm4, mm6 sources under a mm7 accumulator) lifts **fully**
/// under the windowed shapes B and D once compaction renames the spread
/// loads into one window. The routes are whole-register copies, so the
/// 16-bit ports of shape D accept them — the window was the only
/// obstacle, and compaction removes it by construction.
#[test]
fn five_register_span_lifts_fully_under_windowed_shapes() {
    let srcs = [0u8, 2, 4, 6];
    let trips = 8u64;
    let program = wide_span_program(&srcs, &[0, 0, 0, 0], 1, 7, trips);
    let setup = wide_span_setup(trips);

    for shape in [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D] {
        let lifted = lift_permutes(&program, &shape).unwrap();
        let rep = &lifted.report;
        assert_eq!(rep.loops.len(), 1, "{}", shape.name);
        assert_eq!(rep.loops[0].status, LoopStatus::Transformed, "{}", shape.name);
        assert_eq!(rep.removed_static, srcs.len(), "shape {}: every copy must lift", shape.name);
        // Compaction ran exactly on the windowed shapes: the span
        // (mm0..mm6) can never fit a 4-register window unrenamed.
        let renamed = rep.loops[0].renamed_ranges;
        if shape.full_reach() {
            assert_eq!(renamed, 0, "shape {} needs no renaming", shape.name);
        } else {
            assert!(renamed >= 2, "shape {} must rename the spread sources", shape.name);
        }
        differential(&program, &lifted.program, &shape, &setup)
            .unwrap_or_else(|e| panic!("shape {}: {e}", shape.name));
    }
}

/// The compacted program runs to bit-identical architectural state on
/// all three engines — stats, both register files, flags and the
/// outputs.
#[test]
fn compacted_program_agrees_across_engines() {
    let trips = 6u64;
    let program = wide_span_program(&[0, 2, 4, 6], &[0, 1, 0, 2], 3, 7, trips);
    let setup = wide_span_setup(trips);
    for shape in [SHAPE_B, SHAPE_D] {
        let lifted = lift_permutes(&program, &shape).unwrap();
        assert!(lifted.report.loops[0].renamed_ranges > 0);
        if let Some(diff) = engine_divergence(&lifted.program, &shape, &setup) {
            panic!("shape {}: {diff}", shape.name);
        }
        // And the renamed machine computes what the original does (the
        // MMX file legitimately differs because registers were renamed).
        differential(&program, &lifted.program, &shape, &setup)
            .unwrap_or_else(|e| panic!("shape {}: {e}", shape.name));
    }
}

/// A register read after the loop crosses the loop boundary, so the
/// compaction pass pins it: in the same loop without the post-loop read
/// mm6 is renamed into the window, with it mm6 keeps its name, the other
/// sources are renamed around it, and the escaping value reaches the
/// post-loop store.
#[test]
fn an_escaping_register_is_pinned_not_renamed() {
    let trips = 4u64;
    // The register the source load at `offset` writes in `p`.
    let load_dst = |p: &Program, offset: u32| {
        p.instrs.iter().find_map(|i| match i {
            Instr::MovqLoad { dst, addr } if *addr == Mem::abs(IN_BASE + offset) => Some(*dst),
            _ => None,
        })
    };
    let srcs = [0, 2, 4, 6];
    let plain = wide_span_program(&srcs, &[0, 0, 0, 0], 1, 7, trips);
    let lifted = lift_permutes(&plain, &SHAPE_B).unwrap();
    assert_ne!(load_dst(&lifted.program, 24), Some(mm(6)), "unpinned, mm6 is renamed");

    let leaky = wide_span_program_tail(&srcs, &[0, 0, 0, 0], 1, 7, trips, Some(6));
    let lifted = lift_permutes(&leaky, &SHAPE_B).unwrap();
    assert_eq!(lifted.report.removed_static, srcs.len());
    assert!(lifted.report.loops[0].renamed_ranges > 0, "the other sources are compacted");
    assert_eq!(load_dst(&lifted.program, 24), Some(mm(6)), "mm6 is pinned");
    let mut setup = wide_span_setup(trips);
    setup.outputs.push((OUT_BASE + 0x1000, 8));
    differential(&leaky, &lifted.program, &SHAPE_B, &setup).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Semantics preservation, fuzzed: random wide-span reduction loops
    /// (random spread sources, mixed arithmetic, random temp/accumulator
    /// registers) lift under every canonical shape; whatever the
    /// compaction renamed, the transformed program computes the
    /// original's outputs and both hazard engines agree bit for bit.
    #[test]
    fn compaction_preserves_semantics(
        perm in (0u64..u64::MAX).prop_map(|seed| {
            // Fisher–Yates driven by a SplitMix64 stream: a random
            // permutation of the register file per case.
            let mut s = seed;
            let mut next = move || {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut regs: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
            for i in (1..8usize).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                regs.swap(i, j);
            }
            regs
        }),
        lanes in 2usize..=5,
        ops in proptest::collection::vec(0u8..3, 5..6),
        trips in 2u64..6,
    ) {
        // Sources, temp and accumulator drawn from a random permutation
        // of the file: spans and windows land differently every case.
        let srcs: Vec<u8> = perm[..lanes].to_vec();
        let tmp = perm[5];
        let acc = perm[6];
        let program = wide_span_program(&srcs, &ops, tmp, acc, trips);
        let setup = wide_span_setup(trips);
        for shape in [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D] {
            let lifted = lift_permutes(&program, &shape)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", shape.name)))?;
            differential(&program, &lifted.program, &shape, &setup)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", shape.name)))?;
            let diverged = engine_divergence(&lifted.program, &shape, &setup);
            prop_assert!(diverged.is_none(), "{}: {:?}", shape.name, diverged);
        }
    }
}

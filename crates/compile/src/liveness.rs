//! Backward liveness analysis for the MMX register file.
//!
//! Deleting a realignment instruction leaves its destination register
//! stale, which is only sound if the register is **dead on the loop's
//! exit edge** (every in-loop consumer is rerouted; the paper's SPU is
//! idle outside the loop). The naive "is the register read anywhere
//! outside the loop" test is uselessly conservative for real kernels,
//! which reuse the eight MMX registers across loops — so this module
//! computes classic per-instruction live-in sets over the program's CFG.

use subword_isa::instr::Instr;
use subword_isa::program::Program;

/// Bitmask over the eight MMX registers.
pub type MmMask = u8;

/// Successor instruction indices of `i` (fall-through and/or branch
/// target). `halt` has none; running off the end has none.
fn successors(p: &Program, i: usize) -> [Option<usize>; 2] {
    let ins = &p.instrs[i];
    match ins {
        Instr::Halt => [None, None],
        Instr::Jmp { target } => [Some(p.resolve(*target)), None],
        Instr::Jcc { target, .. } => {
            let ft = if i + 1 < p.instrs.len() { Some(i + 1) } else { None };
            [Some(p.resolve(*target)), ft]
        }
        _ => [if i + 1 < p.instrs.len() { Some(i + 1) } else { None }, None],
    }
}

/// Per-instruction MMX live-in masks for the whole program.
///
/// `live_in[i]` = registers whose current value may still be read on some
/// path starting at instruction `i`.
pub fn mm_live_in(p: &Program) -> Vec<MmMask> {
    let n = p.instrs.len();
    let mut live_in = vec![0u8; n];
    // Iterate to fixpoint (programs are small; reverse sweeps converge
    // quickly).
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = 0;
            for s in successors(p, i).into_iter().flatten() {
                out |= live_in[s];
            }
            let ins = &p.instrs[i];
            let new = ins.read_mask().mm | (out & !ins.write_mask().mm);
            if new != live_in[i] {
                live_in[i] = new;
                changed = true;
            }
        }
    }
    live_in
}

/// True if `reg` may be read after the loop exit edge (the fall-through
/// of the conditional back edge at `back_edge`) before being rewritten.
pub fn live_on_loop_exit(
    p: &Program,
    live_in: &[MmMask],
    back_edge: usize,
    reg: subword_isa::reg::MmReg,
) -> bool {
    let exit = back_edge + 1;
    if exit >= p.instrs.len() {
        return false;
    }
    live_in[exit] & (1 << reg.index()) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::mem::Mem;
    use subword_isa::op::{AluOp, Cond, MmxOp};
    use subword_isa::reg::gp::*;
    use subword_isa::reg::MmReg::*;
    use subword_isa::ProgramBuilder;

    #[test]
    fn straight_line_liveness() {
        let mut b = ProgramBuilder::new("t");
        b.mmx_rr(MmxOp::Paddw, MM0, MM1); // reads mm0,mm1; writes mm0
        b.movq_store(Mem::abs(0), MM0); // reads mm0
        b.halt();
        let p = b.finish().unwrap();
        let li = mm_live_in(&p);
        assert_eq!(li[0], 0b11); // mm0, mm1
        assert_eq!(li[1], 0b01); // mm0
        assert_eq!(li[2], 0);
    }

    #[test]
    fn write_kills_liveness_across_loops() {
        // Loop A leaves mm5 stale; loop B overwrites mm5 before reading
        // it: mm5 must be dead on A's exit edge.
        let mut b = ProgramBuilder::new("t");
        b.mov_ri(R0, 4);
        let la = b.bind_here("A");
        b.movq_rr(MM5, MM4);
        b.mmx_rr(MmxOp::Paddw, MM6, MM5);
        b.alu_ri(AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, la);
        b.mark_loop(la, Some(4));
        b.mov_ri(R0, 4);
        let lb = b.bind_here("B");
        b.movq_load(MM5, Mem::abs(0)); // write-first
        b.mmx_rr(MmxOp::Psubw, MM7, MM5);
        b.alu_ri(AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, lb);
        b.mark_loop(lb, Some(4));
        b.halt();
        let p = b.finish().unwrap();
        let li = mm_live_in(&p);
        let back_a = p.loops[0].back_edge;
        assert!(!live_on_loop_exit(&p, &li, back_a, MM5));
        // mm4 is read inside loop A with no kill: live on entry.
        assert!(li[1] & (1 << 4) != 0);
    }

    #[test]
    fn read_after_loop_keeps_register_live() {
        let mut b = ProgramBuilder::new("t");
        b.mov_ri(R0, 4);
        let la = b.bind_here("A");
        b.mmx_rr(MmxOp::Punpcklwd, MM2, MM1);
        b.alu_ri(AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, la);
        b.mark_loop(la, Some(4));
        b.movq_store(Mem::abs(0), MM2); // mm2 escapes
        b.halt();
        let p = b.finish().unwrap();
        let li = mm_live_in(&p);
        assert!(live_on_loop_exit(&p, &li, p.loops[0].back_edge, MM2));
    }

    #[test]
    fn branch_paths_union() {
        let mut b = ProgramBuilder::new("t");
        let skip = b.new_label("skip");
        b.cmp_ri(R0, 0);
        b.jcc(Cond::E, skip);
        b.movq_store(Mem::abs(0), MM3); // reads mm3 on one path
        b.bind(skip);
        b.halt();
        let p = b.finish().unwrap();
        let li = mm_live_in(&p);
        // mm3 live at the jcc (one successor reads it).
        assert!(li[1] & (1 << 3) != 0);
        assert!(li[0] & (1 << 3) != 0);
    }
}

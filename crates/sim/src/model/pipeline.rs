//! U/V pairing rules and hazard analysis.
//!
//! Implements the issue restrictions the paper lists in §2 for the MMX
//! Pentium: one multiply per cycle, one shifter-class (shift/pack/unpack)
//! per cycle, memory accesses only in U, distinct destinations, and no
//! RAW/WAR dependencies between the two pipes. Branches may only occupy
//! the V pipe (classic `sub`+`jnz` loop-end pairing works, with U→V flag
//! forwarding). Scalar multiplies block the pipeline and never pair.
//!
//! When the SPU routes an instruction's operands, its *effective* register
//! reads are the registers its routes touch, not the nominal operand
//! fields — [`effective_read_mask`] feeds the hazard checks accordingly.
//!
//! Two parallel implementations exist on purpose. The mask forms
//! ([`effective_read_mask`], [`pair_block`]) are allocation-free and feed
//! the hot interpreter loop; the `Vec<RegRef>` forms ([`effective_reads`],
//! [`pair_block_ref`]) are the original, straightforwardly-auditable
//! definitions, kept as the reference oracle: the reference engine
//! ([`crate::ExecEngine::Reference`]) executes entirely on them, and the differential tests assert the two
//! engines produce bit-identical statistics and outputs.

use subword_isa::instr::{Instr, MmxOperand, RegMask, RegRef};
use subword_isa::reg::MmReg;
use subword_spu::controller::StepRouting;
use subword_spu::ByteRoute;

fn route_regs(route: &ByteRoute, out: &mut Vec<RegRef>) {
    let mut seen = [false; 8];
    for b in route.0 {
        let r = (b / 8) as usize & 7;
        if !seen[r] {
            seen[r] = true;
            out.push(RegRef::Mm(MmReg::from_index(r).unwrap()));
        }
    }
}

/// Registers actually read by `instr` when issued under `routing` — the
/// allocating reference form of [`effective_read_mask`] (each register
/// appears once).
///
/// SPU routing replaces the nominal MMX register operand reads with the
/// set of registers the routes gather from; scalar and address reads are
/// unaffected.
pub fn effective_reads(instr: &Instr, routing: &StepRouting) -> Vec<RegRef> {
    if !routing.routes_anything() || !instr.spu_routable() {
        return instr.reads();
    }
    let mut v = Vec::with_capacity(6);
    match instr {
        Instr::Mmx { op, dst, src } => {
            match routing.route_a {
                Some(r) => route_regs(&r, &mut v),
                None => {
                    if !matches!(op, subword_isa::op::MmxOp::Movq) {
                        v.push(RegRef::Mm(*dst));
                    }
                }
            }
            match (routing.route_b, src) {
                (Some(r), MmxOperand::Reg(_)) => route_regs(&r, &mut v),
                (_, MmxOperand::Reg(s)) => v.push(RegRef::Mm(*s)),
                _ => {}
            }
            if let MmxOperand::Mem(m) = src {
                for r in m.regs() {
                    v.push(RegRef::Gp(r));
                }
            }
        }
        Instr::MovqStore { addr, src } | Instr::MovdStore { addr, src } => {
            match routing.route_a {
                Some(r) => route_regs(&r, &mut v),
                None => v.push(RegRef::Mm(*src)),
            }
            for r in addr.regs() {
                v.push(RegRef::Gp(r));
            }
        }
        Instr::MovdFromMm { src, .. } => match routing.route_a {
            Some(r) => route_regs(&r, &mut v),
            None => v.push(RegRef::Mm(*src)),
        },
        _ => return instr.reads(),
    }
    subword_isa::instr::dedup_reg_refs(&mut v);
    v
}

/// [`effective_reads`] as a [`RegMask`]: the same register set, computed
/// without allocating. This is what the interpreter's scoreboard and
/// pairing hazard checks run on.
pub fn effective_read_mask(instr: &Instr, routing: &StepRouting) -> RegMask {
    if !routing.routes_anything() || !instr.spu_routable() {
        return instr.read_mask();
    }
    let mut m = RegMask::EMPTY;
    match instr {
        Instr::Mmx { op, dst, src } => {
            match routing.route_a {
                Some(r) => m.mm |= r.reg_mask(),
                None => {
                    if !matches!(op, subword_isa::op::MmxOp::Movq) {
                        m.mm |= 1 << dst.index();
                    }
                }
            }
            match (routing.route_b, src) {
                (Some(r), MmxOperand::Reg(_)) => m.mm |= r.reg_mask(),
                (_, MmxOperand::Reg(s)) => m.mm |= 1 << s.index(),
                _ => {}
            }
            if let MmxOperand::Mem(mem) = src {
                for r in mem.regs() {
                    m.gp |= 1 << r.index();
                }
            }
        }
        Instr::MovqStore { addr, src } | Instr::MovdStore { addr, src } => {
            match routing.route_a {
                Some(r) => m.mm |= r.reg_mask(),
                None => m.mm |= 1 << src.index(),
            }
            for r in addr.regs() {
                m.gp |= 1 << r.index();
            }
        }
        Instr::MovdFromMm { src, .. } => match routing.route_a {
            Some(r) => m.mm |= r.reg_mask(),
            None => m.mm |= 1 << src.index(),
        },
        _ => return instr.read_mask(),
    }
    m
}

/// Why a candidate pair was rejected (for diagnostics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairBlock {
    /// First slot may not be a branch or `halt`.
    FirstNotPairable,
    /// Second slot may not access memory (V pipe has no memory port).
    SecondIsMemAccess,
    /// Second slot may not be `halt`.
    SecondIsHalt,
    /// Scalar multiplies never pair.
    ScalarMultiply,
    /// Only one MMX multiply per cycle.
    BothMultiplies,
    /// Only one shifter-class instruction per cycle.
    BothShifters,
    /// The pair writes the same destination.
    SameDestination,
    /// Read-after-write between the pipes.
    Raw,
    /// Write-after-read between the pipes.
    War,
}

/// The structural (routing-independent) pairing rules shared by both
/// hazard engines.
fn pair_block_structural(i0: &Instr, i1: &Instr) -> Option<PairBlock> {
    if i0.is_branch() || matches!(i0, Instr::Halt) {
        return Some(PairBlock::FirstNotPairable);
    }
    if matches!(i1, Instr::Halt) {
        return Some(PairBlock::SecondIsHalt);
    }
    if i1.is_mem_access() {
        return Some(PairBlock::SecondIsMemAccess);
    }
    if i0.is_scalar_multiply() || i1.is_scalar_multiply() {
        return Some(PairBlock::ScalarMultiply);
    }
    if i0.is_mmx_multiply() && i1.is_mmx_multiply() {
        return Some(PairBlock::BothMultiplies);
    }
    if i0.is_mmx_shifter() && i1.is_mmx_shifter() {
        return Some(PairBlock::BothShifters);
    }
    None
}

/// Check whether `(i0, i1)` may dual-issue, given each instruction's SPU
/// routing. Returns the blocking rule or `None` when pairing is legal.
///
/// The RAW/WAR/same-destination checks run on [`RegMask`]s — no
/// allocation. [`pair_block_ref`] is the `Vec`-based reference form.
pub fn pair_block(i0: &Instr, r0: &StepRouting, i1: &Instr, r1: &StepRouting) -> Option<PairBlock> {
    if let Some(b) = pair_block_structural(i0, i1) {
        return Some(b);
    }
    let w0 = i0.write_mask();
    let w1 = i1.write_mask();
    if !w0.is_empty() && w0 == w1 {
        return Some(PairBlock::SameDestination);
    }
    // RAW: i1 reads something i0 writes. Flags are exempt: the Pentium
    // forwards U-pipe flags to a V-pipe branch within the pair.
    if w0.intersects(effective_read_mask(i1, r1)) {
        return Some(PairBlock::Raw);
    }
    // WAR: i1 writes something i0 reads.
    if w1.intersects(effective_read_mask(i0, r0)) {
        return Some(PairBlock::War);
    }
    None
}

/// Reference form of [`pair_block`]: the hazard checks run on the
/// allocating `Vec<RegRef>` API. Used by the reference engine
/// ([`crate::ExecEngine::Reference`]) and the differential tests.
pub fn pair_block_ref(
    i0: &Instr,
    r0: &StepRouting,
    i1: &Instr,
    r1: &StepRouting,
) -> Option<PairBlock> {
    if let Some(b) = pair_block_structural(i0, i1) {
        return Some(b);
    }
    let w0 = i0.writes();
    let w1 = i1.writes();
    if w0.is_some() && w0 == w1 {
        return Some(PairBlock::SameDestination);
    }
    if let Some(w) = w0 {
        if effective_reads(i1, r1).contains(&w) {
            return Some(PairBlock::Raw);
        }
    }
    if let Some(w) = w1 {
        if effective_reads(i0, r0).contains(&w) {
            return Some(PairBlock::War);
        }
    }
    None
}

/// Convenience wrapper: true when the pair may dual-issue.
pub fn can_pair(i0: &Instr, r0: &StepRouting, i1: &Instr, r1: &StepRouting) -> bool {
    pair_block(i0, r0, i1, r1).is_none()
}

/// Reference form of [`can_pair`] (see [`pair_block_ref`]).
pub fn can_pair_ref(i0: &Instr, r0: &StepRouting, i1: &Instr, r1: &StepRouting) -> bool {
    pair_block_ref(i0, r0, i1, r1).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::instr::GpOperand;
    use subword_isa::mem::Mem;
    use subword_isa::op::{AluOp, Cond, MmxOp};
    use subword_isa::program::Label;
    use subword_isa::reg::gp::*;
    use subword_isa::reg::MmReg::*;

    const S: StepRouting = StepRouting { route_a: None, route_b: None };

    fn mmx(op: MmxOp, d: subword_isa::reg::MmReg, s: subword_isa::reg::MmReg) -> Instr {
        Instr::Mmx { op, dst: d, src: MmxOperand::Reg(s) }
    }

    #[test]
    fn independent_alu_pairs() {
        let a = mmx(MmxOp::Paddw, MM0, MM1);
        let b = mmx(MmxOp::Psubw, MM2, MM3);
        assert!(can_pair(&a, &S, &b, &S));
    }

    #[test]
    fn two_multiplies_blocked() {
        let a = mmx(MmxOp::Pmullw, MM0, MM1);
        let b = mmx(MmxOp::Pmulhw, MM2, MM3);
        assert_eq!(pair_block(&a, &S, &b, &S), Some(PairBlock::BothMultiplies));
        // Multiply + add pairs.
        let c = mmx(MmxOp::Paddw, MM4, MM5);
        assert!(can_pair(&a, &S, &c, &S));
    }

    #[test]
    fn two_shifter_class_blocked() {
        let a = mmx(MmxOp::Punpcklwd, MM0, MM1);
        let b = mmx(MmxOp::Punpckhwd, MM2, MM3);
        assert_eq!(pair_block(&a, &S, &b, &S), Some(PairBlock::BothShifters));
        let c = Instr::Mmx { op: MmxOp::Psrlq, dst: MM4, src: MmxOperand::Imm(32) };
        assert_eq!(pair_block(&a, &S, &c, &S), Some(PairBlock::BothShifters));
        // unpack + multiply pairs: this is how real MMX code hides some
        // permutes — the paper's point is that it cannot hide all of them.
        let m = mmx(MmxOp::Pmullw, MM4, MM5);
        assert!(can_pair(&a, &S, &m, &S));
    }

    #[test]
    fn memory_only_in_u() {
        let ld = Instr::MovqLoad { dst: MM0, addr: Mem::base(R0) };
        let add = mmx(MmxOp::Paddw, MM2, MM3);
        assert!(can_pair(&ld, &S, &add, &S));
        assert_eq!(pair_block(&add, &S, &ld, &S), Some(PairBlock::SecondIsMemAccess));
    }

    #[test]
    fn branch_only_in_v() {
        let sub = Instr::Alu { op: AluOp::Sub, dst: R0, src: GpOperand::Imm(1) };
        let jnz = Instr::Jcc { cond: Cond::Ne, target: Label(0) };
        // The canonical loop-end pair: sub+jnz, with flag forwarding.
        assert!(can_pair(&sub, &S, &jnz, &S));
        assert_eq!(pair_block(&jnz, &S, &sub, &S), Some(PairBlock::FirstNotPairable));
    }

    #[test]
    fn raw_war_same_dest() {
        let a = mmx(MmxOp::Paddw, MM0, MM1);
        let uses_mm0 = mmx(MmxOp::Psubw, MM2, MM0);
        assert_eq!(pair_block(&a, &S, &uses_mm0, &S), Some(PairBlock::Raw));
        let writes_mm1 = mmx(MmxOp::Movq, MM1, MM3);
        assert_eq!(pair_block(&a, &S, &writes_mm1, &S), Some(PairBlock::War));
        let also_mm0 = mmx(MmxOp::Pxor, MM0, MM3);
        assert_eq!(pair_block(&a, &S, &also_mm0, &S), Some(PairBlock::SameDestination));
    }

    #[test]
    fn scalar_multiply_never_pairs() {
        let imul = Instr::Alu { op: AluOp::Imul, dst: R0, src: GpOperand::Reg(R1) };
        let add = Instr::Alu { op: AluOp::Add, dst: R2, src: GpOperand::Imm(1) };
        assert_eq!(pair_block(&imul, &S, &add, &S), Some(PairBlock::ScalarMultiply));
        assert_eq!(pair_block(&add, &S, &imul, &S), Some(PairBlock::ScalarMultiply));
    }

    #[test]
    fn routing_changes_hazards() {
        // movq mm2, mm2 with operand B routed from MM0/MM1: effectively
        // reads MM0+MM1, not MM2.
        let gather = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let i1 = mmx(MmxOp::Movq, MM2, MM2);
        let r1 = StepRouting { route_b: Some(gather), ..S };
        let writes_mm0 = mmx(MmxOp::Paddw, MM0, MM3);
        // Nominal reads would be {MM2}: no RAW. Routed reads are
        // {MM0, MM1}: RAW on MM0.
        assert_eq!(pair_block(&writes_mm0, &S, &i1, &r1), Some(PairBlock::Raw));
        // Without routing the same pair is legal.
        assert!(can_pair(&writes_mm0, &S, &i1, &S));
    }

    #[test]
    fn routed_store_reads_route_sources() {
        let gather = ByteRoute::from_reg_words([(MM4, 0), (MM5, 0), (MM6, 0), (MM7, 0)]);
        let st = Instr::MovqStore { addr: Mem::base(R0), src: MM1 };
        let r = StepRouting { route_a: Some(gather), ..S };
        let reads = effective_reads(&st, &r);
        assert!(reads.contains(&RegRef::Mm(MM4)));
        assert!(reads.contains(&RegRef::Mm(MM7)));
        assert!(!reads.contains(&RegRef::Mm(MM1)));
        assert!(reads.contains(&RegRef::Gp(R0)));
    }

    #[test]
    fn mask_engine_agrees_with_reference_engine() {
        let gather = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let pool = [
            mmx(MmxOp::Paddw, MM0, MM1),
            mmx(MmxOp::Movq, MM2, MM2),
            mmx(MmxOp::Pmullw, MM0, MM1),
            mmx(MmxOp::Punpcklwd, MM0, MM1),
            Instr::Mmx { op: MmxOp::Psrlq, dst: MM4, src: MmxOperand::Imm(32) },
            Instr::MovqLoad { dst: MM0, addr: Mem::base(R0) },
            Instr::MovqStore { addr: Mem::base(R0), src: MM1 },
            Instr::MovdFromMm { dst: R2, src: MM3 },
            Instr::Alu { op: AluOp::Sub, dst: R0, src: GpOperand::Imm(1) },
            Instr::Alu { op: AluOp::Imul, dst: R0, src: GpOperand::Reg(R1) },
            Instr::Jcc { cond: Cond::Ne, target: Label(0) },
            Instr::Nop,
            Instr::Halt,
        ];
        let routings = [
            S,
            StepRouting { route_a: Some(gather), ..S },
            StepRouting { route_b: Some(gather), ..S },
            StepRouting { route_a: Some(gather), route_b: Some(gather) },
        ];
        for i0 in &pool {
            for r0 in &routings {
                // The mask is exactly the set the Vec API reports.
                let as_mask: subword_isa::instr::RegMask =
                    effective_reads(i0, r0).into_iter().collect();
                assert_eq!(effective_read_mask(i0, r0), as_mask, "{i0} under {r0:?}");
                assert_eq!(
                    effective_read_mask(i0, r0).len() as usize,
                    effective_reads(i0, r0).len(),
                    "duplicate register in effective_reads of {i0}"
                );
                for i1 in &pool {
                    for r1 in &routings {
                        assert_eq!(
                            pair_block(i0, r0, i1, r1),
                            pair_block_ref(i0, r0, i1, r1),
                            "engines disagree on ({i0}; {i1}) under ({r0:?}; {r1:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn effective_reads_dedupes_overlapping_routes() {
        // Both lanes gather from MM0/MM1: each register reported once.
        let gather = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM0, 1), (MM1, 1)]);
        let i = mmx(MmxOp::Paddw, MM2, MM3);
        let r = StepRouting { route_a: Some(gather), route_b: Some(gather) };
        assert_eq!(effective_reads(&i, &r), vec![RegRef::Mm(MM0), RegRef::Mm(MM1)]);
        // Same base and index register: one GP read.
        let st = Instr::MovqStore { addr: Mem::bisd(R0, R0, 2, 0), src: MM1 };
        assert_eq!(effective_reads(&st, &S), vec![RegRef::Mm(MM1), RegRef::Gp(R0)]);
    }

    #[test]
    fn flag_forwarding_exemption() {
        // cmp (writes flags) + jcc (reads flags) must pair.
        let cmp = Instr::Cmp { a: R0, b: GpOperand::Imm(5) };
        let jcc = Instr::Jcc { cond: Cond::L, target: Label(0) };
        assert!(can_pair(&cmp, &S, &jcc, &S));
    }
}

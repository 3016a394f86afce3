//! Predecode layer: `Program` → [`DecodedProgram`].
//!
//! The interpreter loop used to re-derive instruction-class predicates,
//! operand register sets and pairing legality on every dynamic slot —
//! including up to five `Vec<RegRef>` allocations per slot for the hazard
//! checks. All of that is static per instruction (and, for pairing
//! legality under straight routing, per static `(pc, pc+1)` pair), so
//! [`Machine::run`](crate::Machine::run) now decodes the program **once**
//! into a dense side table of [`DecodedInstr`] metadata and the hot loop
//! reads packed flags and [`RegMask`] bitmasks instead:
//!
//! * [`ClassFlags`] — ten bits of class predicates (mmx / load / store /
//!   branch / mmx-multiply / shifter / scalar-multiply / realignment /
//!   reads-flags / writes-flags), replacing `matches!` walks in
//!   `account()`, the issue-cost logic and the out-of-order timing;
//! * `reads` / `writes` — the instruction's nominal register sets as
//!   bitmasks (`u8` MMX + `u16` GP), feeding the scoreboard and the
//!   RAW/WAR pairing checks without allocation;
//! * `mem_bytes` — the width of the memory operand, which the
//!   out-of-order store buffer disambiguates by (the effective address
//!   is the only per-execution part of a memory reference);
//! * `pairable_next` — whether `(pc, pc+1)` may dual-issue when the SPU
//!   routes neither slot. While the controller is idle (or its current
//!   states route nothing) the dynamic pairing test collapses to this
//!   single predecoded bit; the full mask-based
//!   [`pair_block`](crate::pipeline::pair_block) only runs when the SPU
//!   actually routes one of the slots.
//!
//! The predecode is structural only — it never looks at register values
//! or routing state — so it cannot change simulated semantics. The
//! differential tests (`tests/differential.rs`) prove this by running the
//! full kernel suite through both engines and comparing `SimStats`
//! bit-for-bit.

use crate::pipeline::can_pair;
use subword_isa::instr::{Instr, MmxOperand, RegMask};
use subword_isa::program::Program;
use subword_spu::controller::StepRouting;

/// Packed instruction-class predicate bits. Bit layout is internal; use
/// the accessors.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ClassFlags(u16);

impl ClassFlags {
    const MMX: u16 = 1 << 0;
    const LOAD: u16 = 1 << 1;
    const STORE: u16 = 1 << 2;
    const BRANCH: u16 = 1 << 3;
    const MMX_MULTIPLY: u16 = 1 << 4;
    const SHIFTER: u16 = 1 << 5;
    const SCALAR_MULTIPLY: u16 = 1 << 6;
    const REALIGNMENT: u16 = 1 << 7;
    const READS_FLAGS: u16 = 1 << 8;
    const WRITES_FLAGS: u16 = 1 << 9;

    /// Evaluate every class predicate of `i` once.
    pub fn of(i: &Instr) -> ClassFlags {
        let mut f = 0u16;
        if i.is_mmx() {
            f |= Self::MMX;
        }
        if i.is_load() {
            f |= Self::LOAD;
        }
        if i.is_store() {
            f |= Self::STORE;
        }
        if i.is_branch() {
            f |= Self::BRANCH;
        }
        if i.is_mmx_multiply() {
            f |= Self::MMX_MULTIPLY;
        }
        if i.is_mmx_shifter() {
            f |= Self::SHIFTER;
        }
        if i.is_scalar_multiply() {
            f |= Self::SCALAR_MULTIPLY;
        }
        if i.is_realignment() {
            f |= Self::REALIGNMENT;
        }
        if i.reads_flags() {
            f |= Self::READS_FLAGS;
        }
        if i.writes_flags() {
            f |= Self::WRITES_FLAGS;
        }
        ClassFlags(f)
    }

    /// Mirrors [`Instr::is_mmx`].
    #[inline]
    pub fn is_mmx(self) -> bool {
        self.0 & Self::MMX != 0
    }

    /// Mirrors [`Instr::is_load`].
    #[inline]
    pub fn is_load(self) -> bool {
        self.0 & Self::LOAD != 0
    }

    /// Mirrors [`Instr::is_store`].
    #[inline]
    pub fn is_store(self) -> bool {
        self.0 & Self::STORE != 0
    }

    /// Mirrors [`Instr::is_branch`].
    #[inline]
    pub fn is_branch(self) -> bool {
        self.0 & Self::BRANCH != 0
    }

    /// Mirrors [`Instr::is_mmx_multiply`].
    #[inline]
    pub fn is_mmx_multiply(self) -> bool {
        self.0 & Self::MMX_MULTIPLY != 0
    }

    /// Mirrors [`Instr::is_mmx_shifter`].
    #[inline]
    pub fn is_mmx_shifter(self) -> bool {
        self.0 & Self::SHIFTER != 0
    }

    /// Mirrors [`Instr::is_scalar_multiply`].
    #[inline]
    pub fn is_scalar_multiply(self) -> bool {
        self.0 & Self::SCALAR_MULTIPLY != 0
    }

    /// Mirrors [`Instr::is_realignment`].
    #[inline]
    pub fn is_realignment(self) -> bool {
        self.0 & Self::REALIGNMENT != 0
    }

    /// Mirrors [`Instr::reads_flags`].
    #[inline]
    pub fn reads_flags(self) -> bool {
        self.0 & Self::READS_FLAGS != 0
    }

    /// Mirrors [`Instr::writes_flags`].
    #[inline]
    pub fn writes_flags(self) -> bool {
        self.0 & Self::WRITES_FLAGS != 0
    }
}

/// Static per-instruction metadata, computed once per
/// [`DecodedProgram::decode`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DecodedInstr {
    /// Class predicate byte.
    pub flags: ClassFlags,
    /// Nominal (no-routing) register reads as a bitmask.
    pub reads: RegMask,
    /// Register writes as a bitmask (at most one bit set).
    pub writes: RegMask,
    /// Bytes the memory operand accesses; 0 without one
    /// ([`Instr::mem_operand`]).
    pub mem_bytes: u8,
    /// Whether the SPU interconnect can route this instruction's operands
    /// ([`Instr::spu_routable`]).
    pub routable: bool,
    /// Whether `(pc, pc+1)` may dual-issue when the SPU routes neither
    /// slot. `false` for the last instruction.
    pub pairable_next: bool,
}

impl DecodedInstr {
    fn of(i: &Instr) -> DecodedInstr {
        DecodedInstr {
            flags: ClassFlags::of(i),
            reads: i.read_mask(),
            writes: i.write_mask(),
            mem_bytes: mem_bytes(i),
            routable: i.spu_routable(),
            pairable_next: false,
        }
    }
}

/// Bytes `i`'s memory operand accesses; 0 without one.
fn mem_bytes(i: &Instr) -> u8 {
    match i {
        Instr::Mmx { src: MmxOperand::Mem(_), .. }
        | Instr::MovqLoad { .. }
        | Instr::MovqStore { .. } => 8,
        Instr::MovdLoad { .. }
        | Instr::MovdStore { .. }
        | Instr::Load { .. }
        | Instr::Store { .. }
        | Instr::StoreI { .. } => 4,
        Instr::LoadW { .. } | Instr::StoreW { .. } => 2,
        _ => 0,
    }
}

/// The predecoded side table of a [`Program`]: one [`DecodedInstr`] per
/// instruction, indexable by the same `pc` as `program.instrs`.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    meta: Vec<DecodedInstr>,
    /// Whether **any** instruction is SPU-routable. When false, no
    /// routing decision can change an operand fetch, a hazard mask or a
    /// pairing verdict, so the slot loop skips the per-slot
    /// `peek_routing_pair` walk entirely (a pure win on MMX-only
    /// baselines; safe even with an active controller).
    pub any_spu_routable: bool,
}

impl DecodedProgram {
    /// Decode `program`. Cost is linear in static program size and paid
    /// once per [`Machine::run`](crate::Machine::run), not per dynamic
    /// instruction.
    pub fn decode(program: &Program) -> DecodedProgram {
        let mut meta: Vec<DecodedInstr> = program.instrs.iter().map(DecodedInstr::of).collect();
        let straight = StepRouting::default();
        for pc in 0..meta.len().saturating_sub(1) {
            meta[pc].pairable_next =
                can_pair(&program.instrs[pc], &straight, &program.instrs[pc + 1], &straight);
        }
        let any_spu_routable = meta.iter().any(|d| d.routable);
        DecodedProgram { meta, any_spu_routable }
    }

    /// Metadata of the instruction at `pc`.
    #[inline]
    pub fn get(&self, pc: usize) -> &DecodedInstr {
        &self.meta[pc]
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::asm::assemble;
    use subword_isa::instr::RegRef;
    use subword_isa::reg::gp::*;
    use subword_isa::reg::MmReg::*;

    #[test]
    fn class_flags_mirror_instr_predicates() {
        let p = assemble(
            "t",
            r#"
            mov r0, 0x100
            movq mm0, [r0]
            pmullw mm0, mm1
            punpcklwd mm2, mm3
            movq [r0+8], mm0
            movd [r0], mm1
            paddw mm1, [r0+16]
            movzx r2, [r0]
            movw [r0+2], r2
            imul r1, r1
            sub r0, 1
            jnz t
        t:
            halt
        "#,
        )
        .unwrap();
        for i in &p.instrs {
            let f = ClassFlags::of(i);
            assert_eq!(f.reads_flags(), i.reads_flags(), "{i}");
            assert_eq!(f.writes_flags(), i.writes_flags(), "{i}");
            assert_eq!(mem_bytes(i) != 0, i.mem_operand().is_some(), "{i}");
            assert_eq!(f.is_mmx(), i.is_mmx(), "{i}");
            assert_eq!(f.is_load(), i.is_load(), "{i}");
            assert_eq!(f.is_store(), i.is_store(), "{i}");
            assert_eq!(f.is_branch(), i.is_branch(), "{i}");
            assert_eq!(f.is_mmx_multiply(), i.is_mmx_multiply(), "{i}");
            assert_eq!(f.is_mmx_shifter(), i.is_mmx_shifter(), "{i}");
            assert_eq!(f.is_scalar_multiply(), i.is_scalar_multiply(), "{i}");
            assert_eq!(f.is_realignment(), i.is_realignment(), "{i}");
        }
        let widths: Vec<u8> = p.instrs.iter().map(mem_bytes).collect();
        assert_eq!(widths, [0, 8, 0, 0, 8, 4, 8, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn decode_precomputes_masks_and_pairing() {
        let p = assemble(
            "t",
            "paddw mm0, mm1\n psubw mm2, mm3\n paddw mm2, mm0\n sub r0, 1\n jnz t\nt:\n halt\n",
        )
        .unwrap();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), p.instrs.len());
        assert!(!d.is_empty());

        // paddw mm0, mm1 reads {mm0, mm1}, writes {mm0}.
        assert!(d.get(0).reads.contains(RegRef::Mm(MM0)));
        assert!(d.get(0).reads.contains(RegRef::Mm(MM1)));
        assert_eq!(d.get(0).writes, RegMask::of(RegRef::Mm(MM0)));
        assert!(d.get(0).routable);
        assert!(!d.get(3).routable); // sub is scalar
        assert!(d.get(3).reads.contains(RegRef::Gp(R0)));

        // (paddw, psubw) independent: pairable. (psubw mm2, paddw mm2)
        // share a destination: not pairable. (paddw mm2 mm0, sub):
        // pairable. (sub, jnz): the canonical loop-end pair. (jnz, halt):
        // branches never lead a pair. halt is last: false.
        assert_eq!(
            (0..d.len()).map(|i| d.get(i).pairable_next).collect::<Vec<_>>(),
            vec![true, false, true, true, false, false]
        );
    }
}

//! Programs: instruction vectors with resolved labels and loop metadata.

use crate::instr::{Instr, MmxOperand};
use crate::op::MmxOp;
use std::fmt;

/// An opaque label handle. Labels are created and bound through
/// [`crate::builder::ProgramBuilder`] (or the text assembler) and resolve to
/// instruction indices in the finished [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub u32);

/// Static loop metadata recorded by the builder.
///
/// The SPU compiler uses this to size the decoupled controller's
/// zero-overhead loop counters (paper §4: counters are "initialized with the
/// dynamic instruction count required for the computational loop").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// Index of the first instruction of the loop body.
    pub head: usize,
    /// Index of the back-edge branch instruction.
    pub back_edge: usize,
    /// Statically known trip count, if any.
    pub trip_count: Option<u64>,
}

impl LoopInfo {
    /// Number of static instructions in the loop body (inclusive of the
    /// back edge).
    pub fn body_len(&self) -> usize {
        self.back_edge - self.head + 1
    }
}

/// Validation errors for a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch targets a label that was never bound.
    UnboundLabel { instr: usize, label: Label },
    /// A label resolves outside the instruction range.
    LabelOutOfRange { label: Label, pos: usize },
    /// An immediate operand appears on a non-shift MMX op.
    BadImmediateOperand { instr: usize, op: MmxOp },
    /// A memory operand has an invalid scale factor.
    BadScale { instr: usize },
    /// Loop metadata is inconsistent (head after back edge, or the back
    /// edge is not a branch to the head).
    BadLoopInfo { loop_index: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel { instr, label } => {
                write!(f, "instruction {instr} references unbound label L{}", label.0)
            }
            ProgramError::LabelOutOfRange { label, pos } => {
                write!(f, "label L{} resolves to out-of-range position {pos}", label.0)
            }
            ProgramError::BadImmediateOperand { instr, op } => {
                write!(f, "instruction {instr}: {op} does not take an immediate operand")
            }
            ProgramError::BadScale { instr } => {
                write!(f, "instruction {instr}: memory operand scale must be 1, 2, 4 or 8")
            }
            ProgramError::BadLoopInfo { loop_index } => {
                write!(f, "loop metadata {loop_index} is inconsistent")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A finished program: instructions plus resolved labels and loop metadata.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Program name (for reports).
    pub name: String,
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
    /// `label_pos[label.0]` = instruction index the label is bound to.
    pub(crate) label_pos: Vec<Option<usize>>,
    /// Human-readable label names, parallel to `label_pos`.
    pub(crate) label_names: Vec<String>,
    /// Loop metadata, innermost-last, recorded by the builder.
    pub loops: Vec<LoopInfo>,
}

impl Program {
    /// Resolve a label to its instruction index.
    ///
    /// # Panics
    /// Panics if the label is unbound — a validated program never does.
    #[inline]
    pub fn resolve(&self, l: Label) -> usize {
        self.label_pos[l.0 as usize].expect("unbound label in validated program")
    }

    /// The name a label was created with.
    pub fn label_name(&self, l: Label) -> &str {
        &self.label_names[l.0 as usize]
    }

    /// Number of labels (bound or not).
    pub fn label_count(&self) -> usize {
        self.label_pos.len()
    }

    /// The instruction index a label is bound to, or `None` for an
    /// unbound label. Unlike [`Program::resolve`], this never panics —
    /// passes that walk *all* labels (e.g. the scheduler's region
    /// partitioning) use it to treat every bound position as a boundary.
    pub fn label_position(&self, l: Label) -> Option<usize> {
        self.label_pos.get(l.0 as usize).copied().flatten()
    }

    /// Look up a bound label by name.
    pub fn find_label(&self, name: &str) -> Option<Label> {
        self.label_names.iter().position(|n| n == name).map(|i| Label(i as u32))
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Validate structural invariants (label resolution, operand legality,
    /// loop metadata consistency).
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (i, ins) in self.instrs.iter().enumerate() {
            if let Some(l) = ins.branch_target() {
                match self.label_pos.get(l.0 as usize).copied().flatten() {
                    None => return Err(ProgramError::UnboundLabel { instr: i, label: l }),
                    Some(pos) if pos > self.instrs.len() => {
                        return Err(ProgramError::LabelOutOfRange { label: l, pos })
                    }
                    _ => {}
                }
            }
            if let Instr::Mmx { op, src: MmxOperand::Imm(_), .. } = ins {
                if !op.allows_imm_src() {
                    return Err(ProgramError::BadImmediateOperand { instr: i, op: *op });
                }
            }
            if let Some(m) = ins.mem_operand() {
                if !m.scale_valid() {
                    return Err(ProgramError::BadScale { instr: i });
                }
            }
        }
        for (li, l) in self.loops.iter().enumerate() {
            let ok = l.head <= l.back_edge
                && l.back_edge < self.instrs.len()
                && match self.instrs[l.back_edge].branch_target() {
                    Some(t) => self.label_pos.get(t.0 as usize).copied().flatten() == Some(l.head),
                    None => false,
                };
            if !ok {
                return Err(ProgramError::BadLoopInfo { loop_index: li });
            }
        }
        Ok(())
    }

    /// Static instruction-mix summary (used by reports and tests).
    pub fn static_mix(&self) -> StaticMix {
        let mut m = StaticMix::default();
        for ins in &self.instrs {
            m.total += 1;
            if ins.is_mmx() {
                m.mmx += 1;
                if ins.is_realignment() {
                    m.realignment += 1;
                }
                if ins.is_mmx_multiply() {
                    m.mmx_mul += 1;
                }
            }
            if ins.is_branch() {
                m.branches += 1;
            }
        }
        m
    }

    /// Innermost loop containing instruction index `i`, if any.
    ///
    /// "Innermost" means the loop with the smallest body among those whose
    /// `[head, back_edge]` range contains `i`.
    pub fn innermost_loop_at(&self, i: usize) -> Option<&LoopInfo> {
        self.loops.iter().filter(|l| l.head <= i && i <= l.back_edge).min_by_key(|l| l.body_len())
    }
}

/// Static instruction counts per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticMix {
    /// Total static instructions.
    pub total: usize,
    /// MMX-unit instructions.
    pub mmx: usize,
    /// MMX realignment (pack/unpack/byte-shift/move) instructions.
    pub realignment: usize,
    /// MMX multiplies.
    pub mmx_mul: usize,
    /// Branch instructions.
    pub branches: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::{AluOp, Cond};
    use crate::reg::gp::*;
    use crate::reg::MmReg::*;

    fn tiny_loop() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        b.mov_ri(R0, 10);
        let l = b.bind_here("loop");
        b.mmx_rr(MmxOp::Paddw, MM0, MM1);
        b.alu_ri(AluOp::Sub, R0, 1);
        b.jcc(Cond::Ne, l);
        b.mark_loop(l, Some(10));
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn labels_resolve() {
        let p = tiny_loop();
        let l = p.find_label("loop").unwrap();
        assert_eq!(p.resolve(l), 1);
        assert_eq!(p.label_name(l), "loop");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn loop_metadata() {
        let p = tiny_loop();
        assert_eq!(p.loops.len(), 1);
        let li = &p.loops[0];
        assert_eq!(li.head, 1);
        assert_eq!(li.back_edge, 3);
        assert_eq!(li.body_len(), 3);
        assert_eq!(li.trip_count, Some(10));
        assert_eq!(p.innermost_loop_at(2).unwrap().head, 1);
        assert!(p.innermost_loop_at(0).is_none());
        assert!(p.innermost_loop_at(4).is_none());
    }

    #[test]
    fn static_mix_counts() {
        let p = tiny_loop();
        let m = p.static_mix();
        assert_eq!(m.total, 5);
        assert_eq!(m.mmx, 1);
        assert_eq!(m.branches, 1);
        assert_eq!(m.realignment, 0);
    }

    #[test]
    fn validate_rejects_bad_imm() {
        let mut b = ProgramBuilder::new("bad");
        b.raw(Instr::Mmx { op: MmxOp::Paddw, dst: MM0, src: MmxOperand::Imm(3) });
        let p = b.finish_unchecked();
        assert!(matches!(p.validate(), Err(ProgramError::BadImmediateOperand { .. })));
    }

    #[test]
    fn validate_rejects_unbound_label() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.new_label("never");
        b.jmp(l);
        assert!(b.finish().is_err());
    }

    /// A program prints through the disassembler, labels included.
    #[test]
    fn display_includes_labels() {
        let p = tiny_loop();
        let s = crate::asm::disassemble(&p);
        assert!(s.contains("loop:"));
        assert!(s.contains("paddw mm0, mm1"));
    }
}

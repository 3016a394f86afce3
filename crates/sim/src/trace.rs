//! Issue-slot tracing: a per-cycle record of what the U and V pipes did,
//! which operands the SPU routed, and where stalls and mispredicts landed.
//!
//! Tracing feeds the `pipeline_viz` example and debugging; it is entirely
//! opt-in (`Machine::run_traced`). The slot loop returns the slot it
//! issued, and only `run_traced` builds a [`SlotTrace`] from it, so the
//! other engines never construct one.

use subword_isa::instr::Instr;

/// One instruction as issued into a pipe.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Program counter of the instruction.
    pub pc: usize,
    /// The instruction itself.
    pub instr: Instr,
    /// True if the SPU routed at least one operand.
    pub routed: bool,
}

/// One issue slot (one or two instructions leaving the front end).
#[derive(Clone, Debug)]
pub struct SlotTrace {
    /// Cycle at which the slot issued.
    pub cycle: u64,
    /// The U-pipe instruction.
    pub u: TraceEntry,
    /// The V-pipe instruction when the slot dual-issued.
    pub v: Option<TraceEntry>,
    /// Scoreboard stall cycles suffered before issue.
    pub stall_before: u64,
    /// Cycles this slot occupied (1, or the blocking multiply latency).
    pub slot_cycles: u64,
    /// Mispredict penalty charged after this slot, if its branch missed.
    pub mispredict_penalty: u64,
}

impl SlotTrace {
    /// Compact single-line rendering (used by the visualiser example).
    pub fn render(&self) -> String {
        let mark =
            |e: &TraceEntry| format!("{}{}", e.instr, if e.routed { "  «routed»" } else { "" });
        let mut s = format!("c{:>5}  U: {:<38}", self.cycle, mark(&self.u));
        match &self.v {
            Some(v) => s.push_str(&format!("V: {}", mark(v))),
            None => s.push_str("V: —"),
        }
        if self.stall_before > 0 {
            s.push_str(&format!("   [stall {}]", self.stall_before));
        }
        if self.slot_cycles > 1 {
            s.push_str(&format!("   [blocks {} cycles]", self.slot_cycles));
        }
        if self.mispredict_penalty > 0 {
            s.push_str(&format!("   [mispredict +{}]", self.mispredict_penalty));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::op::MmxOp;
    use subword_isa::reg::MmReg::*;

    #[test]
    fn render_forms() {
        let e = TraceEntry {
            pc: 0,
            instr: Instr::Mmx {
                op: MmxOp::Paddw,
                dst: MM0,
                src: subword_isa::instr::MmxOperand::Reg(MM1),
            },
            routed: true,
        };
        let t = SlotTrace {
            cycle: 7,
            u: e.clone(),
            v: None,
            stall_before: 2,
            slot_cycles: 1,
            mispredict_penalty: 4,
        };
        let s = t.render();
        assert!(s.contains("paddw mm0, mm1"));
        assert!(s.contains("«routed»"));
        assert!(s.contains("[stall 2]"));
        assert!(s.contains("[mispredict +4]"));
        assert!(s.contains("V: —"));
    }
}

//! The in-order pipeline model: the Pentium/P55C dual-issue pipe the
//! paper evaluates on.
//!
//! This module owns the cycle-level slot loop — operand-ready stalls
//! against the MMX result scoreboard, U/V pairing decisions, the
//! blocking scalar multiplier, branch resolution with the BTB — shared
//! by all three execution engines: decoded (predecoded metadata +
//! masks), reference (allocating `Vec<RegRef>` oracle) and the threaded
//! engine, which records its traces from this loop and steps it wherever
//! it does not replay one ([`crate::translate`]). Architectural
//! semantics stay in [`crate::machine`] (`Machine::exec`); this file
//! is purely *when*, never *what*.

use crate::decode::{DecodedInstr, DecodedProgram};
use crate::error::SimError;
use crate::machine::{ExecEffect, Machine};
use crate::model::issue::IssueRules;
use crate::model::pipeline::{can_pair, can_pair_ref, effective_read_mask, effective_reads};
use crate::stats::SimStats;
use subword_isa::instr::{Instr, RegRef};
use subword_isa::program::Program;
use subword_spu::controller::StepRouting;

/// Which hazard engine [`Machine::step_slot`] uses. The two engines must
/// produce bit-identical [`SimStats`] and architectural state; the
/// differential tests enforce this over the full kernel suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HazardEngine {
    /// Predecoded metadata + mask-based checks — the allocation-free
    /// fast path ([`Machine::run_decoded`]; also the threaded engine's
    /// stepper).
    Decoded,
    /// The original allocating `Vec<RegRef>` path, kept as the reference
    /// oracle ([`Machine::run_reference`]).
    Reference,
}

/// One issue slot as the in-order stepper issued it: what the threaded
/// engine records as a trace and [`Machine::run_traced`] hands out.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// `pc` of the U-pipe instruction.
    pub u: usize,
    /// `pc` of the V-pipe instruction when the slot dual-issued.
    pub v: Option<usize>,
    /// Whether the SPU routed an operand of the U and of the V
    /// instruction.
    pub routed: [bool; 2],
    /// Cycle at which the slot issued (after its stall).
    pub cycle: u64,
    /// Scoreboard stall cycles before issue.
    pub stall_before: u64,
    /// Cycles the slot occupied (1, or the blocking `imul` latency).
    pub slot_cycles: u64,
    /// Mispredict penalty charged after the slot.
    pub mispredict_penalty: u64,
}

impl Issued {
    /// One-line rendering of the slot issued from `program` (the
    /// `pipeline_viz` example's rows).
    pub fn render(&self, program: &Program) -> String {
        let mark = |pc: usize, routed: bool| {
            format!("{}{}", program.instrs[pc], if routed { "  «routed»" } else { "" })
        };
        let mut s = format!("c{:>5}  U: {:<38}", self.cycle, mark(self.u, self.routed[0]));
        match self.v {
            Some(v) => s.push_str(&format!("V: {}", mark(v, self.routed[1]))),
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

impl Machine {
    /// The decoded engine
    /// ([`ExecEngine::Decoded`](crate::ExecEngine::Decoded)): predecoded
    /// metadata and mask-based hazard checks, one slot at a time, no
    /// trace replay. With the reference engine, it is the in-order oracle
    /// the threaded engine and the out-of-order model are compared
    /// against.
    pub(crate) fn run_decoded(&mut self, program: &Program) -> Result<SimStats, SimError> {
        self.run_inner(program, HazardEngine::Decoded, |_| {})
    }

    /// The reference engine
    /// ([`ExecEngine::Reference`](crate::ExecEngine::Reference)): the
    /// original allocating `Vec<RegRef>` scoreboard and pairing path,
    /// with no predecoded fast paths. Slower by design; it is the oracle
    /// the other engines are differentially tested against.
    pub(crate) fn run_reference(&mut self, program: &Program) -> Result<SimStats, SimError> {
        self.run_inner(program, HazardEngine::Reference, |_| {})
    }

    /// Run with a callback that receives every issue slot. Always steps
    /// the decoded engine: a trace replay has no per-slot boundary to
    /// report. In-order only — issue slots are an in-order concept.
    pub fn run_traced(
        &mut self,
        program: &Program,
        sink: &mut dyn FnMut(Issued),
    ) -> Result<SimStats, SimError> {
        self.run_inner(program, HazardEngine::Decoded, sink)
    }

    fn run_inner(
        &mut self,
        program: &Program,
        engine: HazardEngine,
        mut on_slot: impl FnMut(Issued),
    ) -> Result<SimStats, SimError> {
        self.begin_run()?;
        // Predecode once per run: class flags, register masks and static
        // pairing legality for every instruction (see [`crate::decode`]).
        // The reference engine must stay independent of the predecode
        // layer it is the oracle for, so it skips the decode entirely and
        // never reads the placeholder metadata.
        let decoded = match engine {
            HazardEngine::Decoded => Some(DecodedProgram::decode(program)),
            HazardEngine::Reference => None,
        };
        let mut pc = 0usize;
        while let Some(slot) = self.step_slot(program, decoded.as_ref(), &mut pc)? {
            on_slot(slot);
        }
        Ok(self.finish_run())
    }

    /// Issue **one** slot at `*pc`: stall for operands, form the pair,
    /// execute, account, advance the cycle and resolve the slot's branch.
    /// This is the one slot-formation and slot-accounting path of the
    /// in-order engines — decoded (`decoded = Some`), reference
    /// (`decoded = None`), and the threaded engine, which steps with it
    /// where it does not replay and records its traces from what it
    /// returns. `None` when `pc` reached `halt`.
    pub(crate) fn step_slot(
        &mut self,
        program: &Program,
        decoded: Option<&DecodedProgram>,
        pc: &mut usize,
    ) -> Result<Option<Issued>, SimError> {
        let engine = match decoded {
            Some(_) => HazardEngine::Decoded,
            None => HazardEngine::Reference,
        };
        let placeholder = DecodedInstr::default();
        let instrs = &program.instrs;

        if self.cycle > self.cfg.max_cycles {
            return Err(SimError::MaxCyclesExceeded { pc: *pc, limit: self.cfg.max_cycles });
        }
        let Some(i0) = instrs.get(*pc) else {
            return Err(SimError::NoHalt);
        };
        if matches!(i0, Instr::Halt) {
            return Ok(None);
        }
        let d0 = match decoded {
            Some(d) => *d.get(*pc),
            None => placeholder,
        };

        // SPU routing for this and the next instruction, peeked once
        // per slot in a single controller walk (the controller only
        // advances at issue). When no instruction in the program is
        // SPU-routable, routing cannot change an operand, a hazard mask
        // or a pairing verdict, so the walk is skipped outright.
        let use_routing = self.spu.is_some() && decoded.is_none_or(|d| d.any_spu_routable);
        let (r0, r1) = if use_routing {
            self.peek_routing_pair()
        } else {
            (StepRouting::default(), StepRouting::default())
        };

        // Scoreboard: wait for i0's operands.
        let ready = match engine {
            HazardEngine::Decoded => self.ready_cycle(&d0, i0, &r0),
            HazardEngine::Reference => self.ready_cycle_ref(i0, &r0),
        };
        let stall_before = ready.saturating_sub(self.cycle);
        if ready > self.cycle {
            self.stats.stall_cycles += ready - self.cycle;
            self.cycle = ready;
        }
        let slot_issue_cycle = self.cycle;

        // Pairing decision. Under straight routing on both slots the
        // legality is the predecoded `pairable_next` bit; the dynamic
        // mask-based check only runs when the SPU routes this step.
        let mut pair_candidate: Option<(Instr, DecodedInstr)> = None;
        if let Some(i1) = instrs.get(*pc + 1) {
            let d1 = match decoded {
                Some(d) => *d.get(*pc + 1),
                None => placeholder,
            };
            let legal = match engine {
                HazardEngine::Decoded => {
                    if !r0.routes_anything() && !r1.routes_anything() {
                        d0.pairable_next
                    } else {
                        can_pair(i0, &r0, i1, &r1)
                    }
                }
                HazardEngine::Reference => can_pair_ref(i0, &r0, i1, &r1),
            };
            if legal {
                let ready1 = match engine {
                    HazardEngine::Decoded => self.ready_cycle(&d1, i1, &r1),
                    HazardEngine::Reference => self.ready_cycle_ref(i1, &r1),
                };
                if ready1 <= self.cycle {
                    pair_candidate = Some((*i1, d1));
                }
            }
        }

        // Issue slot cost: 1 cycle, or the blocking scalar-multiply
        // latency.
        let slot_is_scalar_mul = match engine {
            HazardEngine::Decoded => {
                d0.flags.is_scalar_multiply()
                    || pair_candidate.is_some_and(|(_, d1)| d1.flags.is_scalar_multiply())
            }
            HazardEngine::Reference => {
                i0.is_scalar_multiply()
                    || pair_candidate.is_some_and(|(i1, _)| i1.is_scalar_multiply())
            }
        };
        let slot_cycles = self.rules.slot_cycles(slot_is_scalar_mul);
        if slot_is_scalar_mul {
            self.stats.imul_block_cycles += self.rules.imul_extra_cycles();
        }

        // Execute slot 0.
        let pc0 = *pc;
        let spu_live_before = self.spu_signature();
        let routing0 = self.take_routing();
        debug_assert!(!use_routing || routing0 == r0);
        let eff0 = self.exec(program, i0, &routing0, pc0)?;
        let (u_mmx, routable0) = match engine {
            HazardEngine::Decoded => {
                self.stats.count(d0.flags);
                (d0.flags.is_mmx(), d0.routable)
            }
            HazardEngine::Reference => {
                self.account_ref(i0);
                (i0.is_mmx(), i0.spu_routable())
            }
        };
        let mut mmx_in_slot = u_mmx;
        let mut routed = [routing0.routes_anything() && routable0, false];
        *pc += 1;

        // An SPU control-register change (GO/clear/context switch)
        // serialises the slot: cancel the pairing.
        let mut slot1: Option<(usize, ExecEffect)> = None;
        let mut v_mmx = false;
        if let Some((i1, d1)) = pair_candidate {
            if self.spu_signature() == spu_live_before {
                let pc1 = *pc;
                let routing1 = self.take_routing();
                let eff1 = self.exec(program, &i1, &routing1, pc1)?;
                let routable1 = match engine {
                    HazardEngine::Decoded => {
                        self.stats.count(d1.flags);
                        v_mmx = d1.flags.is_mmx();
                        d1.routable
                    }
                    HazardEngine::Reference => {
                        self.account_ref(&i1);
                        v_mmx = i1.is_mmx();
                        i1.spu_routable()
                    }
                };
                mmx_in_slot |= v_mmx;
                routed[1] = routing1.routes_anything() && routable1;
                slot1 = Some((pc1, eff1));
                *pc += 1;
            }
        }
        if slot1.is_some() {
            self.stats.pairs += 1;
            if u_mmx && v_mmx {
                self.stats.mmx_pairs += 1;
            }
        } else {
            self.stats.singles += 1;
        }
        if mmx_in_slot {
            self.stats.mmx_active_cycles += 1;
        }
        self.cycle += slot_cycles;

        // Branch resolution (at most one branch per slot, always the
        // last instruction issued); each slot resolves at its own pc.
        let mut slot_penalty = 0u64;
        for (bpc, eff) in [(pc0, eff0)].into_iter().chain(slot1) {
            let Some(taken) = eff.branch else { continue };
            if let Some(pen) = self.resolve_branch(bpc, taken) {
                self.cycle += pen;
                slot_penalty += pen;
            }
            if let Some(t) = eff.redirect {
                *pc = t;
            }
        }
        Ok(Some(Issued {
            u: pc0,
            v: slot1.map(|(pc1, _)| pc1),
            routed,
            cycle: slot_issue_cycle,
            stall_before,
            slot_cycles,
            mispredict_penalty: slot_penalty,
        }))
    }

    /// Earliest cycle at which all of `i`'s register operands are ready
    /// (mask engine: no allocation; the predecoded nominal mask serves
    /// unrouted slots, the dynamic effective mask routed ones).
    fn ready_cycle(&self, d: &DecodedInstr, i: &Instr, routing: &StepRouting) -> u64 {
        let mm = if routing.routes_anything() && d.routable {
            effective_read_mask(i, routing).mm
        } else {
            d.reads.mm
        };
        IssueRules::operand_ready(mm, &self.mm_ready)
    }

    /// Reference-engine form of [`Machine::ready_cycle`], on the
    /// allocating `Vec<RegRef>` API.
    fn ready_cycle_ref(&self, i: &Instr, routing: &StepRouting) -> u64 {
        let mut t = 0;
        for r in effective_reads(i, routing) {
            if let RegRef::Mm(m) = r {
                t = t.max(self.mm_ready[m.index()]);
            }
        }
        t
    }

    /// Reference-engine accounting, straight off the instruction's class
    /// predicates.
    fn account_ref(&mut self, i: &Instr) {
        self.stats.instructions += 1;
        if i.is_mmx() {
            self.stats.mmx_instructions += 1;
            if i.is_realignment() {
                self.stats.mmx_realignments += 1;
            }
            if i.is_mmx_multiply() {
                self.stats.mmx_multiplies += 1;
            }
        } else {
            self.stats.scalar_instructions += 1;
        }
        if i.is_scalar_multiply() {
            self.stats.scalar_multiplies += 1;
        }
        if i.is_load() {
            self.stats.loads += 1;
        }
        if i.is_store() {
            self.stats.stores += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Issued;
    use subword_isa::asm::assemble;

    #[test]
    fn render_forms() {
        let p = assemble("t", "paddw mm0, mm1\n halt\n").unwrap();
        let slot = Issued {
            u: 0,
            v: None,
            routed: [true, false],
            cycle: 7,
            stall_before: 2,
            slot_cycles: 1,
            mispredict_penalty: 4,
        };
        let s = slot.render(&p);
        assert!(s.contains("paddw mm0, mm1"));
        assert!(s.contains("«routed»"));
        assert!(s.contains("[stall 2]"));
        assert!(s.contains("[mispredict +4]"));
        assert!(s.contains("V: —"));
    }
}

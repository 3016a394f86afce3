//! Pairing-aware list scheduling: reorder straight-line regions so more
//! adjacent instructions satisfy the simulator's dual-issue rules.
//!
//! The Pentium-MMX only pairs *adjacent* instructions (U then V), so the
//! emission order of a loop body decides how many issue slots dual-issue.
//! The kernels' builders emit in dataflow order, which routinely puts two
//! multiplies or two shifter-class ops back to back — each a guaranteed
//! single issue. This pass builds an intra-region dependence DAG and
//! greedily re-emits each region to maximise legal adjacent pairs.
//!
//! **One hazard model.** Dependences and pairing legality are computed
//! with the *simulator's own* predicates — [`RegMask`] reads/writes from
//! `subword_isa::instr`, routed operand reads via
//! [`subword_sim::pipeline::effective_read_mask`], pair legality via
//! [`subword_sim::pipeline::can_pair`] — the same functions
//! `sim::decode` predecodes into `ClassFlags`/`pairable_next`. There is
//! no second, scheduler-private notion of a hazard: if the simulator
//! would stall or refuse to pair, the scheduler sees exactly that.
//!
//! **One issue-timing model, too.** The cost replay, the scoreboard
//! arithmetic, the region partition and the MMIO-barrier predicate all
//! come from [`subword_sim::issue`] — the same module the simulator's
//! slot loop and trace translator consume. The scheduler holds no
//! private copy of any issue rule: [`replay_order`] *is* the static
//! replay, [`regions_of`] *is* the region partition, and the greedy
//! list scheduler below walks the same [`IssueRules`] forward.
//!
//! That replay deliberately binds the scheduler to the **in-order**
//! pipeline model (`subword_sim::model`, DESIGN.md §14): dual-issue
//! pairing and scoreboard stalls are in-order concepts, and the
//! never-slower acceptance contract is asserted on that model only.
//! Under the out-of-order model a scheduled program still executes to
//! bit-identical architectural state (order edges are honoured by the
//! functional executor either way), but the cycle advantage may shrink
//! to zero — the core discovers the same ILP dynamically. Measuring
//! that shrinkage is the point of the `--pipeline ooo` sweep axis, not
//! something this pass tries to prevent.
//!
//! **Dependence edges** (from earlier instruction `a` to later `b`):
//!
//! * register RAW / WAR / WAW on the union of MMX and GP files, with
//!   reads taken through the SPU routes when the caller supplies them
//!   (a routed operand reads the route's *source* registers, so any
//!   order preserving these edges also preserves every byte-provenance
//!   chain the lifting pass resolved);
//! * flags treated as one more register (`sub` → `jnz` stays intact);
//! * memory accesses keep their relative order unless both are loads.
//!
//! **Region boundaries.** Branches and `halt` end a region (a trailing
//! branch stays pinned in place — branch PCs never move, so branch
//! prediction is bit-identical between orders); every bound label
//! position starts one (control may join there); and statically
//! identifiable SPU MMIO accesses (absolute addresses inside the MMIO
//! window — the only kind the rewriter emits) are hard barriers, since
//! the decoupled controller steps once per issued instruction and a GO
//! store must stay immediately ahead of its loop.
//!
//! **Cost model.** A candidate order is accepted only if a static replay
//! of the simulator's issue logic (pairing, scoreboard with the MMX
//! multiplier latency, blocking scalar multiplies) says it is strictly
//! cheaper than the original order — loop bodies are replayed over
//! several iterations so cross-iteration latencies count — *and* it
//! leaves no register available later than the original order would
//! (the scoreboard carries across region boundaries, so an order that
//! parks a multiply at a region's tail could otherwise stall the next
//! region by more than it saved). Ties keep the original order, so the
//! pass never churns code it cannot improve.
//!
//! The safety net is differential: `compile::verify` (and every golden
//! output check in the kernel framework) runs scheduled and unscheduled
//! variants to bit-identical architectural state.

use subword_isa::instr::{Instr, RegMask};
use subword_isa::program::Program;
use subword_sim::issue::{
    is_mmio_barrier, regions_of, replay_order, IssueOp, IssueRules, RegionKind, ReplayCost, SlotOp,
};
use subword_sim::pipeline::{can_pair, effective_read_mask};
use subword_spu::controller::StepRouting;

/// Iterations replayed when estimating a loop body's steady-state cost
/// (first iteration is warm-up: it seeds the scoreboard carry-over).
const LOOP_EST_ITERS: usize = 4;

/// Positions an emission order changes relative to the original — the
/// single definition of "moved" shared by the rewriter, the lift pass
/// and the reports.
pub fn moved_count(order: &[usize]) -> usize {
    order.iter().enumerate().filter(|&(new, &old)| new != old).count()
}

/// True for the identity permutation.
pub fn is_identity(order: &[usize]) -> bool {
    moved_count(order) == 0
}

/// Is any label bound strictly inside a loop body (after the head, up to
/// and including the back edge)? Such a body pins its original order:
/// the ordered rewrite cannot re-bind an interior label.
pub(crate) fn has_interior_label(program: &Program, l: &subword_isa::program::LoopInfo) -> bool {
    (0..program.label_count()).any(|id| {
        program
            .label_position(subword_isa::program::Label(id as u32))
            .is_some_and(|p| p > l.head && p <= l.back_edge)
    })
}

/// Static accounting of one scheduling pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Straight-line regions examined.
    pub regions: usize,
    /// Regions actually re-ordered.
    pub reordered_regions: usize,
    /// Instructions whose absolute position changed.
    pub moved: usize,
}

/// One scheduling node: the instruction plus everything the DAG and the
/// issue model need, precomputed once.
struct Node {
    instr: Instr,
    routing: StepRouting,
    /// Effective register reads (through the SPU routes, if any).
    reads: RegMask,
    writes: RegMask,
    writes_flags: bool,
    reads_flags: bool,
    mem: bool,
    load: bool,
    /// Issue metadata (effective MMX reads, latency classes) — the same
    /// [`IssueOp`] the simulator's replay consumes.
    op: IssueOp,
}

impl Node {
    fn new(instr: Instr, routing: StepRouting) -> Node {
        Node {
            reads: effective_read_mask(&instr, &routing),
            writes: instr.write_mask(),
            writes_flags: instr.writes_flags(),
            reads_flags: instr.reads_flags(),
            mem: instr.is_mem_access(),
            load: instr.is_load(),
            op: IssueOp::of(&instr, &routing),
            instr,
            routing,
        }
    }

    /// Must `self` (earlier) stay before `b` (later)?
    fn must_precede(&self, b: &Node) -> bool {
        // RAW / WAR / WAW on the register files.
        if self.writes.intersects(b.reads)
            || self.reads.intersects(b.writes)
            || self.writes.intersects(b.writes)
        {
            return true;
        }
        // The flags register, same three hazards.
        if (self.writes_flags && (b.reads_flags || b.writes_flags))
            || (self.reads_flags && b.writes_flags)
        {
            return true;
        }
        // Memory: only load/load may commute (no alias analysis).
        self.mem && b.mem && !(self.load && b.load)
    }

    /// Earliest cycle the scoreboard lets this node issue.
    fn ready_at(&self, mm_ready: &[u64; 8]) -> u64 {
        IssueRules::operand_ready(self.op.mm_reads, mm_ready)
    }
}

/// Strictly cheaper: fewer cycles, or equal cycles with fewer
/// single-issue slots.
fn beats(a: &ReplayCost, b: &ReplayCost) -> bool {
    (a.cycles, a.singles) < (b.cycles, b.singles)
}

/// Greedy list scheduling of mutually orderable `nodes` (no
/// branches/barriers): walk the issue rules forward, each slot choosing
/// a U-pipe instruction that can issue soonest (preferring one with a
/// legal V partner and the longest dependent chain), then the tallest
/// legal V partner.
fn greedy(rules: &IssueRules, nodes: &[Node]) -> Vec<usize> {
    let n = nodes.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for b in 0..n {
        for a in 0..b {
            if nodes[a].must_precede(&nodes[b]) {
                succs[a].push(b);
                indeg[b] += 1;
            }
        }
    }
    // Critical-path height, weighted by issue latency.
    let mut height = vec![0u64; n];
    for i in (0..n).rev() {
        let lat = if nodes[i].op.mmx_mul_dst.is_some() {
            rules.mmx_mul_latency
        } else {
            rules.slot_cycles(nodes[i].op.scalar_mul)
        };
        height[i] = lat + succs[i].iter().map(|&s| height[s]).max().unwrap_or(0);
    }

    let mut avail: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut cycle = 0u64;
    let mut mm_ready = [0u64; 8];
    while !avail.is_empty() {
        // Available nodes are mutually independent (an edge between
        // them would keep the dependent's indegree non-zero), so any
        // legal (U, V) choice here is a legal adjacent pair.
        let partner_for = |u: usize, at: u64| {
            avail
                .iter()
                .copied()
                .filter(|&v| {
                    v != u
                        && nodes[v].ready_at(&mm_ready) <= at
                        && can_pair(
                            &nodes[u].instr,
                            &nodes[u].routing,
                            &nodes[v].instr,
                            &nodes[v].routing,
                        )
                })
                .min_by_key(|&v| (std::cmp::Reverse(height[v]), v))
        };
        let u = avail
            .iter()
            .copied()
            .min_by_key(|&i| {
                let at = nodes[i].ready_at(&mm_ready).max(cycle);
                let stall = at - cycle;
                (stall, partner_for(i, at).is_none(), std::cmp::Reverse(height[i]), i)
            })
            .expect("avail is non-empty");
        cycle = cycle.max(nodes[u].ready_at(&mm_ready));
        let v = partner_for(u, cycle);

        let mut slot_scalar_mul = false;
        for &x in [Some(u), v].iter().flatten() {
            rules.retire(&nodes[x].op, cycle, &mut mm_ready);
            slot_scalar_mul |= nodes[x].op.scalar_mul;
            order.push(x);
            avail.retain(|&y| y != x);
            for &s in &succs[x] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    avail.push(s);
                }
            }
        }
        cycle += rules.slot_cycles(slot_scalar_mul);
    }
    order
}

/// Schedule one straight-line block. `routings[i]` is the SPU routing
/// instruction `i` executes under (`StepRouting::default()` when the
/// controller is idle). A trailing branch or `halt` stays pinned last.
/// `looped` marks a loop body (back edge included), costed in steady
/// state.
///
/// Returns the emission order (`order[new_pos] = old_pos`) — the
/// identity permutation whenever reordering is illegal, pointless, or
/// not strictly cheaper under the issue model.
pub fn schedule_block(instrs: &[Instr], routings: &[StepRouting], looped: bool) -> Vec<usize> {
    assert_eq!(instrs.len(), routings.len(), "one routing per instruction");
    let n = instrs.len();
    let identity: Vec<usize> = (0..n).collect();
    // Even a 2-instruction region can profit: the pipes are asymmetric
    // (memory only in U, branches only in V), so a swap may turn an
    // unpairable adjacency into a pair.
    if n < 2 {
        return identity;
    }
    let pinned_tail = instrs[n - 1].is_branch() || matches!(instrs[n - 1], Instr::Halt);
    let core = if pinned_tail { n - 1 } else { n };
    // Interior control flow or MMIO means the caller's region is not
    // actually straight-line; refuse rather than guess.
    if instrs[..core]
        .iter()
        .any(|i| i.is_branch() || matches!(i, Instr::Halt) || is_mmio_barrier(i))
    {
        return identity;
    }

    let nodes: Vec<Node> = instrs.iter().zip(routings).map(|(i, r)| Node::new(*i, *r)).collect();
    let rules = IssueRules::default_model();
    let mut order = greedy(&rules, &nodes[..core]);
    if pinned_tail {
        order.push(n - 1);
    }
    debug_assert_eq!(order.len(), n);
    // Cost both orders with the *simulator's* straight-line replay.
    let ops: Vec<SlotOp> = instrs.iter().zip(routings).map(|(i, r)| SlotOp::new(*i, *r)).collect();
    let (sched_cost, sched_end, sched_ready) =
        replay_order(&rules, &ops, &order, looped, LOOP_EST_ITERS);
    let (orig_cost, orig_end, orig_ready) =
        replay_order(&rules, &ops, &identity, looped, LOOP_EST_ITERS);
    // Cross-boundary dominance: the real scoreboard carries across
    // region boundaries, so besides being cheaper in-region the
    // scheduled order must not make *any* register available later
    // (absolute cycles, clamped to region end — earlier availability is
    // invisible to the next region) than the original order does.
    // Otherwise a multiply parked at the region's tail could stall the
    // following region by more than the in-region cycles it saved.
    let dominates = (0..8).all(|r| sched_ready[r].max(sched_end) <= orig_ready[r].max(orig_end));
    if beats(&sched_cost, &orig_cost) && dominates {
        order
    } else {
        identity
    }
}

/// A maximal schedulable region of a program.
struct SchedRegion {
    /// Half-open instruction range.
    start: usize,
    end: usize,
    /// The region is a loop body (ends with a back edge to `start`).
    looped: bool,
    /// Overlaps a caller-frozen range: partitioned but never reordered.
    frozen: bool,
}

/// The scheduler's view of the shared region partition
/// ([`subword_sim::issue::regions_of`]): barrier singletons are dropped
/// (frozen in place by construction) and caller-frozen ranges overlaid.
fn sched_regions_of(program: &Program, frozen: &[(usize, usize)]) -> Vec<SchedRegion> {
    regions_of(program)
        .into_iter()
        .filter(|r| r.kind != RegionKind::Barrier)
        .map(|r| SchedRegion {
            start: r.start,
            end: r.end,
            looped: r.kind == RegionKind::Loop,
            frozen: frozen.iter().any(|&(fs, fe)| r.start < fe && fs < r.end),
        })
        .collect()
}

/// Schedule every straight-line region of `program` outside the
/// `frozen` ranges, under idle-controller (straight) routing. Returns
/// the reordered program — labels, branches, barriers and loop metadata
/// all keep their absolute positions — plus the static accounting.
pub(crate) fn schedule_regions(
    program: &Program,
    frozen: &[(usize, usize)],
) -> (Program, ScheduleReport) {
    let straight = StepRouting::default();
    let mut out = program.clone();
    let mut report = ScheduleReport::default();
    for region in sched_regions_of(program, frozen) {
        if region.frozen {
            continue;
        }
        report.regions += 1;
        let block = &program.instrs[region.start..region.end];
        let routings = vec![straight; block.len()];
        let order = schedule_block(block, &routings, region.looped);
        let moved = moved_count(&order);
        if moved == 0 {
            continue;
        }
        report.reordered_regions += 1;
        report.moved += moved;
        for (new, &old) in order.iter().enumerate() {
            out.instrs[region.start + new] = program.instrs[region.start + old];
        }
    }
    // Reordering within straight-line regions cannot break structural
    // validity — but if that invariant ever drifts (a new instruction
    // class, a region boundary bug), fall back to the unscheduled
    // program instead of panicking mid-pipeline: a missed scheduling
    // opportunity is honest, a panic kills the campaign's worker.
    if out.validate().is_err() {
        return (program.clone(), ScheduleReport::default());
    }
    (out, report)
}

/// Schedule a whole (SPU-free) program — the baseline-variant entry
/// point the kernel framework measures against the unscheduled build.
/// See `schedule_regions` (private); programs that compute MMIO
/// addresses in registers are outside this pass's contract.
pub fn schedule_program(program: &Program) -> (Program, ScheduleReport) {
    schedule_regions(program, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::asm::assemble;

    fn straight(n: usize) -> Vec<StepRouting> {
        vec![StepRouting::default(); n]
    }

    #[test]
    fn splits_two_shifters_for_pairing() {
        // unpack/unpack/add/add single-issues the unpack pair; the
        // scheduler interleaves them: (unpackl, add), (unpackh, add).
        let p = assemble(
            "t",
            "punpcklwd mm0, mm1\n punpckhwd mm2, mm3\n paddw mm4, mm5\n psubw mm6, mm7\n",
        )
        .unwrap();
        let order = schedule_block(&p.instrs, &straight(4), false);
        assert_ne!(order, vec![0, 1, 2, 3]);
        // Both shifters keep their relative order; each now has a
        // pairable neighbour.
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(0) < pos(1));
    }

    #[test]
    fn respects_raw_dependences() {
        // The chain paddw mm0 <- psubw reads mm0 <- pxor reads mm2 must
        // keep its order whatever the schedule does.
        let p = assemble("t", "paddw mm0, mm1\n psubw mm2, mm0\n pxor mm3, mm2\n paddw mm4, mm5\n")
            .unwrap();
        let order = schedule_block(&p.instrs, &straight(4), false);
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn trailing_branch_stays_pinned() {
        let p = assemble(
            "t",
            ".trips l 8\nl:\n pmulhw mm2, mm2\n pmullw mm3, mm3\n sub r0, 1\n jnz l\n halt\n",
        )
        .unwrap();
        let body = &p.instrs[0..4];
        let order = schedule_block(body, &straight(4), true);
        assert_eq!(*order.last().unwrap(), 3, "back edge must stay last");
        // The two multiplies cannot pair with each other; the win is
        // (pmulhw, sub), (pmullw, jnz).
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn flags_chain_keeps_branch_condition() {
        // `add` also writes flags: it must not slip between `sub` and
        // the conditional branch.
        let p = assemble("t", ".trips l 4\nl:\n sub r0, 1\n add r1, 2\n jnz l\n halt\n").unwrap();
        let body = &p.instrs[0..3];
        let order = schedule_block(body, &straight(3), true);
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(0) < pos(2));
        // Flag writers keep their relative order, so the branch still
        // tests the same flags (`add`'s, in program order).
        assert!(pos(0) < pos(1));
        assert_eq!(order.iter().rev().find(|&&o| body[o].writes_flags()), Some(&1));
    }

    #[test]
    fn stores_keep_memory_order() {
        let p = assemble(
            "t",
            "movq mm0, [0x100]\n movq [0x200], mm1\n movq mm2, [0x300]\n paddw mm3, mm4\n",
        )
        .unwrap();
        let order = schedule_block(&p.instrs, &straight(4), false);
        let pos = |i: usize| order.iter().position(|&o| o == i).unwrap();
        assert!(pos(0) < pos(1), "load before store stays before it");
        assert!(pos(1) < pos(2), "store before load stays before it");
    }

    #[test]
    fn mmio_accesses_are_barriers() {
        // A GO-style absolute store into the MMIO window must neither
        // move nor let anything cross it.
        let p = assemble(
            "t",
            "mov r0, 8\n mov [0xF0000000], 1\n paddw mm0, mm1\n psubw mm2, mm3\n halt\n",
        )
        .unwrap();
        assert!(is_mmio_barrier(&p.instrs[1]));
        let (out, _) = schedule_program(&p);
        assert_eq!(out.instrs[1], p.instrs[1]);
        // Nothing migrated across the barrier.
        assert_eq!(out.instrs[0], p.instrs[0]);
    }

    #[test]
    fn scheduling_is_idempotent_and_structure_preserving() {
        let p = assemble(
            "t",
            r#"
            mov r0, 16
        loop:
            punpcklwd mm0, mm1
            punpckhwd mm2, mm3
            paddw mm4, mm0
            psubw mm5, mm2
            sub r0, 1
            jnz loop
            halt
        "#,
        )
        .unwrap();
        let (once, r1) = schedule_program(&p);
        once.validate().unwrap();
        assert_eq!(once.instrs.len(), p.instrs.len());
        assert_eq!(once.loops, p.loops);
        let (twice, r2) = schedule_program(&once);
        assert_eq!(once.instrs, twice.instrs, "a scheduled program is a fixed point");
        assert_eq!(r2.moved, 0);
        assert!(r1.regions >= 2);
    }

    #[test]
    fn two_instruction_region_swaps_for_the_memory_pipe() {
        // `paddw; movq load` cannot pair (memory only issues in U), but
        // the swapped order pairs — a 2-instruction region must still be
        // considered.
        let p = assemble("t", "paddw mm4, mm5\n movq mm0, [0x100]\n").unwrap();
        assert_eq!(schedule_block(&p.instrs, &straight(2), false), vec![1, 0]);
        // A dependent pair keeps its order.
        let q = assemble("t", "paddw mm4, mm5\n movq [0x100], mm4\n").unwrap();
        assert_eq!(schedule_block(&q.instrs, &straight(2), false), vec![0, 1]);
    }

    #[test]
    fn identity_when_nothing_improves() {
        // A fully serial dependence chain has exactly one legal order.
        let p = assemble("t", "paddw mm0, mm1\n paddw mm0, mm2\n paddw mm0, mm3\n").unwrap();
        assert_eq!(schedule_block(&p.instrs, &straight(3), false), vec![0, 1, 2]);
    }
}

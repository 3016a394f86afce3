//! The lifting pass: candidate selection, iterative refinement, route
//! construction, and reporting.

use crate::chains::{
    is_liftable, mm_write, operand_masks, operand_regs, resolve_byte, ResolvedByte,
};
use crate::liveness::{live_on_loop_exit, mm_live_in, MmMask};
use crate::regalloc::{self, RenameMap};
use crate::rewrite;
use crate::schedule;
use std::collections::BTreeSet;
use std::fmt;
use subword_isa::instr::Instr;
use subword_isa::program::{LoopInfo, Program};
use subword_spu::controller::{StepRouting, CONTEXTS};
use subword_spu::crossbar::CrossbarShape;
use subword_spu::{ByteRoute, SpuProgram};

/// Maximum programmable states (state 127 is idle).
const MAX_STATES: usize = 126;

/// Errors that abort the whole transformation (per-loop problems are
/// reported per loop via [`LoopStatus`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The input program failed validation.
    BadProgram(String),
    /// The rewritten program failed validation (internal error).
    RewriteFailed(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::BadProgram(e) => write!(f, "input program invalid: {e}"),
            CompileError::RewriteFailed(e) => write!(f, "rewrite produced invalid program: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Why a loop was not transformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoopStatus {
    /// Transformed; permutes removed.
    Transformed,
    /// Skipped: no liftable realignment instructions in the body.
    NoCandidates,
    /// Skipped: the body contains internal control flow.
    NotStraightLine,
    /// Skipped: no static trip count.
    DynamicTripCount,
    /// Skipped: body longer than the controller's state budget.
    TooManyStates,
    /// Skipped: all SPU contexts already in use.
    OutOfContexts,
    /// Skipped: another branch targets the loop head, so a GO store
    /// cannot be placed ahead of it safely.
    HeadHasOtherPredecessors,
    /// Skipped: the back edge is an unconditional jump — the loop has no
    /// fall-through exit edge for the liveness analysis.
    UnconditionalBackEdge,
    /// Transformation found nothing removable after refinement.
    NothingRemovable,
}

/// Per-loop transformation report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopReport {
    /// Loop head index in the *original* program.
    pub head: usize,
    /// Body length (instructions, back edge included) before rewriting.
    pub body_len: usize,
    /// Static trip count.
    pub trips: u64,
    /// Liftable candidates found.
    pub candidates: usize,
    /// Candidates actually removed.
    pub removed: usize,
    /// Controller states used (= body length after removal).
    pub states_used: usize,
    /// States carrying a non-straight route.
    pub routed_states: usize,
    /// Live ranges the register compaction pass renamed to fit the
    /// routes into the crossbar's register window (0 = the routes fit as
    /// written).
    pub renamed_ranges: usize,
    /// Outcome.
    pub status: LoopStatus,
}

/// Whole-program transformation report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileReport {
    /// Program name.
    pub name: String,
    /// Per-loop details (in program order of loop heads).
    pub loops: Vec<LoopReport>,
    /// Static realignment instructions removed.
    pub removed_static: usize,
    /// Instructions added (MMIO setup prologue + GO stores).
    pub setup_instructions: usize,
}

impl CompileReport {
    /// Total candidates across loops.
    pub fn candidates(&self) -> usize {
        self.loops.iter().map(|l| l.candidates).sum()
    }
}

/// Result of [`lift_permutes`].
#[derive(Clone)]
pub struct TransformResult {
    /// The rewritten program (setup prologue + GO stores, permutes
    /// removed), in the builder's original emission order.
    pub program: Program,
    /// SPU programs by context slot.
    pub spu_programs: Vec<(usize, SpuProgram)>,
    /// Accounting.
    pub report: CompileReport,
    /// The same transformation with the pairing-aware list scheduler
    /// applied (see [`crate::schedule`]): transformed loop bodies are
    /// re-emitted in the scheduled order with their SPU routes permuted
    /// in lockstep, and every other straight-line region is scheduled
    /// under idle-controller routing.
    pub scheduled: ScheduledVariant,
}

/// The scheduled form of a [`TransformResult`] — semantically identical
/// to the unscheduled program (same architectural results, same golden
/// outputs), reordered for dual-issue.
#[derive(Clone)]
pub struct ScheduledVariant {
    /// The scheduled program (prologue + GO stores included).
    pub program: Program,
    /// SPU programs by context slot, states permuted to match the
    /// scheduled loop bodies.
    pub spu_programs: Vec<(usize, SpuProgram)>,
    /// Static instructions whose position the scheduler changed.
    pub moved: usize,
}

/// A transformed loop, pre-rewrite.
pub(crate) struct LoopPlan {
    pub head: usize,
    /// The loop body the rewrite emits (back edge included, deleted
    /// positions still present) — the *renamed* body when register
    /// compaction ran, byte-identical to the original otherwise.
    pub body: Vec<Instr>,
    pub removal: BTreeSet<usize>,
    /// Routes per *kept* body position (`None` = straight), in the
    /// renamed register space.
    pub routes: Vec<RoutePair>,
    /// Scheduled emission order of the kept body
    /// (`order[new_pos] = kept_pos`; identity when unschedulable).
    pub order: Vec<usize>,
    pub context: usize,
    pub spu_program: SpuProgram,
    /// `spu_program` with its states permuted by `order`.
    pub sched_spu_program: SpuProgram,
    /// The live-range renames that produced `body` (empty = no
    /// compaction).
    pub renames: RenameMap,
}

/// Run the lifting pass against `shape`.
///
/// Every innermost loop with a static trip count and a straight-line body
/// is considered; realignment instructions are deleted where their
/// consumers' operand routes are expressible in `shape`. Loops that
/// cannot be transformed are left untouched and reported.
///
/// ```
/// use subword_compile::lift_permutes;
/// use subword_spu::SHAPE_A;
///
/// let program = subword_isa::asm::assemble("demo", r#"
///     .trips loop 8
///     mov r0, 8
/// loop:
///     movq mm0, [0x1000]
///     movq mm1, [0x1008]
///     movq mm2, mm0        ; copy - liftable
///     punpcklwd mm2, mm1   ; unpack - liftable
///     paddw mm3, mm2
///     movq [0x2000], mm3
///     sub r0, 1
///     jnz loop
///     halt
/// "#).unwrap();
///
/// let lifted = lift_permutes(&program, &SHAPE_A).unwrap();
/// assert_eq!(lifted.report.removed_static, 2);
/// assert_eq!(lifted.spu_programs.len(), 1);
/// ```
pub fn lift_permutes(
    program: &Program,
    shape: &CrossbarShape,
) -> Result<TransformResult, CompileError> {
    program.validate().map_err(|e| CompileError::BadProgram(e.to_string()))?;
    let live_in = mm_live_in(program);
    let mut reports = Vec::new();
    // Transformed loops, in head order; a loop's SPU context is its
    // index here.
    let mut plans: Vec<LoopPlan> = Vec::new();

    for l in innermost_loops(program) {
        let mut rep = LoopReport {
            head: l.head,
            body_len: l.body_len(),
            trips: l.trip_count.unwrap_or(0),
            candidates: 0,
            removed: 0,
            states_used: 0,
            routed_states: 0,
            renamed_ranges: 0,
            status: LoopStatus::Transformed,
        };

        let body = &program.instrs[l.head..=l.back_edge];
        rep.candidates = body.iter().filter(|i| is_liftable(i)).count();

        let status = check_loop(program, l, plans.len());
        if let Some(status) = status {
            rep.status = status;
            reports.push(rep);
            continue;
        }
        // `check_loop` returned `None`, which implies a static trip
        // count — but stay graceful if that invariant ever drifts: a
        // dynamic-trip loop is a skip, never a panic.
        let Some(trips) = l.trip_count else {
            rep.status = LoopStatus::DynamicTripCount;
            reports.push(rep);
            continue;
        };

        match plan_loop(program, &live_in, l, trips, shape, plans.len()) {
            Some(plan) => {
                rep.removed = plan.removal.len();
                rep.states_used = plan.routes.len();
                rep.routed_states =
                    plan.routes.iter().filter(|(a, b)| a.is_some() || b.is_some()).count();
                rep.renamed_ranges = plan.renames.len();
                if rep.removed == 0 {
                    rep.status = LoopStatus::NothingRemovable;
                } else {
                    plans.push(plan);
                }
            }
            None => rep.status = LoopStatus::NothingRemovable,
        }
        reports.push(rep);
    }

    let removed_static: usize = plans.iter().map(|p| p.removal.len()).sum();
    let unsched = rewrite::rewrite(program, &plans, false).map_err(CompileError::RewriteFailed)?;

    // The scheduled variant: re-emit transformed loop bodies in their
    // planned order (routes permuted in lockstep — the rewriter returns
    // those body ranges as frozen), then list-schedule every remaining
    // straight-line region under idle-controller routing.
    let ordered = rewrite::rewrite(program, &plans, true).map_err(CompileError::RewriteFailed)?;
    let (sched_program, sched_report) =
        schedule::schedule_regions(&ordered.program, &ordered.frozen_bodies);
    let body_moved: usize = plans.iter().map(|p| schedule::moved_count(&p.order)).sum();
    let scheduled = ScheduledVariant {
        program: sched_program,
        spu_programs: plans.iter().map(|p| (p.context, p.sched_spu_program.clone())).collect(),
        moved: body_moved + sched_report.moved,
    };

    let spu_programs = plans.into_iter().map(|p| (p.context, p.spu_program)).collect::<Vec<_>>();

    Ok(TransformResult {
        program: unsched.program,
        spu_programs,
        report: CompileReport {
            name: program.name.clone(),
            loops: reports,
            removed_static,
            setup_instructions: unsched.setup_instructions,
        },
        scheduled,
    })
}

/// Innermost loops in head order: a loop is innermost if no other loop
/// nests strictly inside it.
fn innermost_loops(program: &Program) -> Vec<&LoopInfo> {
    let mut loops: Vec<&LoopInfo> = program
        .loops
        .iter()
        .filter(|l| {
            !program.loops.iter().any(|o| {
                (o.head > l.head && o.back_edge <= l.back_edge)
                    || (o.head >= l.head && o.back_edge < l.back_edge)
            })
        })
        .collect();
    loops.sort_by_key(|l| l.head);
    loops
}

/// Does `states × trips` fit the controller's 32-bit loop counter?
fn counter_fits(states: usize, trips: u64) -> bool {
    (states as u64).checked_mul(trips).is_some_and(|c| c <= u32::MAX as u64)
}

/// Structural checks; `Some(status)` = skip with that status.
fn check_loop(program: &Program, l: &LoopInfo, next_ctx: usize) -> Option<LoopStatus> {
    let body = &program.instrs[l.head..=l.back_edge];
    if !body.iter().any(is_liftable) {
        return Some(LoopStatus::NoCandidates);
    }
    if l.trip_count.is_none() {
        return Some(LoopStatus::DynamicTripCount);
    }
    // Straight line: only the back edge may branch.
    if body[..body.len() - 1].iter().any(|i| i.is_branch()) {
        return Some(LoopStatus::NotStraightLine);
    }
    if !matches!(body[body.len() - 1], Instr::Jcc { .. }) {
        return Some(LoopStatus::UnconditionalBackEdge);
    }
    if body.len() > MAX_STATES {
        return Some(LoopStatus::TooManyStates);
    }
    if next_ctx >= CONTEXTS {
        return Some(LoopStatus::OutOfContexts);
    }
    // No other branch may target the head (the GO store sits right in
    // front of it, outside the loop).
    let head_label_hits = program
        .instrs
        .iter()
        .enumerate()
        .filter(|(i, ins)| {
            *i != l.back_edge && ins.branch_target().map(|t| program.resolve(t)) == Some(l.head)
        })
        .count();
    if head_label_hits > 0 {
        return Some(LoopStatus::HeadHasOtherPredecessors);
    }
    None
}

/// Plan one loop: choose the removal set by iterative refinement and
/// build the routes + SPU program. When the routes' register span
/// exceeds a windowed shape's reach, the live-range register compaction
/// pass ([`crate::regalloc`]) renames the loop body to pull every route
/// source into one window and the lift is retried on the renamed body —
/// only if no renaming exists does the pass fall back to un-deleting
/// candidates (the pre-compaction behaviour, which degrades byte-heavy
/// kernels to copy elisions).
fn plan_loop(
    program: &Program,
    live_in: &[MmMask],
    l: &LoopInfo,
    trips: u64,
    shape: &CrossbarShape,
    context: usize,
) -> Option<LoopPlan> {
    let body: Vec<Instr> = program.instrs[l.head..=l.back_edge].to_vec();
    let len = body.len();

    // Initial removal set: every liftable candidate whose destination is
    // dead on the loop's exit edge (the SPU is idle outside the loop, so
    // a stale register must not escape).
    let mut removal: BTreeSet<usize> = (0..len)
        .filter(|&p| is_liftable(&body[p]))
        .filter(|&p| {
            let dst = mm_write(&body[p]).expect("liftable writes a register");
            !live_on_loop_exit(program, live_in, l.back_edge, dst)
        })
        .collect();

    loop {
        if removal.is_empty() {
            return None;
        }
        let routed = match resolve_routes(&body, &removal, shape, trips) {
            Ok(r) => r,
            Err(RouteFailure::Blame(blame)) => {
                // Un-delete the blamed candidate and retry.
                if !removal.remove(&blame) {
                    // Defensive: blame not in set (should not happen);
                    // abort rather than loop forever.
                    return None;
                }
                continue;
            }
            // A hard bound of the kept body itself — nothing to blame,
            // nothing to refine.
            Err(RouteFailure::Reject(_)) => return None,
        };
        if let Some(blame) = window_blame(shape, &routed.sited) {
            if let Some(plan) =
                plan_compacted(program, live_in, l, trips, shape, context, &body, &removal, &routed)
            {
                return Some(plan);
            }
            if !removal.remove(&blame) {
                return None;
            }
            continue;
        }
        return finish_plan(
            program,
            l,
            trips,
            shape,
            context,
            body,
            removal,
            routed.routes,
            RenameMap::identity(),
        );
    }
}

/// Retry a window-rejected lift on a register-compacted body. `None`
/// when no compaction exists or the compacted lift fails validation (the
/// caller falls back to refinement).
#[allow(clippy::too_many_arguments)]
fn plan_compacted(
    program: &Program,
    live_in: &[MmMask],
    l: &LoopInfo,
    trips: u64,
    shape: &CrossbarShape,
    context: usize,
    body: &[Instr],
    removal: &BTreeSet<usize>,
    routed: &RoutedBody,
) -> Option<LoopPlan> {
    let pinned = pinned_regs(program, live_in, l);
    let renames = regalloc::compact(body, &routed.sited, pinned, shape.window_regs())?;
    let renamed = renames.apply_body(body);
    // Re-resolve the byte-provenance chains on the renamed body: the
    // compaction's interference rules make this resolution isomorphic to
    // the original (and renaming preserves word alignment, so 16-bit
    // port shapes re-check clean), but the re-run is what we trust, not
    // the prediction.
    let routed = resolve_routes(&renamed, removal, shape, trips).ok()?;
    if window_blame(shape, &routed.sited).is_some() {
        debug_assert!(false, "compaction produced routes outside every window");
        return None;
    }
    finish_plan(program, l, trips, shape, context, renamed, removal.clone(), routed.routes, renames)
}

/// Registers whose values cross the loop boundary: live into the body at
/// its head (loop-carried or defined before the loop) or live on the
/// loop's exit edge. Compaction must not rename these.
fn pinned_regs(program: &Program, live_in: &[MmMask], l: &LoopInfo) -> MmMask {
    let mut pinned = live_in[l.head];
    for r in 0..8u8 {
        let reg = subword_isa::reg::MmReg::from_index(r as usize).expect("file index");
        if live_on_loop_exit(program, live_in, l.back_edge, reg) {
            pinned |= 1 << r;
        }
    }
    pinned
}

/// Assemble the final [`LoopPlan`] from a resolved (possibly renamed)
/// body: build the SPU program, schedule the kept body, permute the SPU
/// states in lockstep.
#[allow(clippy::too_many_arguments)]
fn finish_plan(
    program: &Program,
    l: &LoopInfo,
    trips: u64,
    shape: &CrossbarShape,
    context: usize,
    body: Vec<Instr>,
    removal: BTreeSet<usize>,
    routes: Vec<RoutePair>,
    renames: RenameMap,
) -> Option<LoopPlan> {
    let spu_program = build_spu_program(&program.name, &routes, trips, shape, context)?;
    let (order, sched_spu_program) =
        schedule_kept_body(program, l, &body, &removal, &routes, &spu_program, shape);
    Some(LoopPlan {
        head: l.head,
        body,
        removal,
        routes,
        order,
        context,
        spu_program,
        sched_spu_program,
        renames,
    })
}

/// Operand-route pair for one kept instruction.
pub(crate) type RoutePair = (Option<ByteRoute>, Option<ByteRoute>);

/// Convert kept-body routes into the per-instruction [`StepRouting`] the
/// scheduler's hazard model runs on (plain gather modes, exactly what
/// [`SpuProgram::single_loop`] programs).
pub(crate) fn route_steps(routes: &[RoutePair]) -> Vec<StepRouting> {
    routes
        .iter()
        .map(|&(route_a, route_b)| StepRouting { route_a, route_b, ..StepRouting::default() })
        .collect()
}

/// Permute an SPU program's loop states to match a scheduled kept-body
/// order: state `k` must route the instruction emitted at position `k`.
fn permuted_spu_program(
    spu_program: &SpuProgram,
    routes: &[RoutePair],
    order: &[usize],
    shape: &CrossbarShape,
) -> Option<SpuProgram> {
    if schedule::is_identity(order) {
        return Some(spu_program.clone());
    }
    let sched_routes: Vec<RoutePair> = order.iter().map(|&k| routes[k]).collect();
    let trips = spu_program.counter_init[0] as u64 / routes.len() as u64;
    let mut p = SpuProgram::single_loop(spu_program.name.clone(), &sched_routes, trips);
    p.window_base = spu_program.window_base;
    p.validate(shape).ok()?;
    Some(p)
}

/// Pairing-aware emission order for a planned loop's kept body, plus the
/// SPU program replaying the routes in that order. Identity (and the
/// original SPU program) when the body cannot be reordered: a label
/// bound strictly inside the body, or a scheduled SPU program that fails
/// validation.
fn schedule_kept_body(
    program: &Program,
    l: &LoopInfo,
    body: &[Instr],
    removal: &BTreeSet<usize>,
    routes: &[RoutePair],
    spu_program: &SpuProgram,
    shape: &CrossbarShape,
) -> (Vec<usize>, SpuProgram) {
    let identity: Vec<usize> = (0..routes.len()).collect();
    if schedule::has_interior_label(program, l) {
        return (identity, spu_program.clone());
    }
    let kept: Vec<Instr> =
        (0..body.len()).filter(|p| !removal.contains(p)).map(|p| body[p]).collect();
    let order = schedule::schedule_block(&kept, &route_steps(routes), true);
    match permuted_spu_program(spu_program, routes, &order, shape) {
        Some(sched) => (order, sched),
        None => (identity, spu_program.clone()),
    }
}

/// Why [`resolve_routes`] could not route a removal set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RouteFailure {
    /// Un-delete this candidate and retry with a smaller removal set.
    Blame(usize),
    /// No candidate is at fault: the kept body itself breaks a hard
    /// bound, and un-deleting candidates only grows it. The lift is
    /// rejected outright. (These paths used to dereference
    /// `removal.iter().next().unwrap()` and panicked when the removal
    /// set was empty.)
    Reject(RejectReason),
}

/// The no-blame rejection reasons of [`RouteFailure::Reject`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RejectReason {
    /// Removing every body position leaves no states to program.
    EmptyKeptBody,
    /// The kept body exceeds the controller's state budget.
    KeptBodyTooLong,
    /// `kept × trips` overflows the controller's 32-bit loop counter.
    CounterOverflow,
}

/// Where a route-source register's value comes from, for the register
/// compaction pass's web attachment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SourceAnchor {
    /// Produced by the kept writer at this body position (strictly
    /// before the consumer).
    Def(usize),
    /// A nominal operand byte the functional unit does not read but the
    /// crossbar port still carries (`movd` forms); anchored at the
    /// consumer, which reads the operand register.
    Operand,
    /// No same-iteration writer in the body: loop-invariant, or wrapped
    /// from the previous iteration. Such a value crosses the loop
    /// boundary in its register, so only pinned registers may carry it.
    LiveIn,
}

/// One register a route gathers from, with its producing live range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RouteSource {
    /// Register index (0..8).
    pub reg: u8,
    /// Attachment point for the compaction pass.
    pub anchor: SourceAnchor,
}

/// A non-straight route with its consumer position and provenance.
#[derive(Clone, Debug)]
pub(crate) struct SitedRoute {
    /// Body position of the kept consumer.
    pub pos: usize,
    /// Blame handle: the first deleted candidate feeding the route.
    pub hop: usize,
    /// The route itself.
    pub route: ByteRoute,
    /// Distinct source registers across the route's eight bytes.
    pub sources: Vec<RouteSource>,
}

/// Output of [`resolve_routes`]: the per-kept-position route pairs plus
/// the sited forms the window check and the compaction pass consume.
pub(crate) struct RoutedBody {
    /// Routes per kept body position (`(None, None)` = straight).
    pub routes: Vec<RoutePair>,
    /// Every non-straight route, in body order.
    pub sited: Vec<SitedRoute>,
}

/// Resolve routes for every kept position: byte-provenance chains plus
/// the 16-bit-port alignment check. The window-reach check is separate
/// ([`window_blame`]) so the caller can interpose register compaction
/// between resolution and refinement.
pub(crate) fn resolve_routes(
    body: &[Instr],
    removal: &BTreeSet<usize>,
    shape: &CrossbarShape,
    trips: u64,
) -> Result<RoutedBody, RouteFailure> {
    let len = body.len();
    let kept_len = len - removal.len();
    if kept_len == 0 {
        // Cannot happen via `plan_loop` (the back edge is never
        // liftable), but reject structurally rather than blaming an
        // arbitrary candidate from a possibly empty set.
        return Err(RouteFailure::Reject(RejectReason::EmptyKeptBody));
    }
    if kept_len > MAX_STATES {
        return Err(RouteFailure::Reject(RejectReason::KeptBodyTooLong));
    }
    // The controller's loop counter is 32 bits (`counter_init` holds
    // `kept × trips`); rejecting here prevents a silently truncated
    // counter. Un-deleting a candidate can only grow `kept`, so this is
    // a hard rejection, not a blame.
    if !counter_fits(kept_len, trips) {
        return Err(RouteFailure::Reject(RejectReason::CounterOverflow));
    }

    let mut routes = Vec::with_capacity(kept_len);
    let mut sited: Vec<SitedRoute> = Vec::new();
    for pos in 0..len {
        if removal.contains(&pos) {
            continue;
        }
        let ins = &body[pos];
        let (mask_a, mask_b) = operand_masks(ins);
        let (reg_a, reg_b) = operand_regs(ins);
        let mut pair = (None, None);
        for (slot, mask, reg) in [(0usize, mask_a, reg_a), (1, mask_b, reg_b)] {
            let (Some(mask), Some(reg)) = (mask, reg) else { continue };
            let mut bytes = [0u8; 8];
            let mut hop: Option<usize> = None;
            let mut sources: Vec<RouteSource> = Vec::new();
            let mut add_source = |s: RouteSource| {
                if !sources.contains(&s) {
                    sources.push(s);
                }
            };
            for (b, m) in mask.iter().enumerate() {
                if !*m {
                    bytes[b] = reg.file_byte(b) as u8;
                    add_source(RouteSource {
                        reg: reg.index() as u8,
                        anchor: SourceAnchor::Operand,
                    });
                    continue;
                }
                match resolve_byte(body, removal, pos, reg, b as u8) {
                    Ok(ResolvedByte { src, first_hop, def }) => {
                        bytes[b] = src;
                        hop = hop.or(first_hop);
                        add_source(RouteSource {
                            reg: src / 8,
                            anchor: match def {
                                Some(q) if q < pos => SourceAnchor::Def(q),
                                _ => SourceAnchor::LiveIn,
                            },
                        });
                    }
                    Err(fail) => return Err(RouteFailure::Blame(fail.blame())),
                }
            }
            if let Some(h) = hop {
                let route = ByteRoute(bytes);
                // 16-bit ports move aligned byte pairs together; a
                // misaligned gather can never be expressed, whatever the
                // window, so blame the feeding candidate immediately.
                if shape.port_bits == 16 && !route.word_aligned() {
                    return Err(RouteFailure::Blame(h));
                }
                if slot == 0 {
                    pair.0 = Some(route);
                } else {
                    pair.1 = Some(route);
                }
                sited.push(SitedRoute { pos, hop: h, route, sources });
            }
        }
        routes.push(pair);
    }
    Ok(RoutedBody { routes, sited })
}

/// The windowed-reach check: `None` when every route's register span
/// fits one `window_regs`-wide window (always, for full-reach shapes);
/// otherwise the blame handle of the route extending the span furthest.
pub(crate) fn window_blame(shape: &CrossbarShape, sited: &[SitedRoute]) -> Option<usize> {
    if shape.full_reach() || sited.is_empty() {
        return None;
    }
    let mut lo = 7u8;
    let mut hi = 0u8;
    for s in sited {
        let (base, span) = s.route.reg_span();
        lo = lo.min(base);
        hi = hi.max(base + span - 1);
    }
    if (hi - lo + 1) as usize <= shape.window_regs() {
        return None;
    }
    // Blame the route that extends the span the furthest.
    sited
        .iter()
        .max_by_key(|s| {
            let (b, sp) = s.route.reg_span();
            (b + sp - 1) as usize
        })
        .map(|s| s.hop)
}

/// Build the Figure 7-style single-loop SPU program from the kept-body
/// routes. The window base comes straight from the routes' register
/// span ([`SpuProgram::fit_window`] — the same placement
/// `SpuProgram::minimal_shape` uses).
fn build_spu_program(
    name: &str,
    routes: &[(Option<ByteRoute>, Option<ByteRoute>)],
    trips: u64,
    shape: &CrossbarShape,
    context: usize,
) -> Option<SpuProgram> {
    let mut prog = SpuProgram::single_loop(format!("{name}-ctx{context}"), routes, trips);
    prog.window_base = prog.fit_window(shape)?;
    prog.validate(shape).ok()?;
    Some(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::instr::MmxOperand;
    use subword_isa::op::MmxOp;
    use subword_isa::reg::MmReg::*;
    use subword_spu::SHAPE_A;

    /// Regression for the two latent panic paths: with an empty removal
    /// set, the hard-bound checks used to dereference
    /// `removal.iter().next().unwrap()`. They now reject structurally —
    /// no blame candidate exists, and un-deleting could never help.
    #[test]
    fn empty_removal_hard_bounds_reject_instead_of_panicking() {
        let empty: BTreeSet<usize> = BTreeSet::new();

        // (a) Kept body exceeding the controller's state budget with
        // nothing deleted.
        let long = vec![Instr::Nop; MAX_STATES + 2];
        assert_eq!(
            resolve_routes(&long, &empty, &SHAPE_A, 1).err(),
            Some(RouteFailure::Reject(RejectReason::KeptBodyTooLong))
        );

        // (b) A `counter_fits` overflow with zero deleted candidates.
        let body =
            vec![Instr::Mmx { op: MmxOp::Paddw, dst: MM0, src: MmxOperand::Reg(MM1) }, Instr::Nop];
        assert_eq!(
            resolve_routes(&body, &empty, &SHAPE_A, u64::MAX).err(),
            Some(RouteFailure::Reject(RejectReason::CounterOverflow))
        );
        // The same bound still rejects when candidates *are* deleted —
        // shrinking the removal set can only grow the kept body, so
        // blaming one would loop toward the old panic.
        let one_copy = vec![
            Instr::Mmx { op: MmxOp::Movq, dst: MM2, src: MmxOperand::Reg(MM1) },
            Instr::Mmx { op: MmxOp::Paddw, dst: MM0, src: MmxOperand::Reg(MM2) },
            Instr::Nop,
        ];
        let removal: BTreeSet<usize> = [0usize].into_iter().collect();
        assert_eq!(
            resolve_routes(&one_copy, &removal, &SHAPE_A, u64::MAX).err(),
            Some(RouteFailure::Reject(RejectReason::CounterOverflow))
        );

        // (c) A removal that keeps nothing.
        let only = vec![Instr::Mmx { op: MmxOp::Movq, dst: MM0, src: MmxOperand::Reg(MM1) }];
        let all: BTreeSet<usize> = [0usize].into_iter().collect();
        assert_eq!(
            resolve_routes(&only, &all, &SHAPE_A, 1).err(),
            Some(RouteFailure::Reject(RejectReason::EmptyKeptBody))
        );
    }
}

//! # subword-compile
//!
//! Automatic SPU code generation — the paper's §4 sketch made concrete:
//! *"the generation of the code for the SPU is systematic and can be
//! automated"*.
//!
//! Given a program whose loops carry static trip counts, the pass
//!
//! 1. finds innermost loops with straight-line bodies ([`chains`] does the
//!    structural checks);
//! 2. identifies **liftable realignment instructions** — unpacks and
//!    register moves whose only effect is to rearrange bytes;
//! 3. resolves, for every remaining instruction's operand bytes, the
//!    *copy chain* back through the deleted realignments to a stable
//!    source byte in the register file ([`chains::resolve_byte`]),
//!    rejecting chains that a kept instruction would clobber;
//! 4. when the routes' register span exceeds a windowed shape's reach,
//!    renames MMX registers over their live ranges to compact every
//!    route source into one crossbar window and retries the lift
//!    ([`regalloc`]); only when no renaming exists does it iteratively
//!    un-delete candidates whose consumers' routes are not expressible
//!    in the target crossbar shape, until a fixed point;
//! 5. emits the rewritten program (deleted permutes gone, an MMIO setup
//!    prologue, and a GO store immediately ahead of each transformed
//!    loop) plus one [`subword_spu::SpuProgram`] per loop, assigned to
//!    SPU contexts ([`rewrite`]);
//! 6. reports the static accounting that, combined with a simulation
//!    diff, reproduces the paper's Table 3 ([`pass::CompileReport`]);
//! 7. list-schedules the result for dual-issue ([`schedule`]): loop
//!    bodies are reordered with their SPU routes permuted in lockstep,
//!    every other straight-line region under idle routing — the
//!    [`pass::ScheduledVariant`] carried on every [`TransformResult`].
//!    [`schedule::schedule_program`] applies the same pass to plain
//!    (MMX-only) programs, which is how the kernel framework schedules
//!    the baseline variant.
//!
//! [`verify`] is the execution matrix every harness drives: it builds
//! the compile variants, runs them on fresh machines, and compares the
//! results under one exemption table ([`verify::Variant`]).

pub mod annotate;
pub mod chains;
pub mod liveness;
pub mod pass;
pub mod regalloc;
pub mod rewrite;
pub mod schedule;
pub mod verify;

pub use annotate::annotate;

pub use pass::{
    lift_permutes, CompileError, CompileReport, LoopReport, LoopStatus, ScheduledVariant,
    TransformResult,
};
pub use regalloc::{RegRename, RenameMap};
pub use schedule::{schedule_block, schedule_program, ScheduleReport};
pub use verify::{differential, TestSetup};

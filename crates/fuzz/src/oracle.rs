//! The differential oracle: one generated program, four compile
//! variants, three engines, two pipeline models, everything compared.
//!
//! Every variant runs on all three engines, which must agree on the whole
//! state, and on the out-of-order pipeline model, which must reproduce
//! the in-order state and counts; each variant is then checked against
//! its reference variant. What is compared where is the exemption table
//! on [`Variant`]; the runs, comparisons and panic containment are
//! [`subword_compile::verify`]'s. A panic anywhere becomes a structured
//! [`FuzzFailure`] naming the stage that blew up, and the campaign moves
//! on to the next seed.

use subword_compile::verify::{
    build_variants, compare, contained, plain_lift, run, ArchState, Compared, Variant, ENGINES,
};
use subword_compile::LoopStatus;
use subword_isa::program::Program;
use subword_sim::machine::{ExecEngine, MachineConfig};
use subword_sim::PipelineKind;

use crate::gen::{build_program, FuzzCase};

/// Why a case failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The generator emitted a program the builder rejected (a generator
    /// bug, but contained like everything else).
    BuildError,
    /// A compile stage returned an error on a valid program.
    CompileError,
    /// A compile stage or a simulator run panicked.
    Panic,
    /// A simulator run returned a `SimError`.
    SimError,
    /// A run exceeded the case's static cycle bound.
    CycleBound,
    /// Two runs that must agree did not.
    Divergence,
}

impl FailureKind {
    /// Stable lower-case tag (used in repro files).
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::BuildError => "build-error",
            FailureKind::CompileError => "compile-error",
            FailureKind::Panic => "panic",
            FailureKind::SimError => "sim-error",
            FailureKind::CycleBound => "cycle-bound",
            FailureKind::Divergence => "divergence",
        }
    }

    /// Parse a [`FailureKind::tag`] string.
    pub fn from_tag(tag: &str) -> Option<FailureKind> {
        [
            FailureKind::BuildError,
            FailureKind::CompileError,
            FailureKind::Panic,
            FailureKind::SimError,
            FailureKind::CycleBound,
            FailureKind::Divergence,
        ]
        .into_iter()
        .find(|k| k.tag() == tag)
    }
}

/// One contained failure: the case that triggered it, the stage that
/// failed, and what happened there.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The offending case (possibly already minimized).
    pub case: FuzzCase,
    /// What failed.
    pub kind: FailureKind,
    /// Where — e.g. `lift`, `run lifted/Threaded`,
    /// `compare scheduled vs baseline`.
    pub stage: String,
    /// The panic message, error, or first point of divergence.
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#018x}: {} at {}: {}",
            self.case.seed,
            self.kind.tag(),
            self.stage,
            self.detail
        )
    }
}

/// What a passing case exercised (campaign accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseReport {
    /// The lift pass transformed the loop.
    pub lifted: bool,
    /// The lift needed live-range register compaction.
    pub compacted: bool,
    /// Programs actually diffed (2 without a lift, 4 with one).
    pub variants: usize,
}

/// A hook the fault-injection tests use to sabotage one compiled
/// variant; `None` in real campaigns.
pub type Tamper<'a> = Option<(Variant, &'a (dyn Fn(&mut Program) + Sync))>;

/// Run the full oracle on one case.
pub fn run_case(case: &FuzzCase) -> Result<CaseReport, FuzzFailure> {
    run_case_with(case, None)
}

/// [`run_case`], with an optional tamper hook applied to one variant
/// after it is compiled (fault-injection tests only).
pub fn run_case_with(case: &FuzzCase, tamper: Tamper<'_>) -> Result<CaseReport, FuzzFailure> {
    let fail = |kind, stage: &str, detail: String| FuzzFailure {
        case: case.clone(),
        kind,
        stage: stage.to_string(),
        detail,
    };
    let contain = |stage: &str, f: &mut dyn FnMut() -> Result<ArchState, String>| {
        contained(f)
            .map_err(|msg| fail(FailureKind::Panic, stage, msg))?
            .map_err(|e| fail(FailureKind::SimError, stage, e))
    };

    let program = contained(|| build_program(case))
        .map_err(|msg| fail(FailureKind::Panic, "build", msg))?
        .map_err(|e| fail(FailureKind::BuildError, "build", e))?;

    // --- Compile the variants (each stage panic-contained). -------------
    let shape = case.crossbar();
    let built = build_variants(program, &Variant::ALL, &shape, &plain_lift).map_err(|e| {
        let kind = if e.panicked { FailureKind::Panic } else { FailureKind::CompileError };
        fail(kind, e.stage, e.detail)
    })?;
    let loops = &built.report.as_ref().expect("lifted variants requested").loops;
    let lifted = loops.iter().any(|l| l.status == LoopStatus::Transformed);
    let compacted = loops.iter().any(|l| l.renamed_ranges > 0);
    let mut variants = built.programs;
    if !lifted {
        // Nothing lifted: the "lifted" program is the input plus a no-op
        // report; diffing it against baseline would compare a program
        // with itself.
        variants.retain(|(v, _)| !v.is_lifted());
    }
    if let Some((target, t)) = tamper {
        variants.iter_mut().filter(|(v, _)| *v == target).for_each(|(_, p)| t(p));
    }

    // All variants run on the *same* machine — SPU fitted with the case's
    // shape (idle unless a lift prologue arms it) — so cycle accounting
    // is comparable and generated MMIO stores never fault.
    let setup = case.setup();
    let machine =
        |engine, pipeline| MachineConfig { engine, pipeline, ..MachineConfig::with_spu(shape) };

    // --- Run everything: per variant, all engines must fully agree. -----
    let mut reference: Vec<(Variant, ArchState)> = Vec::new();
    for (variant, prog) in &variants {
        let name = variant.name();
        let mut states: Vec<ArchState> = Vec::new();
        for engine in ENGINES {
            let stage = format!("run {name}/{engine:?}");
            let state =
                contain(&stage, &mut || run(prog, &setup, machine(engine, PipelineKind::InOrder)))?;
            if state.stats.cycles > case.static_cycle_bound() {
                return Err(fail(
                    FailureKind::CycleBound,
                    &stage,
                    format!(
                        "{} cycles exceeds static bound {}",
                        state.stats.cycles,
                        case.static_cycle_bound()
                    ),
                ));
            }
            if let Some(base) = states.first() {
                if let Some(diff) = compare(base, &state, Compared::All) {
                    let stage = format!("compare {name}: Reference vs {engine:?}");
                    return Err(fail(FailureKind::Divergence, &stage, diff));
                }
            }
            states.push(state);
        }
        let base = states.swap_remove(0);

        // Pipeline-model dimension: the out-of-order core must land on
        // the identical architectural state and model-invariant counts
        // (timing statistics are the measurement, so they are exempt —
        // including the static cycle bound, which is an in-order bound).
        let stage = format!("run {name}/ooo");
        let ooo = contain(&stage, &mut || {
            run(prog, &setup, machine(ExecEngine::default(), PipelineKind::OutOfOrder))
        })?;
        if let Some(diff) = compare(&base, &ooo, Compared::Counts) {
            let stage = format!("compare {name}: in-order vs ooo");
            return Err(fail(FailureKind::Divergence, &stage, diff));
        }
        reference.push((*variant, base));
    }

    // --- Cross-variant comparisons (Reference results). ------------------
    let state_of = |v: Variant| &reference.iter().find(|(w, _)| *w == v).expect("variant ran").1;
    for (variant, state) in &reference {
        let Some((against, compared)) = variant.checked_against() else { continue };
        if let Some(diff) = compare(state_of(against), state, compared) {
            let stage = format!("compare {} vs {}", variant.name(), against.name());
            return Err(fail(FailureKind::Divergence, &stage, diff));
        }
    }

    Ok(CaseReport { lifted, compacted, variants: variants.len() })
}

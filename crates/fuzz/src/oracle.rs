//! The differential oracle: one generated program, four compile
//! variants, three engines, two pipeline models, everything compared.
//!
//! Each variant goes through [`agree`]: the three engines must agree on
//! the whole state, and the out-of-order model must reproduce the
//! in-order state and counts. The variants are then checked against
//! each other by [`check_references`], under the exemption table on
//! [`Variant`]. Both checks, the runs and the panic containment are
//! [`subword_compile::verify`]'s. A panic anywhere becomes a structured
//! [`FuzzFailure`] naming the stage that blew up, and the campaign moves
//! on to the next seed.

use subword_compile::verify::{
    agree, build_variants, check_references, contained, plain_lift, Disagreement, DisagreementKind,
    Variant,
};
use subword_compile::LoopStatus;
use subword_isa::program::Program;
use subword_sim::machine::MachineConfig;

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
}

/// One contained failure: the case that triggered it, the stage that
/// failed, and what happened there.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    let disagreed = |d: Disagreement| {
        let kind = match d.kind {
            DisagreementKind::Panicked => FailureKind::Panic,
            DisagreementKind::Faulted => FailureKind::SimError,
            DisagreementKind::Differed => FailureKind::Divergence,
        };
        fail(kind, &d.stage, d.detail)
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
    let machine = MachineConfig::with_spu(shape);
    let bound = case.static_cycle_bound();
    let mut states = Vec::with_capacity(variants.len());
    for (variant, prog) in &variants {
        let state = agree(*variant, prog, &setup, &machine).map_err(disagreed)?;
        // The bound is an in-order bound; the engines agree on cycles, so
        // the Reference state speaks for all three.
        if state.stats.cycles > bound {
            let stage = format!("run {}/Reference", variant.name());
            let detail = format!("{} cycles exceeds static bound {bound}", state.stats.cycles);
            return Err(fail(FailureKind::CycleBound, &stage, detail));
        }
        states.push((*variant, state));
    }
    check_references(&states).map_err(disagreed)?;

    Ok(CaseReport { lifted, compacted, variants: variants.len() })
}

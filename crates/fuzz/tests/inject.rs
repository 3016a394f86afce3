//! Fault injection: prove the oracle catches a deliberately broken
//! transform, the minimizer shrinks the catch, and the repro file
//! replays it.
//!
//! The injected fault flips the first `paddw` of one variant into
//! `psubw` — the flavor of bug a miscompiled schedule or a bad route
//! permutation would produce (right instruction count, wrong dataflow).

use subword_compile::verify::Variant;
use subword_fuzz::gen::{generate, FuzzCase};
use subword_fuzz::minimize::minimize;
use subword_fuzz::oracle::{run_case_with, FailureKind, Tamper};
use subword_fuzz::{corpus, run_campaign_with, CampaignConfig};
use subword_isa::instr::Instr;
use subword_isa::op::MmxOp;
use subword_isa::program::Program;

/// Flip the first `paddw` into `psubw`.
fn break_first_paddw(p: &mut Program) {
    for i in &mut p.instrs {
        if let Instr::Mmx { op, .. } = i {
            if *op == MmxOp::Paddw {
                *op = MmxOp::Psubw;
                return;
            }
        }
    }
}

/// The fault, injected into the scheduled baseline.
const FAULT: Tamper<'static> = Some((Variant::Scheduled, &break_first_paddw));

/// A seed whose case (a) diverges under the injected fault and (b) is
/// big enough that a ≤⅓ shrink is meaningful.
fn victim() -> (u64, FuzzCase) {
    for seed in 0..500 {
        let case = generate(seed);
        if case.instruction_count() >= 18 && run_case_with(&case, FAULT).is_err() {
            return (seed, case);
        }
    }
    panic!("no seed in 0..500 diverges under the injected fault");
}

/// A broken scheduled-lifted program is reported against the variant
/// it is checked against — `lifted`, not `baseline`.
#[test]
fn divergence_names_the_reference_variant() {
    let fault: Tamper<'_> = Some((Variant::ScheduledLifted, &break_first_paddw));
    let failure = (0..500)
        .find_map(|seed| run_case_with(&generate(seed), fault).err())
        .expect("no seed in 0..500 diverges under the injected fault");
    assert_eq!(failure.kind, FailureKind::Divergence, "caught as {failure}");
    assert_eq!(failure.stage, "compare scheduled-lifted vs lifted", "{failure}");
}

#[test]
fn injected_fault_is_caught_minimized_and_replayable() {
    let (seed, case) = victim();
    let failure = run_case_with(&case, FAULT).expect_err("victim() returned a passing case");
    assert_eq!(failure.kind, FailureKind::Divergence, "caught as {failure}");

    // Minimize against the same fault; the shrink must reach ≤ 1/3 of
    // the original instruction count.
    let fails = |c: &FuzzCase| run_case_with(c, FAULT).is_err();
    let (small, report) = minimize(&case, &fails);
    assert!(
        small.instruction_count() * 3 <= case.instruction_count(),
        "seed {seed}: minimized to {} of {} instructions (want ≤ 1/3)",
        small.instruction_count(),
        case.instruction_count()
    );
    assert!(report.accepted > 0);
    assert!(fails(&small), "minimized case must still fail");

    // The emitted repro file replays the failure bit-for-bit.
    let dir = std::env::temp_dir().join(format!("subword-fuzz-inject-{seed}"));
    let small_failure = run_case_with(&small, FAULT).unwrap_err();
    let path = corpus::write_repro(&dir, &small, Some(&small_failure)).expect("repro written");
    let text = std::fs::read_to_string(&path).expect("repro readable");
    let replayed = corpus::parse(&text).expect("repro parses");
    assert_eq!(replayed, small);
    assert!(fails(&replayed), "replayed case must reproduce the failure");
    std::fs::remove_dir_all(&dir).ok();
}

/// The campaign driver contains, minimizes and persists the same fault
/// end to end (and a clean campaign stays clean).
#[test]
fn campaign_contains_and_persists_injected_faults() {
    let (seed, _) = victim();
    let dir = std::env::temp_dir().join(format!("subword-fuzz-campaign-{seed}"));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = CampaignConfig {
        base_seed: seed,
        count: 1,
        failures_dir: Some(dir.clone()),
        ..CampaignConfig::default()
    };
    let stats = run_campaign_with(&cfg, FAULT, &mut |_, _| {});
    assert_eq!(stats.cases, 1);
    assert_eq!(stats.failures.len(), 1, "campaign must catch the fault");
    let (failure, path) = &stats.failures[0];
    assert_eq!(failure.kind, FailureKind::Divergence);
    let path = path.as_ref().expect("repro persisted");
    let case = corpus::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(case, failure.case, "persisted repro is the minimized case");
    std::fs::remove_dir_all(&dir).ok();

    // Control: without the fault the same seed is green.
    let clean =
        run_campaign_with(&CampaignConfig { failures_dir: None, ..cfg }, None, &mut |_, _| {});
    assert!(clean.failures.is_empty());
}

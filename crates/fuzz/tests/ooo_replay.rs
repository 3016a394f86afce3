//! The out-of-order model's timing replay against stepping, on generated
//! programs. The generator's loops run 2–8 trips, short of the 8 entries
//! a region needs before its timing is memoised, so here every case runs
//! 200 trips: all four compile variants of each generated case go
//! through `verify::ooo_replay_agrees`, which runs each on the
//! out-of-order model twice — timing every instruction under the decoded
//! engine and replaying memoised region timings under the threaded one —
//! and requires the whole state, `SimStats` and `OooStats` included, to
//! be equal.
//! The fuzz campaign never engages the replay, so this is its one
//! generated-program check: 300 cases in a debug build, 3,000 in release.

use subword_compile::verify::{build_variants, ooo_replay_agrees, plain_lift, Variant};
use subword_fuzz::gen::{build_program, generate};
use subword_sim::MachineConfig;

const CASES: u64 = if cfg!(debug_assertions) { 300 } else { 3_000 };
const TRIPS: u64 = 200;

#[test]
fn replayed_timing_equals_stepped_timing_on_generated_loops() {
    let (mut runs, mut replayed, mut stepped) = (0, 0, 0);
    for seed in 0..CASES {
        let mut case = generate(seed);
        case.trips = TRIPS;
        let program = build_program(&case).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let shape = case.crossbar();
        let built = build_variants(program, &Variant::ALL, &shape, &plain_lift)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cfg = MachineConfig {
            max_cycles: case.static_cycle_bound(),
            ..MachineConfig::with_spu(shape)
        };
        let setup = case.setup();
        for (variant, program) in &built.programs {
            let tl = ooo_replay_agrees(program, &setup, &cfg)
                .unwrap_or_else(|d| panic!("seed {seed}/{}: {d}", variant.name()));
            runs += 1;
            replayed += tl.replayed_slots;
            stepped += tl.fallback_slots;
        }
    }
    assert_eq!(runs, 4 * CASES);
    // The replay must carry most of the work, or the check above would
    // compare stepping with itself.
    let share = replayed as f64 / (replayed + stepped) as f64;
    assert!(share > 0.5, "replayed {share:.3} of {} instructions", replayed + stepped);
}

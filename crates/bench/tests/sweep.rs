//! Integration tests of the sweep orchestration layer: the compile
//! cache must be invisible to results, the job matrix must equal
//! independent per-shape sweeps, and reports must survive JSON.

use std::path::Path;
use subword_bench::baseline::CyclesBaseline;
use subword_bench::store::MeasurementStore;
use subword_bench::sweep::{run_sweep, CacheStats, CompileCache, SweepConfig, SweepReport};
use subword_kernels::framework::{measure, Kernel, KernelBuild, MeasureOpts};
use subword_kernels::suite::{dotprod_example, paper_suite, Family, SuiteEntry};
use subword_sim::PipelineKind;
use subword_spu::crossbar::{CrossbarShape, CANONICAL_SHAPES};
use subword_spu::{SHAPE_A, SHAPE_D};

/// (a) Cached vs uncached compilation yields identical `Measurement`s —
/// the whole `Measurement`, per-loop compile reports included.
#[test]
fn cached_compilation_is_invisible_to_measurements() {
    let mut entries = vec![dotprod_example()];
    entries.extend(paper_suite().into_iter().take(2)); // FIR12, FIR22
    for shape in [SHAPE_A, SHAPE_D] {
        let cache = CompileCache::new();
        for e in &entries {
            let measure_under = |opts: &MeasureOpts| {
                measure(e.kernel, e.blocks_small, e.blocks_large, &shape, opts).unwrap()
            };
            let uncached = measure_under(&MeasureOpts::default());
            let key = e.kernel.name();
            let lift = |program: &_, shape: &_| cache.lift(key, program, shape);
            let cached_opts = MeasureOpts { lift: Some(&lift), ..MeasureOpts::default() };
            let cached = measure_under(&cached_opts);
            assert_eq!(uncached, cached, "{key} under shape {}", shape.name);

            // A second cached measurement lifts afresh (the memo handed
            // its entry out) and still agrees.
            let again = measure_under(&cached_opts);
            assert_eq!(uncached, again, "{key} again under shape {}", shape.name);
        }
        // Two measurements per kernel, each lifting its small build and
        // reusing that lift for its large one.
        let per_kernel = 2 * entries.len() as u64;
        assert_eq!(cache.stats(), CacheStats { hits: per_kernel, misses: per_kernel });
    }
}

/// (b) The full 4-shape sweep equals four independent single-shape
/// sweeps, compiles exactly once per (kernel, shape), and matches the
/// committed in-order cycles baseline on every cell. A 4-shape sweep
/// shares each kernel's MMX-only runs across its shapes, and a
/// single-shape sweep does not, so the comparison also shows the
/// sharing is invisible in the cells.
#[test]
fn four_shape_sweep_equals_independent_suite_runs() {
    let report = run_sweep(&SweepConfig::full_matrix(), None).unwrap();
    let kernels = SweepConfig::full_matrix().entries.len();

    assert_eq!(report.cells.len(), kernels * CANONICAL_SHAPES.len());
    assert_eq!(
        report.cache,
        CacheStats {
            misses: (kernels * CANONICAL_SHAPES.len()) as u64,
            hits: (kernels * CANONICAL_SHAPES.len()) as u64,
        },
        "exactly one compilation per (kernel, shape), reused for the second block count"
    );

    assert_matches_baseline(&report, "BENCH_cycles.json");

    for shape in CANONICAL_SHAPES {
        let single = run_sweep(&SweepConfig::full(&[shape]), None).unwrap();
        let swept = report.for_shape(shape.name);
        assert_eq!(single.cells.len(), swept.len());
        for (independent, cell) in single.cells.iter().zip(swept) {
            assert_eq!(independent, cell, "{} under shape {}", cell.kernel(), shape.name);
        }
    }
}

/// (b′) The full sweep on the out-of-order model matches the committed
/// ooo cycles baseline on every cell, as `sweep --pipeline ooo
/// --check-baseline BENCH_cycles_ooo.json` does.
#[test]
fn ooo_sweep_matches_the_committed_ooo_baseline() {
    let mut cfg = SweepConfig::full_matrix();
    cfg.base.pipeline = PipelineKind::OutOfOrder;
    let report = run_sweep(&cfg, None).unwrap();
    assert_matches_baseline(&report, "BENCH_cycles_ooo.json");
}

/// (b″) Sharing lifted halves is invisible on the out-of-order model
/// too, which `BENCH_cycles_ooo.json`'s per-block cycles alone would not
/// show: a 4-shape ooo sweep equals single-shape ooo sweeps, which share
/// no lifted half, cell for cell. FIR12 lifts alike under shapes {A, C}
/// and {B, D}, SAD under {A}, {B} and {C, D}, and DotProd under all four,
/// so the three cover every grouping.
#[test]
fn ooo_sweep_sharing_lifted_halves_equals_single_shape_sweeps() {
    let ooo = |shapes: &[CrossbarShape]| {
        let mut cfg = SweepConfig::full(shapes);
        cfg.entries.retain(|e| ["FIR12", "SAD", "DotProd"].contains(&e.kernel.name()));
        assert_eq!(cfg.entries.len(), 3);
        cfg.base.pipeline = PipelineKind::OutOfOrder;
        run_sweep(&cfg, None).unwrap()
    };
    let report = ooo(&CANONICAL_SHAPES);
    for shape in CANONICAL_SHAPES {
        let single = ooo(&[shape]);
        let swept = report.for_shape(shape.name);
        assert_eq!(single.cells.len(), swept.len());
        for (independent, cell) in single.cells.iter().zip(swept) {
            assert_eq!(independent, cell, "{} under shape {}", cell.kernel(), shape.name);
        }
    }
}

/// Gate `report` with the committed cycles baseline `file` (at the
/// repository root), and require it to cover every cell with the same
/// cycles. The `sweep` binary passes a cell that got cheaper, with a
/// note to refresh the file; this test does not, so a change that moves
/// a cycle either way fails until the baseline is regenerated.
fn assert_matches_baseline(report: &SweepReport, file: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    let baseline = CyclesBaseline::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    match baseline.check(report) {
        Ok(summary) => {
            assert_eq!(summary.cells, report.cells.len());
            let ooo = report.cells.iter().any(|c| c.pipeline == "ooo");
            let flags = if ooo { "--pipeline ooo " } else { "" };
            assert!(
                summary.improvements.is_empty(),
                "{file}: {} counter(s) improved; if intended, regenerate it with \
                 `sweep {flags}--write-baseline {file}`:\n  {}",
                summary.improvements.len(),
                summary.improvements.join("\n  ")
            );
        }
        Err(failure) => panic!("{file} gate failed:\n{failure}"),
    }
}

/// An untransformed lift still pays the SPU pipe stage. Blend and
/// Conv3x3 lift no loop under shapes C and D, so their SPU columns retire
/// the MMX-only instructions, yet on an SPU-fitted machine: each
/// mispredict costs one cycle more (paper §5.1), on both pipeline models
/// and both schedules. A sweep that ran these lifted halves as the
/// MMX-only half, whose instructions they match, would report the
/// MMX-only cycles here.
#[test]
fn an_untransformed_lift_still_pays_the_spu_pipe_stage() {
    for pipeline in [PipelineKind::InOrder, PipelineKind::OutOfOrder] {
        let mut cfg = SweepConfig::full(&CANONICAL_SHAPES[2..]);
        cfg.entries.retain(|e| ["Blend", "Conv3x3"].contains(&e.kernel.name()));
        assert_eq!(cfg.entries.len(), 2);
        cfg.base.pipeline = pipeline;
        let report = run_sweep(&cfg, None).unwrap();
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            let (r, at) = (&c.record, format!("{}/shape {}/{}", c.kernel(), c.shape, c.pipeline));
            assert_eq!(r.transformed_loops, 0, "{at}");
            for (mmx_only, spu) in [
                (&r.baseline_per_block, &r.spu_per_block),
                (&r.sched_baseline_per_block, &r.sched_spu_per_block),
            ] {
                assert_eq!(spu.instructions, mmx_only.instructions, "{at}");
                assert_eq!(spu.cycles, mmx_only.cycles + mmx_only.mispredicts, "{at}");
            }
        }
    }
}

/// The sweep and `measure` are the two callers of compile, run and join:
/// a swept cell equals `measure`'s record of the same kernel and shape
/// on every field, the ones no baseline gates (moved counts and the lift
/// report's) included. FIR12, SAD and DotProd cover every way the sweep
/// shares a lifted run across shapes A–D.
#[test]
fn swept_cells_equal_measure_records() {
    let mut cfg = SweepConfig::full(&CANONICAL_SHAPES);
    cfg.entries.retain(|e| ["FIR12", "SAD", "DotProd"].contains(&e.kernel.name()));
    assert_eq!(cfg.entries.len(), 3);
    let report = run_sweep(&cfg, None).unwrap();
    assert_eq!(report.cells.len(), 12);
    let opts = MeasureOpts { scheduled: true, ..MeasureOpts::default() };
    for e in &cfg.entries {
        for shape in &CANONICAL_SHAPES {
            let measured = measure(e.kernel, e.blocks_small, e.blocks_large, shape, &opts).unwrap();
            let cell = report.cell(e.kernel.name(), shape.name).unwrap();
            let at = format!("{} under shape {}", e.kernel.name(), shape.name);
            assert_eq!(cell.record, measured.record(), "{at}");
        }
    }
}

/// (c) `SweepReport` JSON round-trips losslessly.
#[test]
fn sweep_report_round_trips_through_json() {
    let mut cfg = SweepConfig::full(&[SHAPE_A, SHAPE_D]);
    cfg.entries.truncate(3);
    cfg.block_scales = vec![1, 2];
    let report = run_sweep(&cfg, None).unwrap();

    let json = report.to_json();
    let parsed = SweepReport::from_json(&json).unwrap();
    assert_eq!(parsed, report);
    // `HostNanos` is equality-exempt, so check the wall-clock values
    // round-tripped exactly by hand.
    assert_eq!(parsed.wall_nanos.0, report.wall_nanos.0);
    for (p, c) in parsed.cells.iter().zip(&report.cells) {
        assert_eq!(p.record.wall_nanos.0, c.record.wall_nanos.0);
    }

    // Throughput accounting: the sweep simulated real work in measurable
    // host time, and every cell timed its checked runs.
    assert!(report.total_sim_instructions() > 0);
    assert!(report.wall_nanos.0 > 0);
    let in_sim: u64 = report.cells.iter().map(|c| c.record.wall_nanos.0).sum();
    assert!(in_sim > 0, "per-cell wall clocks must be populated");
    assert!(report.sim_ips().is_some_and(|ips| ips.is_finite() && ips > 0.0));

    // Two lifts per cell. Concurrent scales of one kernel share a cache
    // key and can take each other's stored lift, so only the sum is
    // exact here.
    let cache = report.cache;
    assert_eq!(cache.hits + cache.misses, 2 * report.cells.len() as u64);

    // Steady-state per-block cycles are scale-invariant: the same kernel
    // measured at 2x the block count reports the same per-block cost.
    for cell in report.cells.iter().filter(|c| c.scale == 1) {
        let scaled = report
            .cells
            .iter()
            .find(|c| c.scale == 2 && c.kernel() == cell.kernel() && c.shape == cell.shape)
            .unwrap();
        assert_eq!(
            cell.record.baseline_per_block.cycles,
            scaled.record.baseline_per_block.cycles,
            "{}/{} per-block cycles must not depend on run length",
            cell.kernel(),
            cell.shape
        );
    }

    // The schema-v5 `cached` column: a storeless sweep simulates every
    // cell, and the flag round-trips as data (it is equality-exempt, so
    // check the raw values by hand).
    for c in &report.cells {
        assert!(!c.record.cached.0, "{}: no store attached, nothing is cached", c.kernel());
    }
    for (p, c) in parsed.cells.iter().zip(&report.cells) {
        assert_eq!(p.record.cached.0, c.record.cached.0);
    }
    let flipped = json.replace("\"cached\": false", "\"cached\": true");
    let parsed_flipped = SweepReport::from_json(&flipped).unwrap();
    assert!(parsed_flipped.cells.iter().all(|c| c.record.cached.0));

    // The schema-v6 `pipeline` column: a default-config sweep times
    // every cell on the in-order model, and the column round-trips.
    for (p, c) in parsed.cells.iter().zip(&report.cells) {
        assert_eq!(c.pipeline, "in-order", "{}", c.kernel());
        assert_eq!(p.pipeline, c.pipeline);
    }

    // Corrupted documents are rejected, not mis-parsed.
    assert!(SweepReport::from_json("{}").is_err());
    assert!(SweepReport::from_json(&json.replace("subword-sweep/v7", "v0")).is_err());
}

/// (e) The sweep is family-aware: per-family configs carry exactly their
/// family's kernels, the full config is their disjoint union (plus the
/// dot-product example), and the family column survives the JSON round
/// trip.
#[test]
fn family_selection_and_family_column() {
    use subword_kernels::suite::{pixel_suite, Family};

    let paper = SweepConfig::paper(&[SHAPE_A]);
    let pixel = SweepConfig::pixel(&[SHAPE_A]);
    let full = SweepConfig::full(&[SHAPE_A]);
    assert_eq!(paper.entries.len(), paper_suite().len());
    assert_eq!(pixel.entries.len(), pixel_suite().len());
    assert_eq!(full.entries.len(), paper.entries.len() + pixel.entries.len() + 1);
    for e in &pixel.entries {
        assert_eq!(e.kernel.family(), Family::Pixel);
    }

    // One cheap pixel-family sweep: every cell reports the pixel family
    // and the column round-trips.
    let mut cfg = pixel;
    cfg.entries.retain(|e| e.kernel.name() == "Blend" || e.kernel.name() == "YUV2RGB");
    let report = run_sweep(&cfg, None).unwrap();
    for c in &report.cells {
        assert_eq!(c.record.family, Family::Pixel, "{}", c.record.kernel);
    }
    let parsed = SweepReport::from_json(&report.to_json()).unwrap();
    for (p, c) in parsed.cells.iter().zip(&report.cells) {
        assert_eq!(p.record.family, c.record.family);
    }
    // A family name the parser does not know is rejected.
    let broken = report.to_json().replace("\"pixel\"", "\"voxel\"");
    assert!(SweepReport::from_json(&broken).is_err());
}

/// A kernel that panics during `build` — standing in for any panic
/// under a measurement (kernel construction, compile stage, simulator).
struct PanickingKernel;

impl Kernel for PanickingKernel {
    fn name(&self) -> &'static str {
        "Panicker"
    }
    fn build(&self, _blocks: u64) -> KernelBuild {
        panic!("deliberate test panic in build");
    }
    fn family(&self) -> Family {
        Family::Paper
    }
}

static PANICKER: PanickingKernel = PanickingKernel;

/// (f) A panicking measurement costs exactly its own cell: the sweep
/// reports it as a structured error naming the kernel, shape and panic
/// message, and the kernel queued *after* the panicking one is still
/// measured and saved. That a worker keeps draining jobs after one of
/// them panics is `sweep::pool`'s own unit test.
#[test]
fn a_panicking_kernel_costs_one_cell_not_the_pool() {
    let mut cfg = SweepConfig::paper(&[SHAPE_A]);
    cfg.entries =
        vec![SuiteEntry { kernel: &PANICKER, blocks_small: 1, blocks_large: 2 }, dotprod_example()];

    let dir = std::env::temp_dir().join(format!("subword-sweep-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MeasurementStore::open(&dir).unwrap();
    let Err(err) = run_sweep(&cfg, Some(&store)) else {
        panic!("a panicking cell must surface as a sweep error");
    };
    assert!(err.contains("Panicker/shape A"), "error must name the failing cell: {err}");
    assert!(err.contains("panicked: deliberate test panic in build"), "{err}");

    let saved = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(store.stats().misses, 1, "the kernel after the panic must still have run");
    assert_eq!(saved, 1, "and its cell must have been measured and saved");
}

/// The dot-product kernel with one golden byte flipped: it builds, so
/// its store probes succeed, but every checked run of it fails.
struct WrongGolden;

impl Kernel for WrongGolden {
    fn name(&self) -> &'static str {
        "WrongGolden"
    }
    fn build(&self, blocks: u64) -> KernelBuild {
        let mut build = dotprod_example().kernel.build(blocks);
        build.expected[0].1[0] ^= 0xff;
        build
    }
    fn family(&self) -> Family {
        Family::Paper
    }
}

static WRONG_GOLDEN: WrongGolden = WrongGolden;

/// (h) A failing MMX-only half, which the cells of all its kernel's
/// shapes share, fails those cells and no others: the error names the
/// first of them, and the next kernel's cells still run and are saved.
#[test]
fn a_failing_shared_mmx_only_job_costs_only_its_kernels_cells() {
    let mut cfg = SweepConfig::paper(&[SHAPE_A, SHAPE_D]);
    let e = dotprod_example();
    cfg.entries = vec![SuiteEntry { kernel: &WRONG_GOLDEN, ..e }, e];

    let dir = std::env::temp_dir().join(format!("subword-sweep-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MeasurementStore::open(&dir).unwrap();
    let Err(err) = run_sweep(&cfg, Some(&store)) else {
        panic!("a failing golden check must surface as a sweep error");
    };
    assert!(err.starts_with("WrongGolden/shape A: baseline/2: mismatch"), "{err}");

    let saved = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(store.stats().misses, 4, "every cell was probed");
    assert_eq!(saved, 2, "DotProd's two cells were measured and saved");
}

/// (i) A failing lifted half, which the cells of every shape that lifts
/// a kernel alike share, fails those cells and no others. SAD lifts alike
/// under shapes C and D only, and its plain lifted run there is its
/// longest: with `max_cycles` at the longest of its other runs, the
/// {C, D} half faults, the error names shape C, and the A and B cells
/// are measured and saved.
#[test]
fn a_failing_shared_lifted_half_costs_only_its_groups_cells() {
    let mut cfg = SweepConfig::pixel(&CANONICAL_SHAPES);
    cfg.entries.retain(|e| e.kernel.name() == "SAD");
    let unlimited = run_sweep(&cfg, None).unwrap();
    let (mut others, mut cd) = (0, u64::MAX);
    for c in &unlimited.cells {
        let r = &c.record;
        let mmx_only = r.baseline_total.cycles.max(r.sched_baseline_total.cycles);
        let lifted = r.spu_total.cycles.max(r.sched_spu_total.cycles);
        if ["C", "D"].contains(&c.shape.as_str()) {
            others = others.max(mmx_only);
            cd = cd.min(r.spu_total.cycles);
        } else {
            others = others.max(mmx_only).max(lifted);
        }
    }
    assert!(others < cd, "SAD's {{C, D}} lifted run must be its longest: {others} vs {cd}");
    cfg.base.max_cycles = others;

    let dir = std::env::temp_dir().join(format!("subword-sweep-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MeasurementStore::open(&dir).unwrap();
    let Err(err) = run_sweep(&cfg, Some(&store)) else {
        panic!("a faulting lifted half must surface as a sweep error");
    };
    assert!(err.starts_with("SAD/shape C: lifted/"), "{err}");
    assert!(err.contains("exceeded cycle budget"), "{err}");

    let saved = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(store.stats().misses, 4, "every cell was probed");
    assert_eq!(saved, 2, "the A and B cells were measured and saved");
}

/// (d) The v3 scheduled columns hold the orchestration claims: the list
/// scheduler never costs a cycle on any cell, retires the same
/// instruction stream, raises the issued-pair rate on at least half the
/// kernels, and the new columns survive the JSON round trip.
#[test]
fn scheduled_columns_hold_the_orchestration_claims() {
    let report = run_sweep(&SweepConfig::full(&[SHAPE_A]), None).unwrap();

    // The shared contract (also gated by the sweep binary and CI): no
    // cell costs cycles, ≥ half the kernels pair strictly better.
    report.check_sched_invariants().unwrap();

    for c in &report.cells {
        let r = &c.record;
        // Scheduling permutes, it never adds or removes work.
        assert_eq!(
            r.sched_baseline_per_block.instructions, r.baseline_per_block.instructions,
            "{}: instruction stream changed",
            r.kernel
        );
        assert_eq!(r.sched_spu_per_block.instructions, r.spu_per_block.instructions);
        // Pair-rate gains only ever come with a moved instruction.
        if r.sched_moved_baseline == 0 {
            assert_eq!(r.sched_baseline_per_block, r.baseline_per_block, "{}", r.kernel);
        }
    }

    let parsed = SweepReport::from_json(&report.to_json()).unwrap();
    for (p, c) in parsed.cells.iter().zip(&report.cells) {
        assert_eq!(p.record.sched_baseline_per_block, c.record.sched_baseline_per_block);
        assert_eq!(p.record.sched_spu_total, c.record.sched_spu_total);
        assert_eq!(p.record.sched_moved_baseline, c.record.sched_moved_baseline);
        assert_eq!(p.record.sched_moved_spu, c.record.sched_moved_spu);
    }
}

/// (g) Scheduling is measured beside the unscheduled variants, never in
/// place of them: with `measure_scheduled` on or off, a sweep reports
/// the same `baseline_*` and `spu_*` columns. `all` reads Table 2's
/// default-penalty column from a scheduled report on this basis.
#[test]
fn measure_scheduled_leaves_the_unscheduled_columns_alone() {
    let mut cfg = SweepConfig::paper(&[SHAPE_A]);
    cfg.entries.retain(|e| ["DCT", "Matrix Transpose"].contains(&e.kernel.name()));
    let scheduled = run_sweep(&cfg, None).unwrap();
    cfg.measure_scheduled = false;
    let unscheduled = run_sweep(&cfg, None).unwrap();

    assert_eq!(scheduled.cells.len(), 2);
    for (s, u) in scheduled.cells.iter().zip(&unscheduled.cells) {
        let (s, u) = (&s.record, &u.record);
        assert_eq!(s.kernel, u.kernel);
        // The scheduler moved something, so the two sweeps did differ.
        assert_ne!(s.sched_baseline_per_block, s.baseline_per_block, "{}", s.kernel);
        assert_eq!(s.baseline_per_block, u.baseline_per_block, "{}", s.kernel);
        assert_eq!(s.baseline_total, u.baseline_total, "{}", s.kernel);
        assert_eq!(s.spu_per_block, u.spu_per_block, "{}", s.kernel);
        assert_eq!(s.spu_total, u.spu_total, "{}", s.kernel);
    }
}

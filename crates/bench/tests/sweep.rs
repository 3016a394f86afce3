//! Integration tests of the sweep orchestration layer: the compiled-
//! program cache must be invisible to results, the job matrix must equal
//! independent per-shape suite runs, and reports must survive JSON.

use subword_bench::run_suite;
use subword_bench::sweep::{
    run_sweep, run_sweep_with_cache, CacheStats, CompileCache, SweepConfig, SweepReport,
};
use subword_kernels::framework::{measure, Kernel, KernelBuild, MeasureOpts};
use subword_kernels::suite::{dotprod_example, paper_suite, Family, SuiteEntry};
use subword_spu::crossbar::CANONICAL_SHAPES;
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

            // And a *second* cached measurement (all artifact replays,
            // zero fresh analyses) still agrees.
            let replayed = measure_under(&cached_opts);
            assert_eq!(uncached, replayed, "{key} replay under shape {}", shape.name);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, entries.len() as u64, "one analysis per kernel");
        assert_eq!(stats.stale_fallbacks, 0);
        // Four lifts per kernel (2 measurements x 2 block counts), one
        // of which was the analysis.
        assert_eq!(stats.hits, 3 * entries.len() as u64);
    }
}

/// (b) One 4-shape sweep equals four independent `run_suite` calls, and
/// compiles exactly once per (kernel, shape).
#[test]
fn four_shape_sweep_equals_independent_suite_runs() {
    let run = run_sweep(&SweepConfig::paper(&CANONICAL_SHAPES)).unwrap();
    let kernels = paper_suite().len();

    assert_eq!(run.report.cells.len(), kernels * CANONICAL_SHAPES.len());
    assert_eq!(
        run.report.cache,
        CacheStats {
            misses: (kernels * CANONICAL_SHAPES.len()) as u64,
            hits: (kernels * CANONICAL_SHAPES.len()) as u64,
            stale_fallbacks: 0,
        },
        "exactly one compilation per (kernel, shape), one replay for the second block count"
    );

    for shape in CANONICAL_SHAPES {
        let suite = run_suite(&shape);
        let swept = run.report.for_shape(shape.name);
        assert_eq!(suite.len(), swept.len());
        for (independent, cell) in suite.iter().zip(swept) {
            assert_eq!(independent.name, cell.kernel());
            assert_eq!(
                independent.record(),
                cell.record,
                "{} under shape {}",
                cell.kernel(),
                shape.name
            );
        }
    }
}

/// (c) `SweepReport` JSON round-trips losslessly.
#[test]
fn sweep_report_round_trips_through_json() {
    let mut cfg = SweepConfig::full(&[SHAPE_A, SHAPE_D]);
    cfg.entries.truncate(3);
    cfg.block_scales = vec![1, 2];
    let run = run_sweep(&cfg).unwrap();

    let json = run.report.to_json();
    let parsed = SweepReport::from_json(&json).unwrap();
    assert_eq!(parsed, run.report);
    // `HostNanos` is equality-exempt, so check the wall-clock values
    // round-tripped exactly by hand.
    assert_eq!(parsed.wall_nanos.0, run.report.wall_nanos.0);
    for (p, c) in parsed.cells.iter().zip(&run.report.cells) {
        assert_eq!(p.record.wall_nanos.0, c.record.wall_nanos.0);
    }

    // Throughput accounting: the sweep simulated real work in measurable
    // host time, and the in-simulator time is bounded by the whole pass.
    assert!(run.report.total_sim_instructions() > 0);
    assert!(run.report.wall_nanos.0 > 0);
    let in_sim: u64 = run.report.cells.iter().map(|c| c.record.wall_nanos.0).sum();
    assert!(in_sim > 0, "per-cell wall clocks must be populated");
    assert!(run.report.sim_ips().is_finite() && run.report.sim_ips() > 0.0);

    // The second scale reuses every compiled artifact.
    assert_eq!(run.report.cache.misses, (cfg.entries.len() * 2) as u64);
    assert_eq!(run.report.cache.hits, 3 * (cfg.entries.len() * 2) as u64);

    // Steady-state per-block cycles are scale-invariant: the same kernel
    // measured at 2x the block count reports the same per-block cost.
    for cell in run.report.cells.iter().filter(|c| c.scale == 1) {
        let scaled = run
            .report
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
    for c in &run.report.cells {
        assert!(!c.record.cached.0, "{}: no store attached, nothing is cached", c.kernel());
    }
    for (p, c) in parsed.cells.iter().zip(&run.report.cells) {
        assert_eq!(p.record.cached.0, c.record.cached.0);
    }
    let flipped = json.replace("\"cached\": false", "\"cached\": true");
    let parsed_flipped = SweepReport::from_json(&flipped).unwrap();
    assert!(parsed_flipped.cells.iter().all(|c| c.record.cached.0));

    // The schema-v6 `pipeline` column: a default-config sweep times
    // every cell on the in-order model, and the column round-trips.
    for (p, c) in parsed.cells.iter().zip(&run.report.cells) {
        assert_eq!(c.pipeline, "in-order", "{}", c.kernel());
        assert_eq!(p.pipeline, c.pipeline);
    }

    // Corrupted documents are rejected, not mis-parsed.
    assert!(SweepReport::from_json("{}").is_err());
    assert!(SweepReport::from_json(&json.replace("subword-sweep/v6", "v0")).is_err());
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
    let run = run_sweep(&cfg).unwrap();
    for c in &run.report.cells {
        assert_eq!(c.record.family, Family::Pixel, "{}", c.record.kernel);
    }
    let parsed = SweepReport::from_json(&run.report.to_json()).unwrap();
    for (p, c) in parsed.cells.iter().zip(&run.report.cells) {
        assert_eq!(p.record.family, c.record.family);
    }
    // A family name the parser does not know is rejected.
    let broken = run.report.to_json().replace("\"pixel\"", "\"voxel\"");
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
/// message, and the worker pool keeps draining the remaining jobs
/// (proved by the cache compiling the kernel queued *after* the
/// panicking one on a single worker thread).
#[test]
fn a_panicking_kernel_costs_one_cell_not_the_pool() {
    let mut cfg = SweepConfig::paper(&[SHAPE_A]);
    cfg.entries =
        vec![SuiteEntry { kernel: &PANICKER, blocks_small: 1, blocks_large: 2 }, dotprod_example()];
    cfg.threads = Some(1);

    let cache = CompileCache::new();
    let Err(err) = run_sweep_with_cache(&cfg, &cache) else {
        panic!("a panicking cell must surface as a sweep error");
    };
    assert!(err.contains("Panicker/shape A"), "error must name the failing cell: {err}");
    assert!(err.contains("panicked: deliberate test panic in build"), "{err}");

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "the kernel after the panic must still have compiled");
    assert_eq!(stats.stale_fallbacks, 0);
}

/// (d) The v3 scheduled columns hold the orchestration claims: the list
/// scheduler never costs a cycle on any cell, retires the same
/// instruction stream, raises the issued-pair rate on at least half the
/// kernels, and the new columns survive the JSON round trip.
#[test]
fn scheduled_columns_hold_the_orchestration_claims() {
    let run = run_sweep(&SweepConfig::full(&[SHAPE_A])).unwrap();
    let report = &run.report;

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

//! Runs the kernel × crossbar-shape job matrix — by default every
//! family (Figure 9's eight signal kernels, the four pixel/video
//! kernels, plus the Figure 5 dot-product) under each Table 1 shape A–D
//! — in one parallel pass, and emits the resulting [`SweepReport`] as
//! JSON: to `out.json` when given, otherwise on stdout, which then
//! carries the report and nothing else. Progress, the scheduling
//! report, the store counters and the baseline verdicts go to stderr.
//!
//! ```text
//! sweep [--family paper|pixel|all] [--pipeline inorder|ooo] [--cache-dir DIR]
//!       [--check-baseline FILE [--diff-out FILE]] [--write-baseline FILE] [out.json]
//!
//! cargo run --release -p subword-bench --bin sweep                  # JSON to stdout
//! cargo run --release -p subword-bench --bin sweep -- --family pixel out.json
//! cargo run --release -p subword-bench --bin sweep -- --cache-dir .sweep-store \
//!     --check-baseline BENCH_cycles.json --diff-out diff.txt out.json
//! cargo run --release -p subword-bench --bin sweep -- --pipeline ooo \
//!     --check-baseline BENCH_cycles_ooo.json
//! cargo run --release -p subword-bench --bin sweep -- --write-baseline BENCH_cycles.json
//! ```
//!
//! `--family paper|pixel|all` restricts the sweep to one kernel family
//! (default `all`).
//!
//! `--pipeline inorder|ooo` selects the pipeline model (DESIGN.md §14;
//! default `inorder`). An out-of-order sweep answers the sensitivity
//! question — does SPU lifting still pay once the core extracts its own
//! ILP? The scheduling gate below is defined on the in-order model only
//! and is skipped under `--pipeline ooo`; the cycles baseline gates
//! either model, each against its own file (`BENCH_cycles.json`,
//! `BENCH_cycles_ooo.json`).
//!
//! `--cache-dir DIR` attaches the persistent content-addressed
//! measurement store (DESIGN.md §13): cells whose content hash — kernel
//! body bytes, test setup, goldens, crossbar shape, machine config,
//! block scale, variant set, pipeline version — already has a valid
//! entry under `DIR` are replayed from disk (flagged `"cached": true`
//! in the report) instead of re-simulated; everything fresh is written
//! back. The run's store counters go to stderr as one
//! `cache-stats: hits=… misses=… invalidated=…` line (CI greps it into
//! the step summary).
//!
//! `--check-baseline FILE` compares the report's deterministic
//! per-block simulated cycles against a committed baseline and exits
//! non-zero on any regression or coverage change — the gating CI step
//! (wall-clock MIPS stays informational; simulated cycles are
//! bit-deterministic). The failure message keeps the two classes apart:
//! a *cycle regression* means the code got slower, a *coverage change*
//! means cells appeared or disappeared — or the report was timed on the
//! other pipeline model — and the baseline needs a deliberate refresh.
//! With a warm `--cache-dir`, only changed cells are re-simulated before
//! the gate. `--diff-out FILE` writes the full diff summary
//! (improvements, regressions, coverage changes; pass or fail).
//!
//! `--write-baseline FILE` writes the report's cycles as a baseline
//! (after the check, when both are given) — the refresh step.
//!
//! The process asserts the sweep's invariants before emitting anything:
//!
//! * the lifting pass ran **exactly once per freshly measured (kernel,
//!   shape)**: the second block count reused the first one's lift, which
//!   only holds while kernels keep the block count out of their programs
//!   (a kernel that writes it back lifts twice), and store-replayed
//!   cells compile nothing at all. Every measured cell lifts, although
//!   the shapes that lift a kernel alike share one simulated run;
//! * the list scheduler never *costs* cycles: on every cell, both the
//!   scheduled MMX-only and scheduled MMX+SPU variants finish in at
//!   most the unscheduled cycle count;
//! * scheduling pays somewhere: at least half the swept kernels
//!   dual-issue at a strictly higher rate once scheduled.

use subword_bench::baseline::CyclesBaseline;
use subword_bench::store::MeasurementStore;
use subword_bench::sweep::{run_sweep, SweepConfig, SweepReport};
use subword_bench::Table;
use subword_kernels::suite::Family;
use subword_sim::PipelineKind;
use subword_spu::crossbar::CANONICAL_SHAPES;

const USAGE: &str = "usage: sweep [--family paper|pixel|all] [--pipeline inorder|ooo] \
                     [--cache-dir DIR] [--check-baseline FILE] [--diff-out FILE] \
                     [--write-baseline FILE] [out.json]";

/// Print `error: {msg}` and exit with `code` (2 for usage errors, 1 for
/// everything else).
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

fn write_file(path: &str, contents: String) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(1, &format!("write {path}: {e}")));
}

/// The per-kernel scheduling report: cycles and issued-pair rate,
/// scheduled vs. unscheduled, for both variants of every cell at the
/// report's first block scale.
fn sched_table(report: &SweepReport) -> String {
    let mut t = Table::new(&[
        "kernel", "family", "shape", "mmx cyc", "sched", "d%", "pair%", "sched%", "spu cyc",
        "sched", "d%", "pair%", "sched%", "moved",
    ]);
    let pct = |v: f64| format!("{:.1}", 100.0 * v);
    let delta = |unsched: u64, sched: u64| {
        format!("{:+.1}", 100.0 * (sched as f64 - unsched as f64) / unsched.max(1) as f64)
    };
    let first_scale = report.first_scale();
    for c in report.cells.iter().filter(|c| c.scale == first_scale) {
        let r = &c.record;
        t.row(vec![
            r.kernel.clone(),
            r.family.name().to_string(),
            c.shape.clone(),
            r.baseline_per_block.cycles.to_string(),
            r.sched_baseline_per_block.cycles.to_string(),
            delta(r.baseline_per_block.cycles, r.sched_baseline_per_block.cycles),
            pct(r.baseline_per_block.pair_rate()),
            pct(r.sched_baseline_per_block.pair_rate()),
            r.spu_per_block.cycles.to_string(),
            r.sched_spu_per_block.cycles.to_string(),
            delta(r.spu_per_block.cycles, r.sched_spu_per_block.cycles),
            pct(r.spu_per_block.pair_rate()),
            pct(r.sched_spu_per_block.pair_rate()),
            format!("{}/{}", r.sched_moved_baseline, r.sched_moved_spu),
        ]);
    }
    t.render()
}

/// The cycles-baseline gate: load the committed baseline, optionally
/// write the full diff summary, and exit non-zero on any regression or
/// coverage change.
fn check_baseline(base_path: &str, report: &SweepReport, diff_path: Option<&str>) {
    let text = std::fs::read_to_string(base_path)
        .unwrap_or_else(|e| fail(1, &format!("read {base_path}: {e}")));
    let base = CyclesBaseline::from_json(&text)
        .unwrap_or_else(|e| fail(1, &format!("parse {base_path}: {e}")));
    if let Some(path) = diff_path {
        write_file(path, base.diff_summary(report));
        eprintln!("cycles baseline diff written to {path}");
    }
    match base.check(report) {
        Ok(summary) => {
            eprintln!(
                "cycles baseline ok: {} cells match {base_path} ({} improved)",
                summary.cells,
                summary.improvements.len()
            );
            for note in &summary.improvements {
                eprintln!("  note: {note}");
            }
            if !summary.improvements.is_empty() {
                eprintln!(
                    "  (baseline is stale on the cheap side — refresh it by re-running this \
                     sweep with `--write-baseline {base_path}`)"
                );
            }
        }
        Err(failure) => {
            fail(1, &format!("cycles baseline check against {base_path} failed:\n{failure}"))
        }
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut family: Option<Family> = None;
    let mut pipeline = PipelineKind::InOrder;
    let mut cache_dir: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut diff_out: Option<String> = None;
    let mut write_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| fail(2, &format!("`{a}` needs a value\n{USAGE}")));
        match a.as_str() {
            "--family" => {
                let name = value();
                if name != "all" {
                    family = Some(Family::from_name(&name).unwrap_or_else(|| {
                        fail(2, &format!("unknown family `{name}` (paper|pixel|all)"))
                    }));
                }
            }
            "--pipeline" => {
                let name = value();
                pipeline = PipelineKind::from_name(&name).unwrap_or_else(|| {
                    fail(2, &format!("unknown pipeline model `{name}` (inorder|ooo)"))
                });
            }
            "--cache-dir" => cache_dir = Some(value()),
            "--check-baseline" => check_path = Some(value()),
            "--diff-out" => diff_out = Some(value()),
            "--write-baseline" => write_path = Some(value()),
            other if other.starts_with('-') => fail(2, &format!("unknown flag `{other}`\n{USAGE}")),
            other => {
                if let Some(prev) = &out_path {
                    fail(2, &format!("two output paths given (`{prev}` and `{other}`)"));
                }
                out_path = Some(other.to_string());
            }
        }
    }
    if diff_out.is_some() && check_path.is_none() {
        fail(2, &format!("`--diff-out` only makes sense with `--check-baseline`\n{USAGE}"));
    }

    let mut cfg = match family {
        Some(f) => SweepConfig::family(f, &CANONICAL_SHAPES),
        None => SweepConfig::full_matrix(),
    };
    cfg.base.pipeline = pipeline;
    let kernels = cfg.entries.len();
    let shapes = cfg.shapes.len();
    eprintln!(
        "sweep: {kernels} kernels x {shapes} shapes x {} scale(s) = {} measurements \
         on the {} pipeline model",
        cfg.block_scales.len(),
        kernels * shapes * cfg.block_scales.len(),
        pipeline.name(),
    );

    let store = cache_dir.as_ref().map(|dir| {
        MeasurementStore::open(std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(1, &format!("open measurement store {dir}: {e}")))
    });
    let report = run_sweep(&cfg, store.as_ref()).unwrap_or_else(|e| panic!("sweep failed: {e}"));
    let stats = report.cache;
    eprintln!(
        "sweep: done in {:.2}ms; compile cache: {} lifts, {} reused",
        report.wall_nanos.0 as f64 / 1e6,
        stats.misses,
        stats.hits,
    );
    // Both models run on the chosen engine. Under the ooo model the
    // threaded engine replays memoised region timings, and the decoded
    // and reference engines time every instruction (DESIGN.md §14).
    let ran_on = format!("{} pipeline model, {:?} engine", pipeline.name(), cfg.base.engine);
    let fresh = report.cells.iter().filter(|c| !c.record.cached.0).count();
    match report.sim_ips() {
        Some(ips) => eprintln!(
            "sweep: {fresh} simulated cells count {} instructions at {:.2} MIPS on the {ran_on} \
             (a cell counts its eight checked runs, those it shares with its kernel's other \
             shapes included; checked-run time: set-up, simulation, output capture and golden \
             check, summed over workers; store-replayed cells excluded)",
            report.total_sim_instructions(),
            ips / 1e6,
        ),
        None => eprintln!(
            "sweep: {fresh} simulated cells count 0 instructions (store-replayed cells excluded)"
        ),
    }
    if let Some(store) = &store {
        let s = store.stats();
        eprintln!("cache-stats: hits={} misses={} invalidated={}", s.hits, s.misses, s.invalidated);
        assert_eq!(
            s.hits + s.misses + s.invalidated,
            report.cells.len() as u64,
            "every cell is either store-replayed or freshly simulated"
        );
    }
    eprintln!("\nscheduling report (per-block, scheduled vs. unscheduled):");
    eprintln!("{}", sched_table(&report));

    // One compilation per freshly measured (kernel, shape): a kernel's
    // two block counts build one program, so the second lift reuses the
    // first — and store-replayed cells compile nothing, so on a fully
    // warm store this is zero. A kernel whose program depends on its
    // block count lifts twice and fails here.
    let fresh_pairs: std::collections::BTreeSet<(&str, &str)> = report
        .cells
        .iter()
        .filter(|c| !c.record.cached.0)
        .map(|c| (c.kernel(), c.shape.as_str()))
        .collect();
    assert_eq!(
        stats.misses as usize,
        fresh_pairs.len(),
        "expected exactly one compilation per freshly simulated (kernel, shape)"
    );
    assert_eq!(report.cells.len(), kernels * shapes * cfg.block_scales.len());

    // The scheduler's contract: never slower, usually better paired.
    // Defined on the in-order model only — on the out-of-order model
    // the core reorders by itself (DESIGN.md §14).
    if pipeline == PipelineKind::InOrder {
        if let Err(e) = report.check_sched_invariants() {
            panic!("scheduling invariant violated: {e}");
        }
    } else {
        eprintln!("sweep: scheduling gate skipped (contract is defined on the in-order model)");
    }

    let json = report.to_json();
    // Self-check: the emitted document parses back to the same report.
    let parsed = SweepReport::from_json(&json).expect("emitted JSON re-parses");
    assert_eq!(parsed, report, "JSON round trip must be lossless");

    match &out_path {
        Some(path) => {
            write_file(path, json);
            eprintln!("sweep: report written to {path}");
        }
        None => println!("{json}"),
    }

    if let Some(base_path) = &check_path {
        check_baseline(base_path, &report, diff_out.as_deref());
    }
    if let Some(path) = &write_path {
        let base = CyclesBaseline::from_report(&report);
        write_file(path, base.to_json());
        eprintln!("cycles baseline written to {path} ({} cells)", base.cells.len());
    }
}

//! Runs the kernel × crossbar-shape job matrix — by default every
//! family (Figure 9's eight signal kernels, the four pixel/video
//! kernels, plus the Figure 5 dot-product) under each Table 1 shape A–D
//! — in one parallel pass, and emits the resulting [`SweepReport`] as
//! JSON on stdout (progress, the cache summary and the scheduling
//! report go to stderr).
//!
//! ```text
//! cargo run --release -p subword-bench --bin sweep                  # JSON to stdout
//! cargo run --release -p subword-bench --bin sweep -- out.json
//! cargo run --release -p subword-bench --bin sweep -- --family pixel out.json
//! cargo run --release -p subword-bench --bin sweep -- --cache-dir .sweep-store --cache-stats out.json
//! cargo run --release -p subword-bench --bin sweep -- --cache-dir .sweep-store \
//!     --check-baseline BENCH_cycles.json --diff-out diff.txt out.json
//! cargo run --release -p subword-bench --bin sweep -- --table out.json
//! cargo run --release -p subword-bench --bin sweep -- --check-baseline BENCH_cycles.json out.json diff.txt
//! cargo run --release -p subword-bench --bin sweep -- --write-baseline BENCH_cycles.json out.json
//! ```
//!
//! `--family paper|pixel|all` restricts the sweep to one kernel family
//! (default `all`). `--table` re-prints the per-kernel scheduling report
//! (cycles and issued-pair rate, scheduled vs. unscheduled, per variant)
//! from an existing report file without re-running the sweep — the CI
//! scheduling-report step uses it on the job's own sweep artifact.
//!
//! `--pipeline inorder|ooo` selects the pipeline model (DESIGN.md §14;
//! default `inorder`). An out-of-order sweep answers the sensitivity
//! question — does SPU lifting still pay once the core extracts its own
//! ILP? — and is **never gated**: the scheduling contract and the
//! committed `BENCH_cycles.json` baseline are both defined on the
//! in-order model, so the scheduling gate is skipped and
//! `--check-baseline` is rejected under `--pipeline ooo`.
//!
//! `--cache-dir DIR` attaches the persistent content-addressed
//! measurement store (DESIGN.md §13): cells whose content hash — kernel
//! body bytes, test setup, goldens, crossbar shape, machine config,
//! block scale, variant set, pipeline version — already has a valid
//! entry under `DIR` are replayed from disk (flagged `"cached": true`
//! in the report) instead of re-simulated; everything fresh is written
//! back. `--cache-stats` prints the run's `hits`/`misses`/`invalidated`
//! store counters on stdout (CI greps the line into the step summary).
//!
//! `--check-baseline` compares a report's deterministic per-block
//! simulated cycles against the committed `BENCH_cycles.json` and exits
//! non-zero on any regression or coverage change — the gating CI step
//! (wall-clock MIPS stays informational; simulated cycles are
//! bit-deterministic). The failure message keeps the two classes apart:
//! a *cycle regression* means the code got slower, a *coverage change*
//! means cells appeared or disappeared and the baseline needs a
//! deliberate refresh. Two forms:
//!
//! * **offline** (flag first): `sweep --check-baseline <baseline>
//!   <report> [diff.txt]` gates an existing report file; the optional
//!   third operand writes the full diff summary to a file.
//! * **composed** (flag after sweep options): `--check-baseline
//!   <baseline>` gates the report the sweep just produced, in the same
//!   process — with `--cache-dir`, a warm run re-simulates only changed
//!   cells before gating. `--diff-out <file>` writes the diff summary.
//!
//! `--write-baseline` regenerates the committed file from a report.
//!
//! The process asserts the sweep's invariants before emitting anything:
//!
//! * the lifting pass ran **exactly once per freshly simulated (kernel,
//!   shape)**: the second block count reused the first one's lift, which
//!   only holds while kernels keep the block count out of their programs
//!   (a kernel that writes it back lifts twice), and store-replayed
//!   cells compile nothing at all;
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

fn load_report(path: &str) -> SweepReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: read {path}: {e}");
        std::process::exit(1);
    });
    SweepReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: parse {path}: {e}");
        std::process::exit(1);
    })
}

/// The cycles-baseline gate, shared by the offline and composed forms:
/// load the committed baseline, optionally write the full diff summary,
/// and exit non-zero on any regression or coverage change.
/// `report_name` is only used in the refresh hint.
fn check_baseline(
    base_path: &str,
    report: &SweepReport,
    diff_path: Option<&str>,
    report_name: &str,
) {
    let text = std::fs::read_to_string(base_path).unwrap_or_else(|e| {
        eprintln!("error: read {base_path}: {e}");
        std::process::exit(1);
    });
    let base = CyclesBaseline::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: parse {base_path}: {e}");
        std::process::exit(1);
    });
    if let Some(path) = diff_path {
        std::fs::write(path, base.diff_summary(report)).unwrap_or_else(|e| {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("cycles baseline diff written to {path}");
    }
    match base.check(report) {
        Ok(summary) => {
            println!(
                "cycles baseline ok: {} cells match {base_path} ({} improved)",
                summary.cells,
                summary.improvements.len()
            );
            for note in &summary.improvements {
                println!("  note: {note}");
            }
            if !summary.improvements.is_empty() {
                println!(
                    "  (baseline is stale on the cheap side — refresh with \
                     `sweep --write-baseline {base_path} {report_name}`)"
                );
            }
        }
        Err(failure) => {
            eprintln!("error: cycles baseline check against {base_path} failed:\n{failure}");
            std::process::exit(1);
        }
    }
}

/// Match one of the offline modes: `sweep <flag> <a> <b>` with the flag
/// leading and exactly two operands — anything else (flag buried after
/// other arguments, missing or extra operands) is a usage error rather
/// than a silently dropped argument.
fn arg_after(args: &[String], flag: &str, usage: &str) -> Option<(String, String)> {
    if !args.iter().any(|a| a == flag) {
        return None;
    }
    match args {
        [_, f, a, b] if f == flag => Some((a.clone(), b.clone())),
        _ => {
            eprintln!("usage: {usage}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // `--table <file>`: report on an existing sweep artifact and exit.
    if args.iter().any(|a| a == "--table") {
        let [_, f, path] = args.as_slice() else {
            eprintln!("usage: sweep --table <report.json>");
            std::process::exit(2);
        };
        if f != "--table" {
            eprintln!("usage: sweep --table <report.json>");
            std::process::exit(2);
        }
        let report = load_report(path);
        println!("scheduling report ({path}):");
        println!("{}", sched_table(&report));
        if report.cells.iter().any(|c| c.pipeline != "in-order") {
            // The table is still informative (that is the experiment),
            // but the contract is only defined in-order — don't gate.
            println!(
                "scheduling invariants not gated: report was measured on an \
                 out-of-order pipeline model"
            );
            return;
        }
        match report.check_sched_invariants() {
            Ok(()) => println!("scheduling invariants hold: no cell costs cycles, pair rate up"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Offline `--check-baseline <baseline> <report> [diff-out.txt]`
    // (flag **first**): the deterministic cycles gate over an existing
    // sweep artifact. The optional third operand writes the full diff
    // summary (improvements, regressions, coverage changes — pass or
    // fail) to a file, which CI uploads as the review artifact for
    // baseline refreshes. A `--check-baseline` appearing after other
    // arguments is the composed sweep-mode form handled below.
    if args.get(1).is_some_and(|a| a == "--check-baseline") {
        let usage = "sweep --check-baseline <BENCH_cycles.json> <report.json> [diff-out.txt]";
        let (base_path, report_path, diff_path) = match args.as_slice() {
            [_, f, a, b] if f == "--check-baseline" => (a.clone(), b.clone(), None),
            [_, f, a, b, d] if f == "--check-baseline" => (a.clone(), b.clone(), Some(d.clone())),
            _ => {
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        };
        let report = load_report(&report_path);
        check_baseline(&base_path, &report, diff_path.as_deref(), &report_path);
        return;
    }

    // `--write-baseline <baseline> <report>`: regenerate the committed
    // cycles file from an existing sweep artifact.
    if let Some((base_path, report_path)) = arg_after(
        &args,
        "--write-baseline",
        "sweep --write-baseline <BENCH_cycles.json> <report.json>",
    ) {
        let report = load_report(&report_path);
        let base = CyclesBaseline::from_report(&report);
        std::fs::write(&base_path, base.to_json()).unwrap_or_else(|e| {
            eprintln!("error: write {base_path}: {e}");
            std::process::exit(1);
        });
        println!("cycles baseline written to {base_path} ({} cells)", base.cells.len());
        return;
    }

    // Remaining modes run a sweep: `[--family <name>] [--pipeline
    // <model>] [--cache-dir DIR] [--cache-stats] [--check-baseline FILE]
    // [--diff-out FILE] [out.json]`.
    let mut out_path: Option<String> = None;
    let mut family: Option<Family> = None;
    let mut pipeline = PipelineKind::InOrder;
    let mut cache_dir: Option<String> = None;
    let mut cache_stats = false;
    let mut baseline_path: Option<String> = None;
    let mut diff_out: Option<String> = None;
    let sweep_usage = "usage: sweep [--family paper|pixel|all] [--pipeline inorder|ooo] \
                       [--cache-dir DIR] [--cache-stats] \
                       [--check-baseline BENCH_cycles.json] [--diff-out diff.txt] [out.json]\n\
                              sweep --table <report.json>\n\
                              sweep --check-baseline <BENCH_cycles.json> <report.json> [diff.txt]\n\
                              sweep --write-baseline <BENCH_cycles.json> <report.json>";
    let mut it = args.iter().skip(1);
    let flag_value = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("error: `{flag}` needs a value\n{sweep_usage}");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--family" => {
                let name = flag_value(&mut it, "--family");
                if name != "all" {
                    family = Some(Family::from_name(&name).unwrap_or_else(|| {
                        eprintln!("error: unknown family `{name}` (paper|pixel|all)");
                        std::process::exit(2);
                    }));
                }
            }
            "--pipeline" => {
                let name = flag_value(&mut it, "--pipeline");
                pipeline = PipelineKind::from_name(&name).unwrap_or_else(|| {
                    eprintln!("error: unknown pipeline model `{name}` (inorder|ooo)");
                    std::process::exit(2);
                });
            }
            "--cache-dir" => cache_dir = Some(flag_value(&mut it, "--cache-dir")),
            "--cache-stats" => cache_stats = true,
            "--check-baseline" => baseline_path = Some(flag_value(&mut it, "--check-baseline")),
            "--diff-out" => diff_out = Some(flag_value(&mut it, "--diff-out")),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag `{other}`\n{sweep_usage}");
                std::process::exit(2);
            }
            other => {
                if let Some(prev) = &out_path {
                    eprintln!("error: two output paths given (`{prev}` and `{other}`)");
                    std::process::exit(2);
                }
                out_path = Some(other.to_string());
            }
        }
    }
    if diff_out.is_some() && baseline_path.is_none() {
        eprintln!("error: `--diff-out` only makes sense with `--check-baseline`\n{sweep_usage}");
        std::process::exit(2);
    }
    if baseline_path.is_some() && pipeline != PipelineKind::InOrder {
        eprintln!(
            "error: `--check-baseline` gates the in-order model only; an out-of-order \
             report cannot be compared against the committed in-order cycles baseline"
        );
        std::process::exit(2);
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
        MeasurementStore::open(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: open measurement store {dir}: {e}");
            std::process::exit(1);
        })
    });
    let run = run_sweep(&cfg, store.as_ref()).unwrap_or_else(|e| panic!("sweep failed: {e}"));
    let report: &SweepReport = &run.report;
    let stats = report.cache;
    eprintln!(
        "sweep: done in {:.2}ms; compile cache: {} lifts, {} reused",
        report.wall_nanos.0 as f64 / 1e6,
        stats.misses,
        stats.hits,
    );
    eprintln!(
        "sweep: simulated {} instructions at {:.2} MIPS on the {:?} engine \
         (in-simulator time, summed over workers; store-replayed cells excluded)",
        report.total_sim_instructions(),
        report.sim_ips() / 1e6,
        cfg.base.engine,
    );
    if store.is_some() {
        eprintln!(
            "sweep: measurement store: {} replayed, {} simulated, {} invalidated",
            run.store.hits, run.store.misses, run.store.invalidated,
        );
    }
    if cache_stats {
        // Machine-greppable (CI lifts it into the step summary).
        println!(
            "cache-stats: hits={} misses={} invalidated={}",
            run.store.hits, run.store.misses, run.store.invalidated
        );
    }
    eprintln!("\nscheduling report (per-block, scheduled vs. unscheduled):");
    eprintln!("{}", sched_table(report));

    // One compilation per freshly simulated (kernel, shape): a kernel's
    // two block counts build one program, so the second lift reuses the
    // first — and store-replayed cells compile nothing, so on a fully
    // warm store this is zero. A kernel whose program depends on its
    // block count lifts twice and fails here.
    let fresh_pairs: std::collections::BTreeSet<(&str, &str)> =
        run.measurements.iter().map(|m| (m.kernel, m.shape.name)).collect();
    assert_eq!(
        stats.misses as usize,
        fresh_pairs.len(),
        "expected exactly one compilation per freshly simulated (kernel, shape)"
    );
    assert_eq!(report.cells.len(), kernels * shapes * cfg.block_scales.len());
    assert_eq!(
        run.store.hits + run.store.misses,
        if store.is_some() { report.cells.len() as u64 } else { 0 },
        "every cell is either store-replayed or freshly simulated"
    );

    // The scheduler's contract: never slower, usually better paired.
    // Defined on the in-order model only — an out-of-order sweep is a
    // sensitivity experiment, not a gate (DESIGN.md §14).
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
    assert_eq!(&parsed, report, "JSON round trip must be lossless");

    match &out_path {
        Some(path) => {
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("sweep: report written to {path}");
        }
        None => println!("{json}"),
    }

    // Composed gate: check the report this run just produced. With a
    // warm `--cache-dir` only changed cells were re-simulated above, so
    // this is the incremental form of the CI cycles gate.
    if let Some(base_path) = &baseline_path {
        let report_name = out_path.as_deref().unwrap_or("<report.json>");
        check_baseline(base_path, report, diff_out.as_deref(), report_name);
    }
}

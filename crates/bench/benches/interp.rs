//! Interpreter-throughput micro-benchmark over the kernel suite.
//!
//! Runs every suite kernel (baseline MMX program and the SPU-lifted
//! variant under shape D) through **all three** execution engines — the
//! allocating `Vec<RegRef>` reference path, the predecoded mask-based
//! stepper, and the trace-translated threaded engine — timing only the
//! interpreter itself (machine construction and state initialisation are
//! outside the clock). Each row reports dynamic instructions, the
//! best-of-N wall time per engine, simulated MIPS, and the threaded/
//! decoded speedup; the engines' `SimStats` are also asserted equal, so
//! the benchmark doubles as a smoke differential.
//!
//! ```text
//! cargo bench -p subword-bench --bench interp                      # table only
//! cargo bench -p subword-bench --bench interp -- --save BENCH_sim.json
//! cargo bench -p subword-bench --bench interp -- --baseline BENCH_sim.json
//! ```
//!
//! `--save` writes the machine-readable baseline committed at the repo
//! root; `--baseline` loads such a file and prints current-vs-baseline
//! deltas. A missing, unreadable or schema-mismatched baseline file is a
//! **hard error** (non-zero exit) — and so is a baseline row that lacks
//! any engine's timing column (a comparison that silently skips an
//! engine reads as "no regression" in a CI log). The CI throughput step
//! stays non-gating via `continue-on-error`, not by swallowing errors
//! here.

use std::time::Instant;
use subword_bench::json::Json;
use subword_compile::lift_permutes;
use subword_compile::verify::ENGINES;
use subword_isa::program::Program;
use subword_kernels::framework::KernelBuild;
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::{ExecEngine, Machine, MachineConfig, SimStats};
use subword_spu::SHAPE_D;

const REPS: usize = 5;

/// The JSON column of one engine's best-of-N nanos (`reference_nanos`,
/// …); a benchmark row (and a baseline row) covers every engine.
fn column(engine: ExecEngine) -> String {
    format!("{engine:?}_nanos").to_lowercase()
}

struct Row {
    kernel: &'static str,
    variant: &'static str,
    instructions: u64,
    /// Best-of-N wall nanos, indexed like [`ENGINES`].
    nanos: [u64; 3],
}

impl Row {
    fn mips_of(&self, engine_idx: usize) -> f64 {
        mips(self.instructions, self.nanos[engine_idx])
    }

    /// Threaded speedup over the decoded stepper.
    fn speedup(&self) -> f64 {
        self.nanos[1] as f64 / self.nanos[2].max(1) as f64
    }
}

/// Best-of-N interpreter wall time for one build on one engine; returns
/// the stats of the last run for cross-engine comparison.
fn time_engine(build: &KernelBuild, cfg: &MachineConfig, engine: ExecEngine) -> (u64, SimStats) {
    let mut best = u64::MAX;
    let mut stats = SimStats::default();
    for _ in 0..REPS {
        let mut m = Machine::new(MachineConfig { engine, ..cfg.clone() });
        for (addr, bytes) in &build.setup.mem_init {
            m.mem.write_bytes(*addr, bytes).expect("init in bounds");
        }
        for (r, v) in &build.setup.reg_init {
            m.regs.write_gp(*r, *v);
        }
        for (r, v) in &build.setup.mm_init {
            m.regs.write_mm(*r, *v);
        }
        let t = Instant::now();
        stats = m.run(&build.program).expect("kernel runs");
        best = best.min(t.elapsed().as_nanos() as u64);
        build.check(&m, "bench").expect("golden outputs");
    }
    (best, stats)
}

fn bench_build(
    kernel: &'static str,
    variant: &'static str,
    build: &KernelBuild,
    cfg: &MachineConfig,
) -> Row {
    let mut nanos = [0u64; 3];
    let mut stats = [SimStats::default(); 3];
    for (k, engine) in ENGINES.into_iter().enumerate() {
        (nanos[k], stats[k]) = time_engine(build, cfg, engine);
    }
    assert_eq!(stats[0], stats[1], "decoded diverges from reference on {kernel}/{variant}");
    assert_eq!(stats[0], stats[2], "threaded diverges from reference on {kernel}/{variant}");
    Row { kernel, variant, instructions: stats[0].instructions, nanos }
}

fn suite_rows() -> Vec<Row> {
    let mut entries = all_suites();
    entries.push(dotprod_example());
    let mut rows = Vec::new();
    for e in &entries {
        let name = e.kernel.name();
        let base = e.kernel.build(e.blocks_large);
        rows.push(bench_build(name, "mmx", &base, &MachineConfig::mmx_only()));

        let lifted: Program = lift_permutes(&base.program, &SHAPE_D)
            .unwrap_or_else(|err| panic!("{name}: {err}"))
            .program;
        let spu_build = KernelBuild {
            program: lifted,
            setup: base.setup.clone(),
            expected: base.expected.clone(),
        };
        rows.push(bench_build(name, "spu", &spu_build, &MachineConfig::with_spu(SHAPE_D)));
    }
    rows
}

fn to_json(rows: &[Row]) -> Json {
    let (ti, tn) = totals(rows);
    let engine_fields = |nanos: &[u64; 3]| {
        ENGINES
            .iter()
            .enumerate()
            .map(|(k, engine)| (column(*engine), Json::UInt(nanos[k])))
            .collect::<Vec<_>>()
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str("subword-bench-sim/v2".into())),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("kernel".into(), Json::Str(r.kernel.into())),
                            ("variant".into(), Json::Str(r.variant.into())),
                            ("instructions".into(), Json::UInt(r.instructions)),
                        ];
                        fields.extend(engine_fields(&r.nanos));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "totals".into(),
            Json::Obj(
                std::iter::once(("instructions".into(), Json::UInt(ti)))
                    .chain(engine_fields(&tn))
                    .collect(),
            ),
        ),
    ])
}

fn totals(rows: &[Row]) -> (u64, [u64; 3]) {
    let mut tn = [0u64; 3];
    for r in rows {
        for (total, nanos) in tn.iter_mut().zip(r.nanos) {
            *total += nanos;
        }
    }
    (rows.iter().map(|r| r.instructions).sum(), tn)
}

fn mips(instructions: u64, nanos: u64) -> f64 {
    instructions as f64 / (nanos.max(1) as f64 / 1e9) / 1e6
}

/// Baseline per-engine MIPS per (kernel, variant) from a saved report.
/// Every row must carry **all** engine columns — missing engine coverage
/// is an error, not a skip.
fn baseline_mips(doc: &Json) -> Result<Vec<(String, [f64; 3])>, String> {
    let schema = doc.field("schema")?.as_str()?;
    if schema != "subword-bench-sim/v2" {
        return Err(format!(
            "unsupported schema `{schema}` (expected subword-bench-sim/v2; \
             regenerate with --save)"
        ));
    }
    let engine_mips = |obj: &Json, instructions: u64| -> Result<[f64; 3], String> {
        let mut out = [0f64; 3];
        for (k, engine) in ENGINES.into_iter().enumerate() {
            let nanos = obj
                .field(&column(engine))
                .map_err(|e| format!("missing engine coverage: {e}"))?
                .as_u64()?;
            out[k] = mips(instructions, nanos);
        }
        Ok(out)
    };
    let mut out = Vec::new();
    for row in doc.field("rows")?.as_arr()? {
        let key = format!("{}/{}", row.field("kernel")?.as_str()?, row.field("variant")?.as_str()?);
        let instructions = row.field("instructions")?.as_u64()?;
        out.push((key, engine_mips(row, instructions)?));
    }
    let t = doc.field("totals")?;
    out.push(("TOTAL".into(), engine_mips(t, t.field("instructions")?.as_u64()?)?));
    Ok(out)
}

/// Resolve a user-supplied path against the **workspace root** (cargo
/// runs benches with the package directory as cwd, but the committed
/// baseline lives at the repo root).
fn workspace_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        // crates/bench → two levels up is the workspace root.
        Some(dir) => std::path::Path::new(&dir).join("../..").join(p),
        None => p.to_path_buf(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `cargo bench` appends `--bench`; ignore flags we don't own.
    let value_of =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();

    let rows = suite_rows();
    println!(
        "{:<10} {:<4} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "kernel", "var", "instructions", "ref MIPS", "dec MIPS", "thr MIPS", "thr/dec"
    );
    for r in &rows {
        println!(
            "{:<10} {:<4} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x",
            r.kernel,
            r.variant,
            r.instructions,
            r.mips_of(0),
            r.mips_of(1),
            r.mips_of(2),
            r.speedup()
        );
    }
    let (ti, tn) = totals(&rows);
    println!(
        "{:<10} {:<4} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x",
        "TOTAL",
        "",
        ti,
        mips(ti, tn[0]),
        mips(ti, tn[1]),
        mips(ti, tn[2]),
        tn[1] as f64 / tn[2].max(1) as f64
    );

    if let Some(path) = value_of("--baseline") {
        match std::fs::read_to_string(workspace_path(&path))
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text))
            .and_then(|doc| baseline_mips(&doc))
        {
            Ok(base) => {
                println!("\nagainst baseline {path} (threaded MIPS, current / baseline):");
                let current: Vec<(String, f64)> = rows
                    .iter()
                    .map(|r| (format!("{}/{}", r.kernel, r.variant), r.mips_of(2)))
                    .chain([("TOTAL".to_string(), mips(ti, tn[2]))])
                    .collect();
                for (key, now) in &current {
                    match base.iter().find(|(k, _)| k == key) {
                        Some((_, then)) => println!(
                            "{key:<16} {now:>10.2} / {:<10.2} ({:+.1}%)",
                            then[2],
                            100.0 * (now - then[2]) / then[2].max(1e-9)
                        ),
                        None => println!("{key:<16} {now:>10.2} / (not in baseline)"),
                    }
                }
            }
            // A baseline that cannot be compared is a hard error: the
            // caller asked for a comparison, and "skipped" in a CI log
            // is indistinguishable from "no regression".
            Err(e) => {
                eprintln!("\nerror: baseline comparison against {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = value_of("--save") {
        let json = to_json(&rows).to_pretty();
        std::fs::write(workspace_path(&path), json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nbaseline written to {path}");
    }
}

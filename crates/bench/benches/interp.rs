//! Interpreter-throughput micro-benchmark over the kernel suite.
//!
//! Runs every suite kernel (baseline MMX program and the SPU-lifted
//! variant under shape D) through **all three** execution engines — the
//! allocating `Vec<RegRef>` reference path, the predecoded mask-based
//! stepper, and the record-and-replay threaded engine — and through the
//! out-of-order pipeline model twice: under the threaded engine, which
//! replays memoised region timings (`ooo`), and under the decoded
//! engine, which times every instruction (`ooo_stepped`). Only the
//! simulator itself is timed. Machine construction and state
//! initialisation, and the machine's drop, where its written memory is
//! re-zeroed, are outside the clock. Each row reports dynamic
//! instructions, the best-of-N wall time per column, simulated MIPS, the
//! threaded/decoded speedup and the share of the `ooo` run's
//! instructions whose timing was replayed; under the table, the TOTAL
//! `ooo`/`threaded` time ratio and the `ooo` runs' summed state re-keys
//! (`TranslationStats::rekeys`, exact where the times are not). The
//! engines' `SimStats` are asserted equal, the two out-of-order runs'
//! `SimStats` and `OooStats` equal, and the out-of-order run's
//! model-invariant counts equal to the engines', so the benchmark
//! doubles as a smoke differential.
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
//! any timing column (a comparison that silently skips an engine or the
//! out-of-order model reads as "no regression" in a CI log). The CI
//! throughput step stays non-gating via `continue-on-error`, not by
//! swallowing errors here.

use std::time::Instant;
use subword_bench::json::Json;
use subword_compile::lift_permutes;
use subword_compile::verify::ENGINES;
use subword_isa::program::Program;
use subword_kernels::framework::KernelBuild;
use subword_kernels::suite::{all_suites, dotprod_example};
use subword_sim::translate::TranslationStats;
use subword_sim::{ExecEngine, MachineConfig, OooStats, PipelineKind, SimStats};
use subword_spu::SHAPE_D;

const REPS: usize = 5;
const SCHEMA: &str = "subword-bench-sim/v4";

/// What one timing column runs: an engine on the in-order model, or the
/// out-of-order model under the threaded engine (its timing replayed
/// per region) or under the decoded engine (every instruction timed).
#[derive(Clone, Copy)]
enum Column {
    Engine(ExecEngine),
    Ooo,
    OooStepped,
}

/// Every timed column: the [`ENGINES`] in order, then the out-of-order
/// model replayed and stepped. A benchmark row (and a baseline row)
/// covers all of them.
const COLUMNS: [Column; 5] = [
    Column::Engine(ENGINES[0]),
    Column::Engine(ENGINES[1]),
    Column::Engine(ENGINES[2]),
    Column::Ooo,
    Column::OooStepped,
];
const THREADED: usize = 2;
const OOO: usize = 3;
const OOO_STEPPED: usize = 4;

impl Column {
    /// The JSON key of the column's best-of-N nanos (`reference_nanos`,
    /// …, `ooo_nanos`, `ooo_stepped_nanos`).
    fn key(self) -> String {
        match self {
            Column::Engine(engine) => format!("{engine:?}_nanos").to_lowercase(),
            Column::Ooo => "ooo_nanos".into(),
            Column::OooStepped => "ooo_stepped_nanos".into(),
        }
    }

    fn config(self, cfg: &MachineConfig) -> MachineConfig {
        let ooo =
            |engine| MachineConfig { engine, pipeline: PipelineKind::OutOfOrder, ..cfg.clone() };
        match self {
            Column::Engine(engine) => MachineConfig { engine, ..cfg.clone() },
            Column::Ooo => ooo(ExecEngine::Threaded),
            Column::OooStepped => ooo(ExecEngine::Decoded),
        }
    }
}

/// What one column's last run left: its statistics, the out-of-order
/// counters and the replay telemetry.
#[derive(Clone, Copy, Default)]
struct Ran {
    stats: SimStats,
    ooo: OooStats,
    translation: TranslationStats,
}

struct Row {
    kernel: &'static str,
    variant: &'static str,
    instructions: u64,
    /// Best-of-N wall nanos, indexed like [`COLUMNS`].
    nanos: [u64; 5],
    /// Share of the `ooo` run's instructions whose timing was replayed.
    replayed: f64,
    /// The `ooo` run's state re-keys.
    rekeys: u64,
}

impl Row {
    fn mips_of(&self, engine_idx: usize) -> f64 {
        mips(self.instructions, self.nanos[engine_idx])
    }

    /// Threaded speedup over the decoded stepper.
    fn speedup(&self) -> f64 {
        self.nanos[1] as f64 / self.nanos[THREADED].max(1) as f64
    }
}

/// Best-of-N simulator wall time for one build under one configuration;
/// returns what the last run left for cross-column comparison.
fn time_run(build: &KernelBuild, cfg: MachineConfig) -> (u64, Ran) {
    let mut best = u64::MAX;
    let mut ran = Ran::default();
    for _ in 0..REPS {
        let mut m = build.setup.machine(cfg.clone()).expect("init in bounds");
        let t = Instant::now();
        let stats = m.run(&build.program).expect("kernel runs");
        best = best.min(t.elapsed().as_nanos() as u64);
        build.check(&m, "bench").expect("golden outputs");
        ran = Ran { stats, ooo: m.ooo, translation: m.translation };
    }
    (best, ran)
}

fn bench_build(
    kernel: &'static str,
    variant: &'static str,
    build: &KernelBuild,
    cfg: &MachineConfig,
) -> Row {
    let mut nanos = [0u64; 5];
    let mut ran = [Ran::default(); 5];
    for (k, col) in COLUMNS.into_iter().enumerate() {
        (nanos[k], ran[k]) = time_run(build, col.config(cfg));
    }
    let stats = ran.map(|r| r.stats);
    assert_eq!(stats[0], stats[1], "decoded diverges from reference on {kernel}/{variant}");
    assert_eq!(stats[0], stats[2], "threaded diverges from reference on {kernel}/{variant}");
    if let Some(diff) = stats[0].count_divergence(&stats[OOO]) {
        panic!("ooo diverges from reference on {kernel}/{variant}: {diff}");
    }
    let (replayed, stepped) = (&ran[OOO], &ran[OOO_STEPPED]);
    assert_eq!(
        replayed.stats, stepped.stats,
        "ooo replay diverges from stepping on {kernel}/{variant}"
    );
    assert_eq!(
        replayed.ooo, stepped.ooo,
        "ooo replay diverges from stepping on {kernel}/{variant}"
    );
    let tl = replayed.translation;
    let replayed = tl.replayed_slots as f64 / (tl.replayed_slots + tl.fallback_slots).max(1) as f64;
    Row { kernel, variant, instructions: stats[0].instructions, nanos, replayed, rekeys: tl.rekeys }
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
    let column_fields = |nanos: &[u64; 5]| {
        COLUMNS.iter().zip(nanos).map(|(col, &n)| (col.key(), Json::UInt(n))).collect::<Vec<_>>()
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
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
                        fields.extend(column_fields(&r.nanos));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "totals".into(),
            Json::Obj(
                std::iter::once(("instructions".into(), Json::UInt(ti)))
                    .chain(column_fields(&tn))
                    .collect(),
            ),
        ),
    ])
}

fn totals(rows: &[Row]) -> (u64, [u64; 5]) {
    let mut tn = [0u64; 5];
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

/// Baseline per-column MIPS per (kernel, variant) from a saved report.
/// Every row must carry **all** [`COLUMNS`] — missing coverage is an
/// error, not a skip.
fn baseline_mips(doc: &Json) -> Result<Vec<(String, [f64; 5])>, String> {
    let schema = doc.field("schema")?.as_str()?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (expected {SCHEMA}; regenerate with --save)"
        ));
    }
    let column_mips = |obj: &Json, instructions: u64| -> Result<[f64; 5], String> {
        let mut out = [0f64; 5];
        for (k, col) in COLUMNS.into_iter().enumerate() {
            let nanos = obj
                .field(&col.key())
                .map_err(|e| format!("missing column coverage: {e}"))?
                .as_u64()?;
            out[k] = mips(instructions, nanos);
        }
        Ok(out)
    };
    let mut out = Vec::new();
    for row in doc.field("rows")?.as_arr()? {
        let key = format!("{}/{}", row.field("kernel")?.as_str()?, row.field("variant")?.as_str()?);
        let instructions = row.field("instructions")?.as_u64()?;
        out.push((key, column_mips(row, instructions)?));
    }
    let t = doc.field("totals")?;
    out.push(("TOTAL".into(), column_mips(t, t.field("instructions")?.as_u64()?)?));
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
        "{:<10} {:<4} {:>12} {:>10} {:>10} {:>10} {:>8} {:>10} {:>11} {:>9}",
        "kernel",
        "var",
        "instructions",
        "ref MIPS",
        "dec MIPS",
        "thr MIPS",
        "thr/dec",
        "ooo MIPS",
        "ooo-st MIPS",
        "replayed"
    );
    for r in &rows {
        println!(
            "{:<10} {:<4} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>10.2} {:>11.2} {:>8.1}%",
            r.kernel,
            r.variant,
            r.instructions,
            r.mips_of(0),
            r.mips_of(1),
            r.mips_of(THREADED),
            r.speedup(),
            r.mips_of(OOO),
            r.mips_of(OOO_STEPPED),
            100.0 * r.replayed
        );
    }
    let (ti, tn) = totals(&rows);
    println!(
        "{:<10} {:<4} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>10.2} {:>11.2}",
        "TOTAL",
        "",
        ti,
        mips(ti, tn[0]),
        mips(ti, tn[1]),
        mips(ti, tn[THREADED]),
        tn[1] as f64 / tn[THREADED].max(1) as f64,
        mips(ti, tn[OOO]),
        mips(ti, tn[OOO_STEPPED])
    );
    println!(
        "TOTAL ooo/threaded time {:.2}x; ooo state re-keys {}",
        tn[OOO] as f64 / tn[THREADED].max(1) as f64,
        rows.iter().map(|r| r.rekeys).sum::<u64>()
    );

    if let Some(path) = value_of("--baseline") {
        match std::fs::read_to_string(workspace_path(&path))
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text))
            .and_then(|doc| baseline_mips(&doc))
        {
            Ok(base) => {
                println!("\nagainst baseline {path} (threaded and ooo MIPS, current / baseline):");
                let current: Vec<(String, [f64; 2])> = rows
                    .iter()
                    .map(|r| {
                        let key = format!("{}/{}", r.kernel, r.variant);
                        (key, [r.mips_of(THREADED), r.mips_of(OOO)])
                    })
                    .chain([("TOTAL".to_string(), [mips(ti, tn[THREADED]), mips(ti, tn[OOO])])])
                    .collect();
                let delta = |now: f64, then: f64| {
                    format!(
                        "{now:>8.2} / {then:<8.2} ({:+.1}%)",
                        100.0 * (now - then) / then.max(1e-9)
                    )
                };
                for (key, [thr, ooo]) in &current {
                    match base.iter().find(|(k, _)| k == key) {
                        Some((_, then)) => println!(
                            "{key:<16} thr {}  ooo {}",
                            delta(*thr, then[THREADED]),
                            delta(*ooo, then[OOO])
                        ),
                        None => {
                            println!("{key:<16} thr {thr:>8.2}  ooo {ooo:>8.2} (not in baseline)")
                        }
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

//! The benchmark's traced run: one iteration of a workload, done
//! in-process through each layer's public functions, with a span around
//! every call.
//!
//! ```text
//! perfbench-tracer sweep [--pipeline inorder|ooo] [--cache-dir DIR]
//!                        [--check-baseline FILE] [--diff-out FILE]
//!                        [--workers N] REPORT
//! perfbench-tracer fuzz --corpus DIR --seed S --count N
//! ```
//!
//! The arguments mirror the `sweep` and `fuzz` binaries; `--workers`
//! overrides the sweep's pool size (every available core by default).
//! Prints one JSON object: the iteration's wall time, each span name's
//! self time, the counters, the worker-pool accounting and, for `fuzz`,
//! each case's outcome.

mod fuzz;
mod sim;
mod span;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use subword_bench::json::Json;
use subword_sim::PipelineKind;

fn secs(d: Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(doc) => {
            println!("{}", doc.to_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<Json, String> {
    let mut it = args.into_iter();
    let mode = it.next().ok_or("usage: perfbench-tracer sweep|fuzz ...")?;
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            let value = it.next().ok_or(format!("{a} needs a value"))?;
            flags.push((a, value));
        } else {
            positional.push(a);
        }
    }
    let flag = |name: &str| flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
    let number = |name: &str| -> Result<Option<u64>, String> {
        flag(name).map(|v| v.parse().map_err(|_| format!("{name}: bad number `{v}`"))).transpose()
    };

    let start = Instant::now();
    let (pool, cases) = match mode.as_str() {
        "sweep" => {
            let pipeline = match flag("--pipeline") {
                Some(p) => PipelineKind::from_name(&p).ok_or(format!("unknown pipeline `{p}`"))?,
                None => PipelineKind::InOrder,
            };
            let workers = match number("--workers")? {
                Some(n) => n as usize,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            let [report] = positional.as_slice() else {
                return Err("sweep needs exactly one report path".into());
            };
            let args = sweep::Args {
                pipeline,
                cache_dir: flag("--cache-dir").map(PathBuf::from),
                baseline: flag("--check-baseline").map(PathBuf::from),
                diff_out: flag("--diff-out").map(PathBuf::from),
                report: PathBuf::from(report),
                workers,
            };
            (Some(sweep::run(&args)?), None)
        }
        "fuzz" => {
            let corpus = flag("--corpus").ok_or("fuzz needs --corpus")?;
            let seed = number("--seed")?.ok_or("fuzz needs --seed")?;
            let n = number("--count")?.ok_or("fuzz needs --count")?;
            (None, Some(fuzz::run(&PathBuf::from(corpus), seed, n)?))
        }
        other => return Err(format!("unknown mode `{other}`")),
    };
    let wall = start.elapsed();

    // Capacity is thread time: the main thread outside the pool plus
    // every worker over the pool's wall. Time no span covers is
    // unaccounted; workers waiting on the slowest job are pool idle.
    let mut ledger = span::take();
    let main_gap = wall.saturating_sub(ledger.covered);
    let (capacity, unaccounted, pool_json) = match &pool {
        Some(p) => {
            ledger.self_time.remove("sweep.pool");
            ledger.absorb(&p.ledger);
            let workers = p.workers as u32;
            (
                wall - p.wall + p.wall * workers,
                main_gap + p.gaps,
                obj(vec![
                    ("workers", Json::UInt(workers as u64)),
                    ("wall_s", secs(p.wall)),
                    ("busy_s", secs(p.busy)),
                    ("idle_s", secs(p.idle)),
                ]),
            )
        }
        None => (wall, main_gap, Json::Null),
    };
    let outcome = |c: &fuzz::CaseOutcome| {
        obj(vec![
            ("lifted", Json::Bool(c.lifted)),
            ("compacted", Json::Bool(c.compacted)),
            ("variants", Json::UInt(c.variants as u64)),
            ("cycles", Json::Arr(c.cycles.iter().map(|&c| Json::UInt(c)).collect())),
        ])
    };
    let (corpus, cases) = match &cases {
        Some(c) => (
            Json::Arr(c.corpus.iter().map(outcome).collect()),
            Json::Arr(c.cases.iter().map(outcome).collect()),
        ),
        None => (Json::Arr(vec![]), Json::Arr(vec![])),
    };
    Ok(obj(vec![
        ("wall_s", secs(wall)),
        ("capacity_s", secs(capacity)),
        ("unaccounted_s", secs(unaccounted)),
        ("pool", pool_json),
        (
            "self_s",
            Json::Obj(ledger.self_time.iter().map(|(k, v)| (k.to_string(), secs(*v))).collect()),
        ),
        (
            "counters",
            Json::Obj(
                ledger.counters.iter().map(|(k, v)| (k.to_string(), Json::UInt(*v))).collect(),
            ),
        ),
        ("corpus", corpus),
        ("cases", cases),
    ]))
}

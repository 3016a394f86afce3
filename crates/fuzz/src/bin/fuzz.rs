//! Campaign driver.
//!
//! ```text
//! fuzz [--seed S] [--count N] [--shard i/n] [--failures-dir DIR]
//!      [--corpus DIR] [--replay FILE] [--census N] [--emit S]
//!      [--emit-md S]
//! ```
//!
//! Default run: replay the committed corpus (if `--corpus` points at
//! one), then walk this shard's slice of the seed range. Any failure is
//! minimized, written to `--failures-dir` (when set), and reported;
//! exit status is 1 if anything failed, 0 on a green run.
//!
//! Sharding: case `k` of the `N`-case campaign belongs to shard
//! `k % n`, so `n` workers given `--shard 0/n` … `--shard (n-1)/n`
//! partition the same seed range exactly.

use std::path::PathBuf;
use std::process::ExitCode;

use subword_fuzz::corpus;
use subword_fuzz::oracle::run_case;
use subword_fuzz::{census, replay, run_campaign_with, CampaignConfig};

struct Args {
    cfg: CampaignConfig,
    corpus_dir: Option<PathBuf>,
    replay_file: Option<PathBuf>,
    census: Option<u64>,
    emit: Option<u64>,
    emit_md: Option<u64>,
}

fn usage() -> &'static str {
    "usage: fuzz [--seed S] [--count N] [--shard i/n] [--failures-dir DIR]\n\
    \x20           [--corpus DIR] [--replay FILE] [--census N]\n\
    \n\
    \x20 --seed S           base seed of the campaign (default 1)\n\
    \x20 --count N          total cases across all shards (default 1000)\n\
    \x20 --shard i/n        run shard i of n (default 0/1)\n\
    \x20 --failures-dir DIR write minimized failing-case repros here\n\
    \x20 --corpus DIR       replay every .json repro in DIR first\n\
    \x20 --replay FILE      replay one repro file and exit\n\
    \x20 --census N         print generator feature rates over N cases and exit\n\
    \x20 --emit S           print seed S's case as a repro document and exit\n\
    \x20 --emit-md S        print seed S's case as a literate conformance page and exit"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: CampaignConfig::default(),
        corpus_dir: None,
        replay_file: None,
        census: None,
        emit: None,
        emit_md: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.cfg.base_seed = parse_u64(&value("--seed")?)?,
            "--count" => args.cfg.count = parse_u64(&value("--count")?)?,
            "--shard" => {
                let spec = value("--shard")?;
                let (i, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("bad shard spec `{spec}` (want i/n)"))?;
                args.cfg.shard_index = parse_u64(i)?;
                args.cfg.shard_count = parse_u64(n)?;
                if args.cfg.shard_count == 0 || args.cfg.shard_index >= args.cfg.shard_count {
                    return Err(format!("bad shard spec `{spec}` (need i < n)"));
                }
            }
            "--failures-dir" => {
                args.cfg.failures_dir = Some(PathBuf::from(value("--failures-dir")?))
            }
            "--corpus" => args.corpus_dir = Some(PathBuf::from(value("--corpus")?)),
            "--replay" => args.replay_file = Some(PathBuf::from(value("--replay")?)),
            "--census" => args.census = Some(parse_u64(&value("--census")?)?),
            "--emit" => args.emit = Some(parse_u64(&value("--emit")?)?),
            "--emit-md" => args.emit_md = Some(parse_u64(&value("--emit-md")?)?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Accept decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad number `{s}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(n) = args.census {
        let c = census(args.cfg.base_seed, n);
        let pct = |x: u64| 100.0 * x as f64 / c.cases.max(1) as f64;
        println!("census over {} cases (seed {:#x}):", c.cases, args.cfg.base_seed);
        println!("  saturating ops   {:5.1}%", pct(c.saturating));
        println!("  realignment      {:5.1}%", pct(c.realignment));
        println!("  route spans      {:5.1}%", pct(c.route_span));
        println!("  mmio stores      {:5.1}%", pct(c.mmio_store));
        println!("  multi-region     {:5.1}%", pct(c.multi_region));
        println!("  scalar ALU       {:5.1}%", pct(c.scalar));
        return ExitCode::SUCCESS;
    }

    if let Some(seed) = args.emit_md {
        let case = subword_fuzz::gen::generate(seed);
        return match subword_fuzz::emit_md::emit_markdown(&case) {
            Ok(page) => {
                print!("{page}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fuzz: --emit-md {seed:#x}: {e}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(seed) = args.emit {
        let case = subword_fuzz::gen::generate(seed);
        match run_case(&case) {
            Ok(r) => eprintln!(
                "seed {seed:#x}: PASS ({} variants{}{})",
                r.variants,
                if r.lifted { ", lifted" } else { "" },
                if r.compacted { ", compacted" } else { "" },
            ),
            Err(f) => eprintln!("seed {seed:#x}: FAIL: {f}"),
        }
        println!("{}", corpus::encode(&case, None).to_pretty());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.replay_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fuzz: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let case = match corpus::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fuzz: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        return match run_case(&case) {
            Ok(r) => {
                println!(
                    "{}: PASS ({} variants{}{})",
                    path.display(),
                    r.variants,
                    if r.lifted { ", lifted" } else { "" },
                    if r.compacted { ", compacted" } else { "" },
                );
                ExitCode::SUCCESS
            }
            Err(f) => {
                eprintln!("{}: FAIL: {f}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = false;

    if let Some(dir) = &args.corpus_dir {
        match corpus::load_dir(dir) {
            Ok(cases) => {
                let failures = replay(&cases);
                println!("corpus: {} entries, {} failing", cases.len(), failures.len());
                for (path, f) in &failures {
                    eprintln!("  {}: {f}", path.display());
                }
                failed |= !failures.is_empty();
            }
            Err(e) => {
                eprintln!("fuzz: corpus: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let stats = run_campaign_with(&args.cfg, None, &mut |done, fails| {
        eprintln!(
            "shard {}/{}: {done} cases, {fails} failures",
            args.cfg.shard_index, args.cfg.shard_count
        );
    });
    println!(
        "shard {}/{}: {} cases run (seed base {:#x}), {} lifted, {} compacted, {} variants diffed, {} failures",
        args.cfg.shard_index,
        args.cfg.shard_count,
        stats.cases,
        args.cfg.base_seed,
        stats.lifted,
        stats.compacted,
        stats.variants,
        stats.failures.len(),
    );
    for (f, path) in &stats.failures {
        match path {
            Some(p) => eprintln!("  {f}\n    repro: {}", p.display()),
            None => eprintln!("  {f}"),
        }
    }
    failed |= !stats.failures.is_empty();

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

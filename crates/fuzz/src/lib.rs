//! # subword-fuzz
//!
//! Differential fuzzing for the compile pipeline and the three
//! execution engines.
//!
//! A campaign walks a seed range; each seed expands into a well-formed
//! counted-loop program ([`gen`]), which the oracle ([`oracle`]) pushes
//! through the full pipeline — baseline, scheduled, lifted,
//! scheduled-lifted — on all three engines and compares bit-for-bit.
//! Panics anywhere are contained into structured [`oracle::FuzzFailure`]
//! records; each failure is shrunk by the built-in minimizer
//! ([`mod@minimize`]) and persisted as a small JSON repro ([`corpus`]) that
//! replays exactly. The `fuzz` bin shards campaigns by seed residue for
//! CI (`--shard i/n`).

// A `FuzzFailure` carries the whole failing `FuzzCase` by design — the
// error *is* the repro, and it is only ever constructed on the cold
// path (a green campaign allocates none). Boxing it would push `Box`
// through every oracle/minimizer/campaign signature for no hot-path
// win.
#![allow(clippy::result_large_err)]

pub mod corpus;
pub mod emit_md;
pub mod gen;
pub mod minimize;
pub mod oracle;

use std::path::PathBuf;

use gen::{features, generate, FuzzCase};
use minimize::minimize;
use oracle::{run_case, run_case_with, FuzzFailure, Tamper};

/// One campaign's parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Base seed; case `k` uses seed `base_seed + k` (SplitMix64 inside
    /// the generator decorrelates consecutive seeds).
    pub base_seed: u64,
    /// Cases in the full campaign, across all shards.
    pub count: u64,
    /// This worker's shard (`shard_index < shard_count`); case `k`
    /// belongs to shard `k % shard_count`.
    pub shard_index: u64,
    /// Total shards.
    pub shard_count: u64,
    /// Where to write repro files for failures (`None` = don't persist).
    pub failures_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            base_seed: 1,
            count: 1000,
            shard_index: 0,
            shard_count: 1,
            failures_dir: None,
        }
    }
}

/// Aggregate numbers from one campaign shard.
#[derive(Clone, Debug, Default)]
pub struct CampaignStats {
    /// Cases this shard ran.
    pub cases: u64,
    /// Cases whose loop the lift pass transformed.
    pub lifted: u64,
    /// Cases where the lift needed register compaction.
    pub compacted: u64,
    /// Program variants diffed (summed over cases).
    pub variants: u64,
    /// Failures, post-minimization, with the repro path when persisted.
    pub failures: Vec<(FuzzFailure, Option<PathBuf>)>,
}

/// Run one campaign shard. Failures never abort the walk: each is
/// contained, minimized, persisted (when a failures dir is set) and
/// collected.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignStats {
    run_campaign_with(cfg, None, &mut |_, _| {})
}

/// [`run_campaign`], with a fault-injection hook (tests) and a progress
/// callback invoked as `(cases_done, failures_so_far)` every 500 cases.
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    tamper: Tamper<'_>,
    progress: &mut dyn FnMut(u64, usize),
) -> CampaignStats {
    assert!(cfg.shard_count > 0 && cfg.shard_index < cfg.shard_count, "bad shard spec");
    let mut stats = CampaignStats::default();
    for k in 0..cfg.count {
        if k % cfg.shard_count != cfg.shard_index {
            continue;
        }
        let case = generate(cfg.base_seed.wrapping_add(k));
        match run_case_with(&case, tamper) {
            Ok(report) => {
                stats.lifted += report.lifted as u64;
                stats.compacted += report.compacted as u64;
                stats.variants += report.variants as u64;
            }
            Err(failure) => {
                let failure = reminimize(failure, tamper);
                let path = cfg
                    .failures_dir
                    .as_ref()
                    .and_then(|dir| corpus::write_repro(dir, &failure.case, Some(&failure)).ok());
                stats.failures.push((failure, path));
            }
        }
        stats.cases += 1;
        if stats.cases % 500 == 0 {
            progress(stats.cases, stats.failures.len());
        }
    }
    stats
}

/// Shrink a failure's case and re-derive the failure record from the
/// minimized case (the stage/detail of the small case is what a human
/// debugs, not the original's).
fn reminimize(failure: FuzzFailure, tamper: Tamper<'_>) -> FuzzFailure {
    let fails = |c: &FuzzCase| run_case_with(c, tamper).is_err();
    if !fails(&failure.case) {
        // Flaky (should be impossible — everything is deterministic);
        // keep the original record rather than minimize a passing case.
        return failure;
    }
    let (small, _) = minimize(&failure.case, &fails);
    match run_case_with(&small, tamper) {
        Err(f) => f,
        Ok(_) => failure,
    }
}

/// Replay a set of corpus cases (no minimization); returns the failures.
pub fn replay(cases: &[(PathBuf, FuzzCase)]) -> Vec<(PathBuf, FuzzFailure)> {
    cases.iter().filter_map(|(p, c)| run_case(c).err().map(|f| (p.clone(), f))).collect()
}

/// Feature rates over the first `n` cases of a seed range — the
/// generator-validity numbers (also printed by the bin's `--census`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FeatureCensus {
    /// Cases sampled.
    pub cases: u64,
    /// Cases with ≥1 saturating MMX op.
    pub saturating: u64,
    /// Cases with ≥1 realignment-class instruction.
    pub realignment: u64,
    /// Cases with ≥1 route-span chain.
    pub route_span: u64,
    /// Cases with ≥1 MMIO staging store.
    pub mmio_store: u64,
    /// Cases with an interior label.
    pub multi_region: u64,
    /// Cases with ≥1 scalar ALU step.
    pub scalar: u64,
}

/// Measure feature rates without running the oracle.
pub fn census(base_seed: u64, n: u64) -> FeatureCensus {
    let mut c = FeatureCensus { cases: n, ..Default::default() };
    for k in 0..n {
        let f = features(&generate(base_seed.wrapping_add(k)));
        c.saturating += f.saturating as u64;
        c.realignment += f.realignment as u64;
        c.route_span += f.route_span as u64;
        c.mmio_store += f.mmio_store as u64;
        c.multi_region += f.multi_region as u64;
        c.scalar += f.scalar as u64;
    }
    c
}

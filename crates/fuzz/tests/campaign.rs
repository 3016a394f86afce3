//! A 5,000-case differential campaign from a fixed seed: every generated
//! program through all four compile variants on the three engines and the
//! out-of-order model. It runs as two shards, one test each; each shard's
//! 2,500 cases run on the campaign's worker pool, 500 at a time, so the
//! pinned counts below also fail on a case dropped or repeated at an
//! interval's edge. With the shard-sum test, this binary takes 1.1–1.3 s
//! in a debug build on a 2-vCPU host. Reproduce a shard with
//! `fuzz --seed 1 --count 5000 --shard I/2`.

use subword_fuzz::{run_campaign_with, CampaignConfig};

/// Run shard `shard_index` of `count` cases from seed 1 over
/// `shard_count` shards; returns its `(cases, lifted, compacted,
/// variants)` and every progress call.
fn shard(count: u64, shard_index: u64, shard_count: u64) -> ([u64; 4], Vec<(u64, usize)>) {
    let cfg = CampaignConfig { base_seed: 1, count, shard_index, shard_count, failures_dir: None };
    let mut calls = Vec::new();
    let stats = run_campaign_with(&cfg, None, &mut |done, fails| calls.push((done, fails)));
    if let Some((failure, _)) = stats.failures.first() {
        panic!("{} failing cases; the first: {failure}", stats.failures.len());
    }
    ([stats.cases, stats.lifted, stats.compacted, stats.variants], calls)
}

/// The counts of shard `I` of `fuzz --seed 1 --count 5000 --shard I/2`.
const PINNED: [[u64; 4]; 2] = [[2500, 1464, 22, 7928], [2500, 1458, 10, 7916]];

#[test]
fn campaign_shard_0_of_2() {
    assert_eq!(shard(5000, 0, 2).0, PINNED[0]);
}

#[test]
fn campaign_shard_1_of_2() {
    assert_eq!(shard(5000, 1, 2).0, PINNED[1]);
}

/// Three shards of one campaign sum to the one-shard campaign, which
/// runs its cases as a 500-case interval and a 1-case one and makes one
/// progress call.
#[test]
fn three_shards_sum_to_the_whole_campaign() {
    let (whole, calls) = shard(501, 0, 1);
    assert_eq!(calls, [(500, 0)]);
    let mut sum = [0; 4];
    for i in 0..3 {
        for (total, count) in sum.iter_mut().zip(shard(501, i, 3).0) {
            *total += count;
        }
    }
    assert_eq!(sum, whole);
}

//! A 5,000-case differential campaign from a fixed seed: every generated
//! program through all four compile variants on the three engines and the
//! out-of-order model. It runs as two shards, one test each, so the test
//! harness spreads it over two threads. Reproduce a shard with
//! `fuzz --seed 1 --count 5000 --shard I/2`.

use subword_fuzz::{run_campaign, CampaignConfig};

fn shard(shard_index: u64) {
    let cfg = CampaignConfig {
        base_seed: 1,
        count: 5000,
        shard_index,
        shard_count: 2,
        failures_dir: None,
    };
    let stats = run_campaign(&cfg);
    assert_eq!(stats.cases, 2500);
    if let Some((failure, _)) = stats.failures.first() {
        panic!("{} failing cases; the first: {failure}", stats.failures.len());
    }
}

#[test]
fn campaign_shard_0_of_2() {
    shard(0);
}

#[test]
fn campaign_shard_1_of_2() {
    shard(1);
}

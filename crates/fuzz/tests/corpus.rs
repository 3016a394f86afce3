//! Replay every committed corpus entry through the full oracle.
//!
//! Each file under `crates/fuzz/corpus/` is a repro the campaign once
//! flagged (or a pinned regression case); after the corresponding fix
//! it must pass forever. A failure here is a regression in the pipeline
//! or an engine — the message includes the one-liner to reproduce.

use std::path::Path;

use subword_fuzz::corpus;
use subword_fuzz::oracle::run_case;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn committed_corpus_replays_clean() {
    let cases = corpus::load_dir(&corpus_dir()).expect("corpus dir loads");
    assert!(!cases.is_empty(), "committed corpus must not be empty");
    for (path, case) in &cases {
        if let Err(f) = run_case(case) {
            panic!(
                "corpus regression: {}: {f}\n  reproduce: cargo run -p subword-fuzz --bin fuzz \
                 -- --replay {}",
                path.display(),
                path.display()
            );
        }
    }
}

#[test]
fn corpus_entries_round_trip_bit_exact() {
    for (path, case) in corpus::load_dir(&corpus_dir()).expect("corpus dir loads") {
        let doc = corpus::encode(&case, None);
        let back = corpus::parse(&doc.to_pretty()).expect("re-encoded entry parses");
        assert_eq!(back, case, "{} drifted through encode/decode", path.display());
    }
}

#[test]
fn generated_cases_round_trip_through_the_corpus_format() {
    for seed in 0..500u64 {
        let case = subword_fuzz::gen::generate(seed);
        let text = corpus::encode(&case, None).to_string();
        let back = corpus::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, case, "seed {seed} drifted through encode/decode");
    }
}

/// The error from parsing the committed seed-8 entry with `from` edited
/// to `to`: a value that does not fit its field must be rejected, never
/// truncated into a different case.
fn rejected_edit(from: &str, to: &str) -> String {
    let text = std::fs::read_to_string(corpus_dir().join("seed-0000000000000008.json")).unwrap();
    let edited = text.replacen(from, to, 1);
    assert_ne!(edited, text, "`{from}` not in the entry");
    corpus::parse(&edited).expect_err(to)
}

#[test]
fn zero_trips_are_rejected() {
    let err = rejected_edit("\"trips\": 8", "\"trips\": 0");
    assert!(err.contains("field `trips`"), "{err}");
}

#[test]
fn trips_beyond_the_loop_counter_are_rejected() {
    let err = rejected_edit("\"trips\": 8", "\"trips\": 4294967298");
    assert!(err.contains("field `trips`"), "{err}");
}

#[test]
fn a_shape_beyond_a_byte_is_rejected() {
    let err = rejected_edit("\"shape\": 2", "\"shape\": 258");
    assert!(err.contains("field `shape`"), "{err}");
}

#[test]
fn a_non_canonical_shape_is_rejected() {
    let err = rejected_edit("\"shape\": 2", "\"shape\": 4");
    assert!(err.contains("field `shape`"), "{err}");
}

#[test]
fn a_step_field_beyond_a_byte_names_the_step() {
    let err = rejected_edit("\"dst\": 108", "\"dst\": 364");
    assert!(err.starts_with("step 1: field `dst`"), "{err}");
}

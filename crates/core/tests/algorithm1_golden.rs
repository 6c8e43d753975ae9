//! Golden tables for Algorithm 1 on the paper's running example.
//!
//! Every abstraction of Exreal that lifts each occurrence by at most two
//! levels is evaluated at several concretization caps. The CQ table runs
//! every combination of the three §4.1 components (row-by-row processing,
//! the connectivity filter, caching); each entry records the privacy, the
//! truncation flag, the sorted canonical keys of the CIM queries, the
//! consistency-cache hits and misses and the concretizations kept. The small
//! caps exercise the truncation edges of the row-by-row extension loop and
//! of the whole-example enumeration. The UCQ table runs the connectivity
//! filter × caching under `QueryClass::Ucq` and records the same entries
//! but the cache counters; its CIM keys are those of the reported
//! disjuncts.
//!
//! A CQ line reads `<lift per occurrence> cap=<n> flags=<row-by-row,
//! connectivity, caching bits> privacy=<p or -> truncated=<0|1> kept=<n>
//! hits=<n> misses=<n> cim=<key ids>`; a UCQ line has two flag bits
//! (connectivity, caching) and no `hits`/`misses`. The `key` lines at the
//! end list the canonical keys by id.
//!
//! The checked-in tables pin the observable behaviour of the privacy
//! computation: optimizations of its internals must leave them unchanged.
//! To regenerate them after an intended change, run
//!
//! ```text
//! PROVABS_BLESS=1 cargo test -p provabs-core --test algorithm1_golden
//! ```

use provabs_core::fixtures::running_example;
use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, QueryClass};
use provabs_core::{Abstraction, Bound};
use provabs_reveng::canonical_key;
use std::collections::HashMap;
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/algorithm1_golden.txt"
);

const UCQ_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/algorithm1_ucq_golden.txt"
);

/// Concretization caps: 1, 2, 3 and 7 bind on the larger abstractions; the
/// last is the default and never binds here.
const CAPS: [usize; 5] = [1, 2, 3, 7, 1_000_000];

/// The table of `query_class`: one line per (abstraction, cap, flags)
/// entry, then the canonical keys the entries refer to by index (first
/// appearance order).
fn table(query_class: QueryClass) -> String {
    let ucq = query_class == QueryClass::Ucq;
    let fx = running_example();
    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).expect("running example binds");
    let occs = bound.occurrences();
    let tops: Vec<u32> = occs
        .iter()
        .map(|&(r, i)| bound.max_lift(r, i).min(2))
        .collect();
    let mut keys: Vec<String> = Vec::new();
    let mut key_ids: HashMap<String, usize> = HashMap::new();
    let mut out = String::new();
    let mut lifts = vec![0u32; occs.len()];
    loop {
        let mut abs = Abstraction::identity(&bound);
        for (&(r, i), &l) in occs.iter().zip(&lifts) {
            abs.lifts[r][i] = l;
        }
        let rows = abs.apply(&bound).rows;
        let lift_digits: String = lifts.iter().map(u32::to_string).collect();
        for cap in CAPS {
            for flags in 0..if ucq { 4u8 } else { 8 } {
                let (row_by_row, connectivity_filter, caching) =
                    (flags & 4 != 0, flags & 2 != 0, flags & 1 != 0);
                let cfg = PrivacyConfig {
                    threshold: 1,
                    query_class,
                    row_by_row,
                    connectivity_filter,
                    caching,
                    max_concretizations: cap,
                    ..PrivacyConfig::default()
                };
                let o = compute_privacy(&bound, &rows, &cfg, &PrivacyCache::new());
                let mut cim: Vec<String> = o.cim.iter().map(canonical_key).collect();
                cim.sort();
                let ids: Vec<String> = cim
                    .into_iter()
                    .map(|k| {
                        let next = keys.len();
                        let id = *key_ids.entry(k.clone()).or_insert(next);
                        if id == next {
                            keys.push(k);
                        }
                        id.to_string()
                    })
                    .collect();
                let s = &o.stats;
                let privacy = o.privacy.map_or("-".to_owned(), |p| p.to_string());
                let (flags, counters) = if ucq {
                    (format!("{flags:02b}"), String::new())
                } else {
                    let counters = format!(
                        " hits={} misses={}",
                        s.consistency_cache_hits, s.consistency_cache_misses
                    );
                    (format!("{flags:03b}"), counters)
                };
                writeln!(
                    out,
                    "{lift_digits} cap={cap} flags={flags} privacy={privacy} \
                     truncated={} kept={}{counters} cim={}",
                    u8::from(s.truncated),
                    s.concretizations_kept,
                    ids.join(",")
                )
                .unwrap();
            }
        }
        // Odometer over the lift vector.
        let Some(j) = (0..lifts.len()).rev().find(|&j| lifts[j] < tops[j]) else {
            break;
        };
        lifts[j] += 1;
        lifts[j + 1..].iter_mut().for_each(|l| *l = 0);
    }
    for (id, k) in keys.iter().enumerate() {
        writeln!(out, "key {id} {k}").unwrap();
    }
    out
}

/// Compares `got` with the checked-in table at `path` (rewrites it under
/// `PROVABS_BLESS`).
fn check(path: &str, got: &str) {
    if std::env::var_os("PROVABS_BLESS").is_some() {
        std::fs::write(path, got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(path).expect("read the golden table");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden table line {} differs", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden table length differs"
    );
}

#[test]
fn algorithm1_matches_the_golden_table() {
    check(GOLDEN, &table(QueryClass::Cq));
}

#[test]
fn algorithm1_ucq_matches_the_golden_table() {
    check(UCQ_GOLDEN, &table(QueryClass::Ucq));
}

//! The seeded corpus: 48 small documents of about 2k nodes and one `big`
//! document of about 120k nodes, with eight planted query-term pairs
//! `qa{p}`/`qb{p}` whose placement sets the operand sizes.
//!
//! Each small document carries a third of the pairs (pair `p` lands in
//! document `i` when `(p + i) % 3 == 0`), each term 1–6 times plus one
//! adjacent sibling pair, so a pair query prunes about two thirds of the
//! collection before any join runs. `big` carries every term 10 times
//! plus two adjacent pairs, so its answer sets are large, and all eight
//! pairs share those positions, so every pair costs the same there.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xfrag_corpus::docgen::{generate, DocGenConfig};
use xfrag_doc::serialize::{document_to_xml, WriteOptions};

/// Planted term pairs.
pub const PAIRS: usize = 8;
/// Small documents `d001` … `d048`.
pub const SMALL_DOCS: usize = 48;
const SMALL_NODES: usize = 2_000;
/// The BENCH_7 document size.
const BIG_NODES: usize = 120_000;
/// `big` is the same document for every seed, so the answer sets that
/// dominate the expensive requests do not change from seed to seed; the
/// seed varies the small documents and the request stream.
const BIG_SEED: u64 = 0xB16_D0C;
/// The document `reload-churn` rewrites.
pub const CHURN_DOC: usize = 1;

/// First term of pair `p`.
pub fn qa(p: usize) -> String {
    format!("qa{p}")
}

/// Second term of pair `p`.
pub fn qb(p: usize) -> String {
    format!("qb{p}")
}

/// SplitMix64 finalizer over `seed ^ salt`: independent per-document seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One source document: the file stem and its XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    pub stem: String,
    pub xml: String,
}

/// The whole corpus for `seed`, sorted by stem (`big`, `d001`, …).
pub fn corpus(seed: u64) -> Vec<Source> {
    let mut out = vec![big()];
    out.extend((1..=SMALL_DOCS).map(|i| small(seed, i, 0)));
    out
}

/// Small document `i`. `version` 1 exists only for the churn document:
/// the same planted counts over different text and positions, so every
/// reply that touches it differs between the two versions.
pub fn small(seed: u64, i: usize, version: u64) -> Source {
    let mut counts = StdRng::seed_from_u64(mix(seed, i as u64));
    let mut cfg = DocGenConfig {
        seed: mix(seed, (i as u64) << 8 | version),
        ..DocGenConfig::default()
    }
    .with_approx_nodes(SMALL_NODES);
    for p in (0..PAIRS).filter(|p| (p + i).is_multiple_of(3)) {
        cfg = cfg
            .plant_near(qa(p), qb(p), 1)
            .plant(qa(p), counts.random_range(1..=6usize))
            .plant(qb(p), counts.random_range(1..=6usize));
    }
    Source {
        stem: format!("d{i:03}"),
        xml: document_to_xml(&generate(&cfg), WriteOptions { indent: None }),
    }
}

fn big() -> Source {
    // Every pair shares the same planted positions: plant placeholders,
    // then spell each one out as all eight terms.
    let cfg = DocGenConfig {
        seed: BIG_SEED,
        ..DocGenConfig::default()
    }
    .with_approx_nodes(BIG_NODES)
    .plant_near("qx", "qy", 2)
    .plant("qx", 10)
    .plant("qy", 10);
    let xml = document_to_xml(&generate(&cfg), WriteOptions { indent: None });
    let all = |term: fn(usize) -> String| (0..PAIRS).map(term).collect::<Vec<_>>().join(" ");
    Source {
        stem: "big".into(),
        xml: xml.replace("qx", &all(qa)).replace("qy", &all(qb)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_corpus_and_another_seed_changes_it() {
        let a = corpus(7);
        assert_eq!(a.len(), SMALL_DOCS + 1);
        assert_eq!(a, corpus(7));
        let b = corpus(8);
        assert_eq!(a[0], b[0], "big does not depend on the seed");
        assert!(a[1..]
            .iter()
            .zip(&b[1..])
            .all(|(x, y)| x.stem == y.stem && x.xml != y.xml));
        // The churn document's two versions differ.
        assert_ne!(small(7, CHURN_DOC, 0), small(7, CHURN_DOC, 1));
    }
}

//! The five workloads: which server configuration each boots, which
//! request shapes it draws from, and the seeded request stream.

use crate::corpus::{qa, qb, PAIRS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xfrag_core::{FilterExpr, Query};
use xfrag_corpus::zipf::Zipf;

/// One distinct request shape: conjunctive keywords plus the `σ`
/// components the protocol exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub terms: Vec<String>,
    pub size: Option<u32>,
    pub height: Option<u32>,
    pub width: Option<u32>,
}

/// Every request carries a deadline, so a hang shows up as a failed
/// reply instead of stalling the run.
pub const TIMEOUT_MS: u64 = 10_000;

impl Shape {
    /// The NDJSON request line (no trailing newline).
    pub fn request(&self, id: u64) -> String {
        let terms: Vec<String> = self.terms.iter().map(|t| format!("\"{t}\"")).collect();
        let mut out = format!(
            "{{\"kind\":\"query\",\"id\":{id},\"keywords\":[{}]",
            terms.join(",")
        );
        for (name, v) in [
            ("size", self.size),
            ("height", self.height),
            ("width", self.width),
        ] {
            if let Some(v) = v {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
        }
        out.push_str(&format!(",\"timeout_ms\":{TIMEOUT_MS}}}"));
        out
    }

    /// The query the server builds from that request (same component
    /// order as the protocol's `Request::filter`).
    pub fn query(&self) -> Query {
        let parts = [
            self.size.map(FilterExpr::MaxSize),
            self.height.map(FilterExpr::MaxHeight),
            self.width.map(FilterExpr::MaxWidth),
        ];
        Query::new(
            self.terms.iter(),
            FilterExpr::and(parts.into_iter().flatten()),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf over 80 shapes (pairs and single terms × five filters).
    Zipf,
    /// Uniform over 1–3 term shapes with selective filters.
    Selective,
    /// Uniform over pair shapes with a broad size filter.
    Broad,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `--cache-mb` for the server; `None` boots it with `--no-cache`.
    pub cache_mb: Option<u64>,
    /// Client 0 rewrites the churn document after this many of its own
    /// requests.
    pub churn_every: Option<usize>,
    /// Closed-loop clients, one persistent connection each.
    pub clients: usize,
}

/// Why each workload exists is in README.md and BENCHMARK.json.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "warm-zipf",
        kind: Kind::Zipf,
        cache_mb: Some(64),
        churn_every: None,
        clients: 2,
    },
    Workload {
        name: "zipf-overflow",
        kind: Kind::Zipf,
        cache_mb: Some(1),
        churn_every: None,
        clients: 2,
    },
    Workload {
        name: "cold-selective",
        kind: Kind::Selective,
        cache_mb: None,
        churn_every: None,
        clients: 2,
    },
    Workload {
        name: "cold-broad",
        kind: Kind::Broad,
        cache_mb: None,
        churn_every: None,
        clients: 1,
    },
    Workload {
        name: "reload-churn",
        kind: Kind::Zipf,
        cache_mb: Some(64),
        churn_every: Some(50),
        clients: 2,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Filters as `(size, height, width)`.
type Filter = (Option<u32>, Option<u32>, Option<u32>);

const ZIPF_FILTERS: [Filter; 5] = [
    (Some(3), None, None),
    (Some(6), None, None),
    (Some(9), None, None),
    (Some(8), Some(2), None),
    (None, None, Some(40)),
];
const SELECTIVE_FILTERS: [Filter; 4] = [
    (Some(3), None, None),
    (Some(6), None, None),
    (Some(8), Some(2), None),
    (None, None, Some(40)),
];
const BROAD_FILTER: Filter = (Some(9), None, None);

fn shape(terms: Vec<String>, (size, height, width): Filter) -> Shape {
    Shape {
        terms,
        size,
        height,
        width,
    }
}

/// The distinct shapes a workload's stream draws from, in a fixed order.
fn pool(kind: Kind) -> Vec<Shape> {
    let mut out = Vec::new();
    for p in 0..PAIRS {
        match kind {
            Kind::Zipf => {
                for terms in [vec![qa(p), qb(p)], vec![qa(p)]] {
                    out.extend(ZIPF_FILTERS.iter().map(|&f| shape(terms.clone(), f)));
                }
            }
            Kind::Selective => {
                let third = qa((p + 1) % PAIRS);
                for n in 1..=3 {
                    let terms = [qa(p), qb(p), third.clone()][..n].to_vec();
                    out.extend(SELECTIVE_FILTERS.iter().map(|&f| shape(terms.clone(), f)));
                }
            }
            Kind::Broad => out.push(shape(vec![qa(p), qb(p)], BROAD_FILTER)),
        }
    }
    out
}

/// Every shape a workload sends, and its untimed warm-up as indices into
/// them. The stream draws from the first [`pool`]`(kind).len()` shapes;
/// warm-up shapes outside the pool follow them. The warm-up queries every
/// planted term at least once, so lazy `.xidx` postings decode before
/// timing starts; the Zipf workloads warm every shape, which fills the
/// cache with the whole working set.
pub fn shapes(kind: Kind) -> (Vec<Shape>, Vec<usize>) {
    let mut all = pool(kind);
    let warm = match kind {
        Kind::Zipf => (0..all.len()).collect(),
        Kind::Selective | Kind::Broad => (0..PAIRS)
            .flat_map(|p| [qa(p), qb(p)])
            .map(|t| {
                let s = shape(vec![t], (Some(3), None, None));
                all.iter().position(|p| *p == s).unwrap_or_else(|| {
                    all.push(s);
                    all.len() - 1
                })
            })
            .collect(),
    };
    (all, warm)
}

/// Length of the cyclic request stream; far more than one run sends.
pub const STREAM_LEN: usize = 1 << 16;

/// Shapes per pair in the Zipf pool: {pair, single term} × filters.
const PATTERNS: usize = 2 * ZIPF_FILTERS.len();

/// The seeded request stream, as indices into [`pool`]. Zipf workloads
/// draw ranks from Zipf(1.1): rank `r` is pattern `r % 10` of the pair at
/// position `r / 10` of a seeded permutation of the pairs. The seed moves
/// popularity between pairs, which cost the same on `big`, and never
/// between patterns, which do not — so the cost mix, and with it the
/// latency percentiles, does not depend on the seed.
pub fn stream(kind: Kind, seed: u64) -> Vec<usize> {
    let pool_len = pool(kind).len();
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        Kind::Zipf => {
            let mut pairs: Vec<usize> = (0..pool_len / PATTERNS).collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.random_range(0..=i));
            }
            let zipf = Zipf::new(pool_len, 1.1);
            (0..STREAM_LEN)
                .map(|_| {
                    let r = zipf.sample(&mut rng) - 1;
                    pairs[r / PATTERNS] * PATTERNS + r % PATTERNS
                })
                .collect()
        }
        Kind::Selective | Kind::Broad => (0..STREAM_LEN)
            .map(|_| rng.random_range(0..pool_len))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_stream_and_another_seed_changes_it() {
        for (kind, shapes) in [(Kind::Zipf, 80), (Kind::Selective, 96), (Kind::Broad, 8)] {
            assert_eq!(pool(kind).len(), shapes);
            let s = stream(kind, 7);
            assert_eq!(s, stream(kind, 7));
            assert_ne!(s, stream(kind, 8));
            assert!(s.iter().all(|&i| i < shapes));
        }
    }

    #[test]
    fn requests_carry_the_shape_and_a_deadline() {
        let s = shape(vec![qa(1), qb(1)], (Some(8), Some(2), None));
        assert_eq!(
            s.request(5),
            "{\"kind\":\"query\",\"id\":5,\"keywords\":[\"qa1\",\"qb1\"],\"size\":8,\"height\":2,\"timeout_ms\":10000}"
        );
        assert_eq!(
            s.query().filter,
            FilterExpr::And(vec![FilterExpr::MaxSize(8), FilterExpr::MaxHeight(2)])
        );
    }
}

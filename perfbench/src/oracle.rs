//! Answers computed apart from the program, to check its outputs against.
//!
//! Everything here is scalar `f64` code over the raw `f32` rows: it shares
//! no kernel, selection routine or rank loop with the crates under test.

/// Absolute tolerance under which two similarities count as tied. Unit
/// vectors of at most a few hundred dimensions accumulate well under 1e-5
/// of `f32` rounding in a dot product, so hits closer than this may be
/// served in either order.
pub const TIE_TOL: f64 = 1e-5;

/// `f64` dot product of two `f32` rows, in four independent accumulators.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..4 {
            acc[l] += f64::from(x[l]) * f64::from(y[l]);
        }
    }
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// One exact hit: gallery row and its `f64` similarity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exact {
    /// Gallery row.
    pub index: usize,
    /// Exact similarity.
    pub sim: f64,
}

/// Exact top-`k` of `query` over a row-major `gallery` of width `dim`,
/// by similarity descending then index ascending.
pub fn top_k(gallery: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<Exact> {
    let mut best: Vec<Exact> = Vec::with_capacity(k + 1);
    for (index, row) in gallery.chunks_exact(dim).enumerate() {
        let sim = dot(row, query);
        if best.len() == k && best.last().is_some_and(|w| sim <= w.sim) {
            continue;
        }
        let at = best.partition_point(|h| h.sim >= sim);
        best.insert(at, Exact { index, sim });
        best.truncate(k);
    }
    best
}

/// A served hit as parsed off the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Served {
    /// Gallery row.
    pub index: usize,
    /// Similarity the server reported.
    pub similarity: f64,
}

/// Parses a `{"hits":[{"index":…,"similarity":…},…]}` body. Any other
/// shape — including a degraded sharded answer, which carries extra
/// fields — is an error.
pub fn parse_hits(body: &str) -> Result<Vec<Served>, String> {
    let inner = body
        .strip_prefix("{\"hits\":[")
        .and_then(|b| b.strip_suffix("]}"))
        .ok_or_else(|| format!("not a plain hit list: {body:.120}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split("},{")
        .map(|item| {
            let item = item.trim_start_matches('{').trim_end_matches('}');
            let (idx, sim) = item
                .strip_prefix("\"index\":")
                .and_then(|r| r.split_once(",\"similarity\":"))
                .ok_or_else(|| format!("bad hit {item:?}"))?;
            Ok(Served {
                index: idx.parse().map_err(|_| format!("bad index {idx:?}"))?,
                similarity: sim.parse().map_err(|_| format!("bad similarity {sim:?}"))?,
            })
        })
        .collect()
}

/// Checks an exact backend's answer: `k` distinct rows, each reported
/// with its true similarity, in the oracle's order up to ties within
/// [`TIE_TOL`].
pub fn check_exact(
    served: &[Served],
    oracle: &[Exact],
    gallery: &[f32],
    dim: usize,
    query: &[f32],
) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "{} hits served, {} expected",
            served.len(),
            oracle.len()
        ));
    }
    check_rows(served, gallery.len() / dim)?;
    for (pos, (s, o)) in served.iter().zip(oracle).enumerate() {
        let truth = dot(&gallery[s.index * dim..(s.index + 1) * dim], query);
        if (truth - s.similarity).abs() > TIE_TOL {
            return Err(format!(
                "hit {pos}: row {} reported {} but is {truth}",
                s.index, s.similarity
            ));
        }
        if truth < o.sim - TIE_TOL {
            return Err(format!(
                "hit {pos}: row {} ({truth}) ranks below the oracle's row {} ({})",
                s.index, o.index, o.sim
            ));
        }
    }
    Ok(())
}

/// Checks an approximate answer's shape: distinct in-range rows in
/// non-increasing reported similarity.
pub fn check_rows(served: &[Served], rows: usize) -> Result<(), String> {
    for (pos, s) in served.iter().enumerate() {
        if s.index >= rows {
            return Err(format!("hit {pos}: row {} out of range {rows}", s.index));
        }
        if served[..pos].iter().any(|p| p.index == s.index) {
            return Err(format!("hit {pos}: row {} served twice", s.index));
        }
        if pos > 0 && s.similarity > served[pos - 1].similarity {
            return Err(format!("hit {pos}: similarities out of order"));
        }
    }
    Ok(())
}

/// Share of the oracle's top-`k` that the served list recovers, counting a
/// served row whose exact similarity ties the `k`-th oracle hit (within
/// [`TIE_TOL`]) as recovered.
pub fn recall(
    served: &[Served],
    oracle: &[Exact],
    k: usize,
    gallery: &[f32],
    dim: usize,
    query: &[f32],
) -> f64 {
    let k = k.min(oracle.len());
    if k == 0 {
        return 0.0;
    }
    let floor = oracle[k - 1].sim - TIE_TOL;
    let found = served
        .iter()
        .take(k)
        .filter(|s| dot(&gallery[s.index * dim..(s.index + 1) * dim], query) >= floor)
        .count();
    found as f64 / k as f64
}

/// Unit-normalises rows in `f64`.
pub fn normalized(rows: &[f32], dim: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows.chunks_exact(dim) {
        let norm = row
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        out.extend(row.iter().map(|&x| f64::from(x) * inv));
    }
    out
}

/// Rank of each query's own match among `gallery` (1 = best), by the
/// per-pair loop: row `i` of `queries` matches row `i` of `gallery`, and
/// its rank is one plus the number of other rows strictly closer.
/// Both sets must be unit-normalised (see [`normalized`]).
pub fn naive_ranks(queries: &[f64], gallery: &[f64], dim: usize) -> Vec<usize> {
    let dot64 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let n = queries.len() / dim;
    (0..n)
        .map(|i| {
            let q = &queries[i * dim..(i + 1) * dim];
            let own = dot64(q, &gallery[i * dim..(i + 1) * dim]);
            1 + (0..n)
                .filter(|&j| j != i && dot64(q, &gallery[j * dim..(j + 1) * dim]) > own)
                .count()
        })
        .collect()
}

/// Median rank: the middle value, or the mean of the two middle values.
pub fn median_rank(ranks: &[usize]) -> f64 {
    let mut r = ranks.to_vec();
    r.sort_unstable();
    match r.len() {
        0 => 0.0,
        n if n % 2 == 1 => r[n / 2] as f64,
        n => (r[n / 2 - 1] + r[n / 2]) as f64 / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Brute force: every row scored, fully sorted.
    fn brute(gallery: &[f32], dim: usize, q: &[f32], k: usize) -> Vec<Exact> {
        let mut all: Vec<Exact> = gallery
            .chunks_exact(dim)
            .enumerate()
            .map(|(index, r)| Exact {
                index,
                sim: r
                    .iter()
                    .zip(q)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum(),
            })
            .collect();
        all.sort_by(|a, b| b.sim.total_cmp(&a.sim).then(a.index.cmp(&b.index)));
        all.truncate(k);
        all
    }

    #[test]
    fn top_k_matches_brute_force_on_tiny_inputs() {
        for (n, dim, k, seed) in [
            (1, 3, 1, 1),
            (7, 5, 3, 2),
            (40, 9, 10, 3),
            (64, 16, 64, 4),
            (5, 4, 9, 5),
        ] {
            let g = random_rows(n, dim, seed);
            let q = random_rows(1, dim, seed + 100);
            let got = top_k(&g, dim, &q, k);
            let want = brute(&g, dim, &q, k);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.index, b.index, "n={n} dim={dim} k={k}");
                assert!((a.sim - b.sim).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ties_keep_the_lowest_index_first() {
        let g = vec![1.0f32, 0.0, 0.5, 0.5, 1.0, 0.0, 0.0, 1.0];
        let got = top_k(&g, 2, &[1.0, 0.0], 3);
        let idx: Vec<usize> = got.iter().map(|h| h.index).collect();
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn exact_check_accepts_near_ties_in_either_order_and_rejects_wrong_rows() {
        // Rows 0 and 1 tie exactly; row 2 is clearly worse.
        let g = vec![1.0f32, 0.0, 1.0, 0.0, 0.0, 1.0];
        let q = [1.0f32, 0.0];
        let oracle = top_k(&g, 2, &q, 2);
        let served = |a: usize, b: usize| {
            vec![
                Served {
                    index: a,
                    similarity: dot(&g[a * 2..a * 2 + 2], &q),
                },
                Served {
                    index: b,
                    similarity: dot(&g[b * 2..b * 2 + 2], &q),
                },
            ]
        };
        assert!(check_exact(&served(0, 1), &oracle, &g, 2, &q).is_ok());
        assert!(check_exact(&served(1, 0), &oracle, &g, 2, &q).is_ok());
        assert!(check_exact(&served(0, 2), &oracle, &g, 2, &q).is_err());
        assert!(check_exact(&served(0, 0), &oracle, &g, 2, &q).is_err());
        let mut lied = served(0, 1);
        lied[1].similarity = 0.5;
        assert!(check_exact(&lied, &oracle, &g, 2, &q).is_err());
    }

    #[test]
    fn recall_counts_ties_at_the_cut() {
        let g = vec![1.0f32, 0.0, 0.9, 0.1, 0.9, 0.1, 0.0, 1.0];
        let q = [1.0f32, 0.0];
        let oracle = top_k(&g, 2, &q, 2); // rows 0 and 1; row 2 ties row 1
        let s = |i: usize, sim: f64| Served {
            index: i,
            similarity: sim,
        };
        assert_eq!(recall(&[s(0, 1.0), s(2, 0.9)], &oracle, 2, &g, 2, &q), 1.0);
        assert_eq!(recall(&[s(0, 1.0), s(3, 0.0)], &oracle, 2, &g, 2, &q), 0.5);
        assert_eq!(recall(&[s(3, 0.0)], &oracle, 1, &g, 2, &q), 0.0);
    }

    #[test]
    fn parses_server_bodies() {
        let hits = parse_hits(
            "{\"hits\":[{\"index\":3,\"similarity\":0.5},{\"index\":10,\"similarity\":-1e-3}]}",
        )
        .unwrap();
        assert_eq!(
            hits,
            vec![
                Served {
                    index: 3,
                    similarity: 0.5
                },
                Served {
                    index: 10,
                    similarity: -1e-3
                }
            ]
        );
        assert_eq!(parse_hits("{\"hits\":[]}").unwrap(), vec![]);
        assert!(
            parse_hits("{\"hits\":[{\"index\":1,\"similarity\":0.5}],\"degraded\":true}").is_err()
        );
    }

    #[test]
    fn naive_ranks_and_median() {
        // Query 0 matches gallery 0 best; query 1's own match is beaten by row 0.
        let q = normalized(&[1.0, 0.0, 1.0, 0.1], 2);
        let g = normalized(&[1.0, 0.0, 0.0, 1.0], 2);
        assert_eq!(naive_ranks(&q, &g, 2), vec![1, 2]);
        assert_eq!(median_rank(&[5, 1, 3]), 3.0);
        assert_eq!(median_rank(&[4, 1, 3, 2]), 2.5);
    }
}

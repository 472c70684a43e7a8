//! The `ann` workload: a product-quantized IVF index built over a
//! clustered gallery, saved as `CMRIVF1`, loaded, booted behind the server
//! and queried through the socket by the shared harness.

use crate::harness::{self, Stack, K};
use crate::oracle::{self, Served};
use crate::procstat::cpu_timed;
use crate::report::Run;
use crate::serve::{mix, time_us};
use crate::stats;
use crate::trace::Ledger;
use cmr_retrieval::{Embeddings, IvfIndex};
use cmr_serve::{Backend, Engine, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Gallery rows.
pub const ROWS: usize = 50_000;
/// Embedding width.
pub const DIM: usize = 32;
/// Rows per micro-cluster.
pub const CLUSTER_ROWS: usize = 10;
/// Inverted lists.
pub const NLIST: usize = 256;
/// k-means iterations of the coarse quantizer.
const IVF_ITERS: usize = 5;
/// PQ subquantizers, codewords each, k-means iterations, training rows.
pub const PQ_M: usize = 16;
const PQ_KS: usize = 256;
const PQ_ITERS: usize = 4;
pub const TRAIN_SAMPLE: usize = 20_000;
/// Lists probed per query.
pub const NPROBE: usize = 8;
/// Gallery rows the queries are perturbed from.
const POOL: usize = 4096;
/// Fixed open-loop rate, queries per second.
pub const OPEN_RATE: f64 = 400.0;
/// Set-ups per run; `setup_s` is their median, and the first
/// [`harness::PASSES`] serve. One takes about 3 s of CPU, over which the
/// machine's speed drifts, so three are too few for a steady median.
const SETUPS: usize = 4;
/// Share of the run's seconds spent serving; the set-ups take about the
/// rest.
const SERVE_SHARE: f64 = 0.5;
/// Recall@10 below this means the index is broken, not merely
/// approximate: a random ranker recovers 10 / ROWS of the true top-10.
const RECALL10_FLOOR: f64 = 0.8;

/// A clustered unit-norm gallery: random centres, each row a centre plus
/// per-coordinate noise, `CLUSTER_ROWS` rows per centre.
fn clustered_gallery(seed: u64) -> Embeddings {
    let clusters = ROWS / CLUSTER_ROWS;
    let mut rng = SmallRng::seed_from_u64(mix(seed));
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut e = Embeddings::with_capacity(DIM, ROWS);
    for i in 0..ROWS {
        let row: Vec<f32> = centers[i % clusters]
            .iter()
            .map(|&c| c + rng.gen_range(-0.35f32..0.35))
            .collect();
        e.push(&row);
    }
    e.l2_normalized()
}

/// The rows queries are perturbed from: [`POOL`] gallery rows picked by
/// hash, so the load needs no copy of the whole gallery.
fn query_pool(gallery: &Embeddings, seed: u64) -> Embeddings {
    let mut pool = Embeddings::with_capacity(DIM, POOL);
    for i in 0..POOL {
        let h = mix(seed ^ mix(i as u64 ^ 0x9001));
        pool.push(gallery.vector(h as usize % gallery.len()));
    }
    pool
}

/// Query `id`: a pool row picked by hash, perturbed, unit-normalised.
/// Every id is a distinct query, so the result cache never answers.
fn query(pool: &Embeddings, seed: u64, id: usize) -> Vec<f32> {
    let h = mix(seed ^ mix(id as u64 ^ 0xA11));
    let mut rng = SmallRng::seed_from_u64(h);
    let src = pool.vector((h >> 17) as usize % pool.len());
    let q: Vec<f32> = src
        .iter()
        .map(|&x| x + rng.gen_range(-0.05f32..0.05))
        .collect();
    let norm = q
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt() as f32;
    q.into_iter().map(|x| x / norm).collect()
}

/// Process CPU seconds of one boot's timed stages.
struct Stages {
    build: f64,
    quantize: f64,
    save: f64,
    load: f64,
    index_bytes: u64,
}

/// Gallery, index build, quantization, save to `path`, load, server boot,
/// and the connected clients. The built index is dropped once saved: the
/// server boots from the file, as it would in a process of its own.
fn boot(seed: u64, path: &Path) -> (Stack, Stages) {
    let gallery = clustered_gallery(seed);
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0x1F));
    let (flat, build) = cpu_timed(|| {
        IvfIndex::build_with_sample(gallery, NLIST, IVF_ITERS, TRAIN_SAMPLE, &mut rng)
    });
    let (index, quantize) = cpu_timed(|| {
        flat.quantize_residuals(PQ_M, PQ_KS, PQ_ITERS, TRAIN_SAMPLE, &mut rng)
            .expect("quantize residuals")
            .0
    });
    let ((), save) = cpu_timed(|| cmr_retrieval::save_index(&index, path).expect("save index"));
    drop(index);
    let index_bytes = std::fs::metadata(path).expect("index file").len();
    // One loaded copy per served direction: the engine owns its backends.
    let ((im2rec, rec2im), load) = cpu_timed(|| {
        (
            cmr_retrieval::load_index(path).expect("load index"),
            cmr_retrieval::load_index(path).expect("load index"),
        )
    });
    let backend = |index| Backend::Ivf {
        index,
        nprobe: NPROBE,
    };
    let engine = Engine::new(backend(im2rec), backend(rec2im)).expect("valid index backends");
    let server = Server::start(engine, ServeConfig::default(), "127.0.0.1:0").expect("bind server");
    (
        Stack::up(server, None),
        Stages {
            build,
            quantize,
            save,
            load,
            index_bytes,
        },
    )
}

/// Runs the `ann` workload, keeping its index file under `scratch`.
pub fn run(run: &mut Run, seed: u64, seconds: f64, trace: bool, scratch: &Path) {
    cmr_obs::set_enabled(false);
    let dir = scratch.join(format!("ann-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create index directory");
    let path = dir.join("gallery.ivf");
    let pool = query_pool(&clustered_gallery(seed), seed);
    let ask = |id: usize| query(&pool, seed, id);
    let mut stages = Vec::new();
    let (boots, mut stack) = harness::boot_and_drive(
        || {
            let (stack, s) = boot(seed, &path);
            stages.push(s);
            stack
        },
        SETUPS,
        &ask,
        OPEN_RATE,
        seconds * SERVE_SHARE,
    );
    // A copy for the in-process layer timings, outside the timed set-ups.
    let index = trace.then(|| cmr_retrieval::load_index(&path).expect("load index"));
    let _ = std::fs::remove_dir_all(&dir);

    // The checks' own copy of the gallery, made after the peak memory was
    // read.
    let gallery = clustered_gallery(seed);
    let check = |id: usize, body: &str| -> Result<(f64, f64), String> {
        let q = ask(id);
        let exact = oracle::top_k(&gallery.data, DIM, &q, K);
        let served = oracle::parse_hits(body)?;
        if served.len() != K {
            return Err(format!("{} hits, {K} asked", served.len()));
        }
        oracle::check_rows(&served, gallery.len())?;
        Ok((
            oracle::recall(&served, &exact, 1, &gallery.data, DIM, &q),
            oracle::recall(&served, &exact, K, &gallery.data, DIM, &q),
        ))
    };
    let m = boots.summarize(run, &check);
    if stats::mean(&m.r10) < RECALL10_FLOOR {
        run.fail(format!(
            "recall@10 {} below the {RECALL10_FLOOR} floor",
            stats::mean(&m.r10)
        ));
    }
    if boots.hits != 0 {
        run.fail(format!(
            "{} cache hits on a stream of distinct queries",
            boots.hits
        ));
    }
    run.fact("index_bytes", stages[0].index_bytes as f64);
    run.fact("flat_f32_bytes", (ROWS * DIM * 4) as f64);

    if !trace {
        boots.report(run, &m);
        stack.stop();
        return;
    }

    // The stages of the set-up whose total is the median, so that they and
    // the remainder add up to `setup_s`.
    let totals = boots.setups();
    let mut order: Vec<usize> = (0..totals.len()).collect();
    order.sort_by(|&a, &b| totals[a].total_cmp(&totals[b]));
    let mid = order[order.len() / 2];
    let s = &stages[mid];
    let ledger = Ledger {
        total: totals[mid],
        stages: vec![
            ("build", s.build),
            ("quantize", s.quantize),
            ("save", s.save),
            ("load", s.load),
        ],
    };
    run.metric("ivf.build_s", ledger.stages[0].1);
    run.metric("pq.quantize_s", ledger.stages[1].1);
    run.metric("store.save_s", ledger.stages[2].1);
    run.metric("store.load_s", ledger.stages[3].1);
    run.metric("setup.unaccounted_s", ledger.remainder());
    run.metric("store.index_bytes", stages[0].index_bytes as f64);

    // The same pass with the program's counters on, for the overhead.
    let (_, traced_p50) = boots.traced_pass(run, &m, &mut stack, &ask, &check, "serve.");
    stack.stop();
    let index = index.as_ref().expect("loaded for the traced run");
    let probes: Vec<Vec<f32>> = (0..256).map(|i| query(&pool, seed ^ 0x7ACE, i)).collect();

    cmr_obs::reset();
    cmr_obs::set_enabled(true);
    for p in &probes {
        index.search(p, K, NPROBE).expect("ivf search");
    }
    let snap = cmr_obs::snapshot("retrieval.");
    cmr_obs::set_enabled(false);
    let queries = snap.counter("retrieval.ivf.queries").unwrap_or(0).max(1) as f64;
    let candidates = snap
        .counter("retrieval.ivf.candidates_scanned")
        .unwrap_or(0) as f64
        / queries;
    let search_us = time_us(400, |i| {
        drop(
            index
                .search(&probes[i % probes.len()], K, NPROBE)
                .expect("ivf search"),
        )
    });
    run.metric("ivf.search_us", search_us);
    run.metric("ivf.candidates_per_query", candidates);
    run.metric(
        "ivf.scan_ns_per_candidate",
        search_us * 1e3 / candidates.max(1.0),
    );
    let max_batch = ServeConfig::default().max_batch;
    let batch = Embeddings::new(DIM, probes[..max_batch].concat());
    let batch_us = time_us(100, |_| {
        drop(
            index
                .search_batch(&batch, K, NPROBE)
                .expect("ivf batch search"),
        )
    });
    run.metric("ivf.search_batch_us", batch_us / max_batch as f64);
    let oracle_us = time_us(20, |i| {
        drop(oracle::top_k(
            &gallery.data,
            DIM,
            &probes[i % probes.len()],
            K,
        ))
    });
    run.metric("ann.oracle_ms", oracle_us / 1e3);
    // Reference figures: what quantization costs in recall, in-process on
    // the same probes. The flat index is the one the boot quantized (same
    // seed, same k-means).
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0x1F));
    let flat =
        IvfIndex::build_with_sample(gallery.clone(), NLIST, IVF_ITERS, TRAIN_SAMPLE, &mut rng);
    for (name, idx) in [("flat", &flat), ("pq", index)] {
        let (mut r1, mut r10) = (0.0, 0.0);
        for p in &probes {
            let served: Vec<Served> = idx
                .search(p, K, NPROBE)
                .expect("ivf search")
                .iter()
                .map(|h| Served {
                    index: h.index,
                    similarity: f64::from(h.similarity),
                })
                .collect();
            let exact = oracle::top_k(&gallery.data, DIM, p, K);
            r1 += oracle::recall(&served, &exact, 1, &gallery.data, DIM, p);
            r10 += oracle::recall(&served, &exact, K, &gallery.data, DIM, p);
        }
        run.fact(&format!("{name}.recall_at_1"), r1 / probes.len() as f64);
        run.fact(&format!("{name}.recall_at_10"), r10 / probes.len() as f64);
    }
    // Socket, queueing and the batcher's linger around the index search.
    run.metric("serve.residual_us", traced_p50 * 1e3 - search_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_distinct_unit_vectors() {
        let pool = query_pool(&clustered_gallery(3), 3);
        assert_eq!(pool.len(), POOL);
        let a = query(&pool, 3, 0);
        let b = query(&pool, 3, 1);
        assert_ne!(a, b);
        assert_eq!(a, query(&pool, 3, 0));
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }
}

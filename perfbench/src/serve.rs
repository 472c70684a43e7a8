//! The serving workloads: `serve` (one engine behind the batcher and the
//! result cache) and `serve_sharded` (a 3-shard fleet behind the
//! scatter-gather router), both driven through the socket by the shared
//! harness.

use crate::harness::{self, direction, Stack, K};
use crate::load;
use crate::oracle::{self, Exact};
use crate::report::Run;
use crate::stats;
use cmr_bench::serving::{synthetic_gallery, synthetic_query, Client};
use cmr_retrieval::Embeddings;
use cmr_serve::http::{read_request, write_request, Limits};
use cmr_serve::{
    render_hits, Direction, Engine, Router, RouterConfig, ServeConfig, Server, ShardFleet,
};
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufReader, Cursor};
use std::time::{Duration, Instant};

/// Rows per gallery.
pub const ROWS: usize = 20_000;
/// Embedding width.
pub const DIM: usize = 64;
/// Shards of the sharded fleet.
pub const SHARDS: usize = 3;
/// Distinct hot queries the repeats are drawn from.
const HOT: u64 = 16;
/// Set-ups per run; `setup_s` is their median. One takes some 20 ms, so
/// many are needed for a steady median.
const SETUPS: usize = 15;

/// The two serving shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// One engine, ~30% repeats.
    Single,
    /// Three shards behind the router, no repeats.
    Sharded,
}

impl Shape {
    /// Percent of queries drawn from the hot set.
    fn repeat_pct(self) -> u64 {
        match self {
            Shape::Single => 30,
            Shape::Sharded => 0,
        }
    }

    /// Fixed open-loop rate, queries per second: under half of what the
    /// closed loop sustains today, so latency is measured below the knee
    /// of the queueing curve. On `Single`, at 400 q/s a request cost 1.7
    /// times the CPU it costs at 800, spent waking threads that slept
    /// between requests, and that excess swung with the machine's load.
    pub fn open_rate(self) -> f64 {
        match self {
            Shape::Single => 800.0,
            Shape::Sharded => 150.0,
        }
    }
}

/// SplitMix64: a well-mixed hash of a 64-bit word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Which query a request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum QueryKey {
    Hot(u64),
    Cold(u64),
}

/// Deterministic request stream: request `id` alternates direction and is
/// a hot repeat or a fresh random unit vector, all derived from the seed.
struct Queries {
    seed: u64,
    repeat_pct: u64,
}

impl Queries {
    fn key(&self, id: usize) -> QueryKey {
        let h = mix(self.seed ^ mix(id as u64));
        if h % 100 < self.repeat_pct {
            QueryKey::Hot((h >> 32) % HOT)
        } else {
            QueryKey::Cold(id as u64)
        }
    }

    fn vector(&self, key: QueryKey) -> Vec<f32> {
        let salt = match key {
            QueryKey::Hot(h) => mix(h ^ 0x5EED),
            QueryKey::Cold(id) => mix(id) ^ 0xC01D,
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mix(self.seed) ^ salt);
        synthetic_query(DIM, &mut rng)
    }
}

/// The recipe and image galleries of `seed`.
fn boot_galleries(seed: u64) -> (Embeddings, Embeddings) {
    (
        synthetic_gallery(ROWS, DIM, mix(seed)),
        synthetic_gallery(ROWS, DIM, mix(seed ^ 1)),
    )
}

/// Galleries, engine or fleet, server, and the connected clients. The
/// galleries go to the program: the benchmark keeps no copy while serving.
fn boot(shape: Shape, seed: u64, cfg: ServeConfig) -> Stack {
    let (recipes, images) = boot_galleries(seed);
    match shape {
        Shape::Single => {
            let engine = Engine::exact(recipes, images).expect("valid galleries");
            Stack::up(
                Server::start(engine, cfg, "127.0.0.1:0").expect("bind server"),
                None,
            )
        }
        Shape::Sharded => {
            let fleet = ShardFleet::launch(&recipes, &images, SHARDS, &cfg).expect("launch fleet");
            drop((recipes, images));
            let router = Router::new(fleet.specs(), DIM, RouterConfig::from_serve(&cfg));
            Stack::up(
                Server::start_sharded(router, cfg, "127.0.0.1:0").expect("bind front end"),
                Some(fleet),
            )
        }
    }
}

/// Runs a serving workload.
pub fn run(run: &mut Run, shape: Shape, seed: u64, seconds: f64, trace: bool) {
    let q = Queries {
        seed,
        repeat_pct: shape.repeat_pct(),
    };
    let query = |id: usize| q.vector(q.key(id));
    cmr_obs::set_enabled(false);
    let (boots, mut stack) = harness::boot_and_drive(
        || boot(shape, seed, ServeConfig::default()),
        SETUPS,
        &query,
        shape.open_rate(),
        seconds,
    );

    // The checks' own copies, made after the peak memory was read.
    let (recipes, images) = boot_galleries(seed);
    let reference = (shape == Shape::Sharded)
        .then(|| Engine::exact(recipes.clone(), images.clone()).expect("valid galleries"));
    let gallery = |dir: Direction| match dir {
        Direction::ImToRec => &recipes,
        Direction::RecToIm => &images,
    };
    // The hot queries' exact answers, computed once: on `serve` about 30%
    // of the requests repeat one of them.
    let hot: HashMap<(u64, u8), Vec<Exact>> = (0..HOT)
        .flat_map(|h| [Direction::ImToRec, Direction::RecToIm].map(|d| (h, d)))
        .map(|(h, dir)| {
            let exact = oracle::top_k(&gallery(dir).data, DIM, &q.vector(QueryKey::Hot(h)), K);
            ((h, dir.tag()), exact)
        })
        .collect();
    let check = |id: usize, body: &str| -> Result<(f64, f64), String> {
        let key = q.key(id);
        let dir = direction(id);
        let query = q.vector(key);
        let rows = &gallery(dir).data;
        let cold;
        let exact = match key {
            QueryKey::Hot(h) => &hot[&(h, dir.tag())],
            QueryKey::Cold(_) => {
                cold = oracle::top_k(rows, DIM, &query, K);
                &cold
            }
        };
        let served = oracle::parse_hits(body)?;
        oracle::check_exact(&served, exact, rows, DIM, &query)?;
        if let Some(engine) = &reference {
            // Full coverage must render byte-identically to one engine.
            let hits = engine
                .search_one(dir, &query, K)
                .map_err(|e| format!("reference engine: {e}"))?;
            if render_hits(&hits) != body {
                return Err("sharded body differs from the single engine's".to_string());
            }
        }
        Ok((
            oracle::recall(&served, exact, 1, rows, DIM, &query),
            oracle::recall(&served, exact, K, rows, DIM, &query),
        ))
    };
    let m = boots.summarize(run, &check);

    if !trace {
        boots.report(run, &m);
        stack.stop();
        return;
    }

    // Traced run: the same pass again with the program's own counters on,
    // then each layer timed through its public functions.
    run.metric(
        "cache.hit_ratio",
        boots.hits as f64 / (boots.hits + boots.misses).max(1) as f64,
    );
    let (snap, traced_p50_ms) = boots.traced_pass(run, &m, &mut stack, &query, &check, "serve.");
    stack.stop();
    if shape == Shape::Single {
        // Reference figure: the same pass with the batcher's linger off.
        let cfg = ServeConfig {
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        };
        let mut stack = boot(shape, seed, cfg);
        let id_base = 2 << 40;
        let pass = boots.drive_again(&mut stack, &query, id_base);
        stack.stop();
        load::count_phase(run, "linger0_closed_loop", &pass.closed);
        load::count_phase(run, "linger0_open_loop", &pass.open);
        harness::check_pass(run, &pass, id_base, &check);
        run.fact(
            "linger0.ops_per_s",
            load::windowed_rate(&pass.closed, pass.closed_s, load::RATE_WINDOWS),
        );
        run.fact(
            "linger0.p50_ms",
            load::windowed_p50_ms(&pass.open, load::P50_WINDOWS),
        );
        // Against the untraced passes with the default linger.
        let (rate, p50) = m.medians();
        run.fact("linger.ops_per_s", rate);
        run.fact("linger.p50_ms", p50);
    }

    let parse_us = time_parse_us();
    run.metric("http.parse_us", parse_us);
    let render_us = time_render_us(&recipes);
    run.metric("serve.render_us", render_us);
    // Distinct probes for every timed call, so no shard's result cache
    // answers one.
    let mut qrng = rand::rngs::SmallRng::seed_from_u64(mix(seed ^ 0x7ACE));
    let probes: Vec<Vec<f32>> = (0..PROBES)
        .map(|_| synthetic_query(DIM, &mut qrng))
        .collect();
    let path_us = match shape {
        Shape::Single => {
            let batches = snap.counter("serve.batches").unwrap_or(0);
            let batched = snap.counter("serve.batched_requests").unwrap_or(0);
            run.metric("batch.mean_size", batched as f64 / batches.max(1) as f64);
            let engine = Engine::exact(recipes.clone(), images.clone()).expect("valid galleries");
            let one_us = time_us(200, |i| {
                engine
                    .search_one(direction(i), &probes[i % probes.len()], K)
                    .expect("search_one");
            });
            run.metric("engine.search_one_us", one_us);
            let max_batch = ServeConfig::default().max_batch;
            let batch = Embeddings::new(DIM, probes[..max_batch].concat());
            let per_query = time_us(50, |i| {
                drop(
                    engine
                        .search_batch(direction(i), &batch, K)
                        .expect("search_batch"),
                )
            }) / max_batch as f64;
            run.metric("engine.search_batch_us", per_query);
            let mut sims = vec![0.0f32; max_batch * ROWS];
            let transb_us = time_us(50, |_| {
                cmr_tensor::matmul::matmul_transb_into(&batch.data, &recipes.data, DIM, &mut sims);
                std::hint::black_box(&sims);
            });
            run.metric(
                "tensor.transb_gflops",
                (2 * max_batch * ROWS * DIM) as f64 / (transb_us * 1e3),
            );
            one_us + parse_us + render_us
        }
        Shape::Sharded => {
            let cfg = ServeConfig::default();
            let fleet = ShardFleet::launch(&recipes, &images, SHARDS, &cfg).expect("launch fleet");
            let router = Router::new(fleet.specs(), DIM, RouterConfig::from_serve(&cfg));
            let body = |i: usize| -> Vec<u8> {
                probes[i % probes.len()]
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .collect()
            };
            let router_us = time_us(200, |i| {
                let routed = router
                    .search(direction(i), K, &body(i))
                    .expect("router search");
                assert!(!routed.degraded(), "in-process router answer degraded");
            });
            run.metric("router.search_us", router_us);
            let spec = fleet.specs()[0];
            let mut shard = Client::connect(&spec.addr.to_string(), Duration::from_secs(10))
                .expect("connect shard");
            let rtt_us = time_us(200, |i| {
                // Past the router's probes, which every shard has cached.
                let r = shard
                    .search(direction(i).as_str(), K, &probes[250 + i])
                    .expect("shard round trip");
                assert_eq!(r.status, 200, "shard status");
            });
            drop(shard);
            run.metric("shard.rtt_us", rtt_us);
            run.metric("router.overhead_us", router_us - rtt_us);
            let (lo, hi) = cmr_serve::partition(ROWS, SHARDS)[0];
            let slice = Engine::exact(recipes.slice_rows(lo, hi), images.slice_rows(lo, hi))
                .expect("valid slices");
            let engine_us = time_us(200, |i| {
                slice
                    .search_one(direction(i), &probes[i % probes.len()], K)
                    .expect("search_one");
            });
            run.metric("shard.engine_us", engine_us);
            drop(router);
            drop(fleet);
            router_us
        }
    };
    // What the timed stages leave of the traced p50: socket, queueing,
    // the batcher's linger and, when sharded, the front end.
    run.metric("serve.residual_us", traced_p50_ms * 1e3 - path_us);
}

/// Distinct queries for the per-layer timings: enough for every call of
/// one timed function, warm-up included.
const PROBES: usize = 512;

/// Median per-call time of `f` over `reps` calls, in microseconds; each
/// call gets its own clock reading. Calls get distinct arguments: 0 to
/// `reps - 1` timed, after `reps` to `reps + 9` as warm-up.
pub fn time_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in reps..reps + 10 {
        f(i);
    }
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// `read_request` on an in-memory search request, per call (timed in
/// groups of 100 calls: one call is near the clock's resolution).
fn time_parse_us() -> f64 {
    let mut wire = Vec::new();
    let body = vec![0u8; DIM * 4];
    write_request(&mut wire, "POST", "/v1/search/im2rec?k=10", &body).expect("serialise request");
    let limits = Limits {
        max_head_bytes: 8 << 10,
        max_body_bytes: 1 << 20,
    };
    time_us(100, |_| {
        for _ in 0..100 {
            let mut r = BufReader::new(Cursor::new(&wire));
            std::hint::black_box(read_request(&mut r, &limits).expect("parse request"));
        }
    }) / 100.0
}

/// `render_hits` on a k=10 answer, per call (groups of 100).
fn time_render_us(gallery: &Embeddings) -> f64 {
    let hits = cmr_retrieval::top_k(gallery, gallery.vector(0), K);
    time_us(100, |_| {
        for _ in 0..100 {
            std::hint::black_box(render_hits(std::hint::black_box(&hits)));
        }
    }) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stream_is_deterministic_and_mixes_repeats() {
        let q = Queries {
            seed: 5,
            repeat_pct: 30,
        };
        let hot = (0..10_000)
            .filter(|&i| matches!(q.key(i), QueryKey::Hot(_)))
            .count();
        assert!((2_700..3_300).contains(&hot), "{hot} hot of 10000");
        assert_eq!(q.vector(q.key(17)), q.vector(q.key(17)));
        let none = Queries {
            seed: 5,
            repeat_pct: 0,
        };
        assert!((0..1000).all(|i| matches!(none.key(i), QueryKey::Cold(_))));
        assert_ne!(q.vector(QueryKey::Cold(1)), q.vector(QueryKey::Cold(2)));
    }
}

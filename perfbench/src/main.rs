//! The repository's benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --frozen --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! telemetry off; `--trace 1` reports the per-layer metrics instead. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the full run record goes to
//! `perfbench/out/`. A wrong output makes the command exit 1.

mod ann;
mod harness;
mod load;
mod oracle;
mod procstat;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Run;
use std::path::Path;
use std::process::ExitCode;

/// Workload names the command takes. `BENCHMARK.json` lists all but
/// `serve`: the single-engine path's CPU time swung too much from run to
/// run on the reference machine to bound (see the README). Its layers are
/// measured in the traced `serve_sharded` run instead.
const WORKLOADS: &[&str] = &["train", "serve", "serve_sharded", "ann"];

/// Per-layer metrics of the single-engine path that the traced
/// `serve_sharded` run takes from its single-engine study.
const SINGLE_ENGINE_LAYERS: &[&str] = &[
    "engine.search_one_us",
    "engine.search_batch_us",
    "tensor.transb_gflops",
    "cache.hit_ratio",
    "batch.mean_size",
    "serve.residual_us",
];

/// Where run records and scratch files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

/// Client threads and connections: one per core.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    // The run length `BENCHMARK.json` declares, so that a run without the
    // flag measures the same fixed work as the reference runs.
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let mut run = Run::new(&args.workload, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "train" => train::run(&mut run, args.seed, args.seconds, args.trace),
        "serve" => serve::run(
            &mut run,
            serve::Shape::Single,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_sharded" => {
            serve::run(
                &mut run,
                serve::Shape::Sharded,
                args.seed,
                args.seconds,
                args.trace,
            );
            if args.trace {
                let mut single = Run::new("serve", args.seed, args.seconds, true);
                serve::run(
                    &mut single,
                    serve::Shape::Single,
                    args.seed,
                    args.seconds,
                    true,
                );
                run.absorb(single, "single.", SINGLE_ENGINE_LAYERS);
            }
        }
        "ann" => ann::run(&mut run, args.seed, args.seconds, args.trace, out),
        _ => unreachable!("workload validated by parse_args"),
    }
    match run.save(out) {
        Ok(path) => eprintln!("perfbench: run record {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the run record: {e}"),
    }
    println!("{}", run.result_line());
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong outputs, see the run record");
        ExitCode::from(1)
    }
}

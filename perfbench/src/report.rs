//! A run's results: the metrics, the operations attempted and failed per
//! phase, correctness failures, and the run record written beside them.

use crate::stats::{self, Summary};
use cmr_bench::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics, `(name, unit)`, reported by every workload's
/// untraced run; the list `BENCHMARK.json` declares.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("recall_at_1", "fraction"),
    ("recall_at_10", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("trace.overhead_pct", "%"),
    ("data.generate_s", "s"),
    ("word2vec.train_s", "s"),
    ("adamine.features_s", "s"),
    ("adamine.steps", "count"),
    ("adamine.gather_ms", "ms"),
    ("adamine.forward_ms", "ms"),
    ("adamine.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("nn.adam_step_ms", "ms"),
    ("adamine.val_ms", "ms"),
    ("fit.unaccounted_s", "s"),
    ("adamine.embed_split_s", "s"),
    ("retrieval.eval_bags_s", "s"),
    ("eval.unaccounted_s", "s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.threads", "count"),
    ("http.parse_us", "us"),
    ("engine.search_one_us", "us"),
    ("serve.render_us", "us"),
    ("engine.search_batch_us", "us"),
    ("tensor.transb_gflops", "GFLOP/s"),
    ("cache.hit_ratio", "fraction"),
    ("batch.mean_size", "count"),
    ("serve.residual_us", "us"),
    ("router.search_us", "us"),
    ("shard.rtt_us", "us"),
    ("shard.engine_us", "us"),
    ("router.overhead_us", "us"),
    ("ivf.build_s", "s"),
    ("pq.quantize_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.index_bytes", "bytes"),
    ("setup.unaccounted_s", "s"),
    ("ivf.search_us", "us"),
    ("ivf.candidates_per_query", "count"),
    ("ivf.scan_ns_per_candidate", "ns"),
    ("ivf.search_batch_us", "us"),
    ("ann.oracle_ms", "ms"),
];

/// Correctness failures kept verbatim in the record (the count is exact).
const KEPT_FAILURES: usize = 20;

/// Operations of one phase.
struct Phase {
    name: String,
    attempted: usize,
    failed: usize,
}

/// Everything one invocation measured and checked.
pub struct Run {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    facts: Vec<(String, f64)>,
    phases: Vec<Phase>,
    failures: Vec<String>,
    failure_count: usize,
    errors: Vec<String>,
}

impl Run {
    /// An empty run of `workload`.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            facts: Vec::new(),
            phases: Vec::new(),
            failures: Vec::new(),
            failure_count: 0,
            errors: Vec::new(),
        }
    }

    /// Records a metric value; the name must be declared in
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records the repeats behind a metric (kept in the run record).
    pub fn samples(&mut self, name: &'static str, values: &[f64]) {
        self.samples.insert(name, values.to_vec());
    }

    /// Records a supporting figure for the run record only.
    pub fn fact(&mut self, name: &str, value: f64) {
        self.facts.push((name.to_string(), value));
    }

    /// Records a phase's attempted and failed operations.
    pub fn phase(&mut self, name: &str, attempted: usize, failed: usize) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    /// Records an operation error (the phase counts it as failed).
    pub fn note_error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Records a wrong output: the run is not correct.
    pub fn fail(&mut self, msg: String) {
        self.failure_count += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Takes in the run of a study made inside this one: the `metrics`
    /// it measured, and its facts, phases, errors and wrong outputs under
    /// `prefix`.
    pub fn absorb(&mut self, other: Run, prefix: &str, metrics: &[&'static str]) {
        for &name in metrics {
            if let Some(&v) = other.metrics.get(name) {
                self.metric(name, v);
            }
        }
        for (name, v) in other.facts {
            self.fact(&format!("{prefix}{name}"), v);
        }
        for p in other.phases {
            self.phase(&format!("{prefix}{}", p.name), p.attempted, p.failed);
        }
        for e in other.errors {
            self.note_error(format!("{prefix}{e}"));
        }
        // Wrong outputs past the ones kept verbatim still count.
        let unkept = other.failure_count - other.failures.len();
        for f in other.failures {
            self.fail(format!("{prefix}{f}"));
        }
        self.failure_count += unkept;
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failure_count == 0
    }

    fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The declared metrics of this run's kind, in declaration order. An
    /// end-to-end metric a workload failed to record is a bug in the
    /// benchmark; a per-layer one is a layer the workload does not reach.
    fn reported(&self) -> Vec<(&'static str, &'static str, f64)> {
        let declared = if self.trace { PER_LAYER } else { END_TO_END };
        declared
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if self.trace => 0.0,
                    None => panic!("workload {} did not report {name}", self.workload),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The one-line result object.
    pub fn result_line(&self) -> String {
        let metrics = Json::obj(self.reported().into_iter().map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", value.to_json()), ("unit", unit.to_json())]),
            )
        }));
        let line = Json::obj([
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted().to_json()),
            ("failed", self.failed().to_json()),
            ("metrics", metrics),
        ]);
        line.pretty().lines().map(str::trim).collect()
    }

    /// The full run record: machine, settings, every metric with its
    /// repeats, per-phase operation counts, supporting figures, failures.
    pub fn record(&self) -> Json {
        let summary = |s: Summary| {
            Json::obj([
                ("repeats", s.n.to_json()),
                ("q1", s.q1.to_json()),
                ("median", s.median.to_json()),
                ("q3", s.q3.to_json()),
            ])
        };
        let metrics = Json::obj(self.reported().into_iter().map(|(name, unit, value)| {
            let repeats = self
                .samples
                .get(name)
                .cloned()
                .unwrap_or_else(|| vec![value]);
            (
                name,
                Json::obj([
                    ("value", value.to_json()),
                    ("unit", unit.to_json()),
                    ("repeats", summary(stats::summarize(&repeats))),
                ]),
            )
        }));
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj([
                        ("phase", p.name.to_json()),
                        ("attempted", p.attempted.to_json()),
                        ("succeeded", (p.attempted - p.failed).to_json()),
                        ("failed", p.failed.to_json()),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("machine", machine()),
            ("workload", self.workload.to_json()),
            ("seed", self.seed.to_json()),
            ("seconds", self.seconds.to_json()),
            ("trace", self.trace.to_json()),
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted().to_json()),
            ("failed", self.failed().to_json()),
            ("metrics", metrics),
            ("phases", phases),
            (
                "facts",
                Json::obj(self.facts.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            ("wrong_outputs", self.failure_count.to_json()),
            (
                "wrong_output_examples",
                Json::arr(self.failures.iter().cloned()),
            ),
            ("operation_errors", Json::arr(self.errors.iter().cloned())),
        ])
    }

    /// Writes the run record under `dir` and returns its path.
    pub fn save(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        std::fs::write(&path, self.record().pretty())?;
        Ok(path)
    }
}

/// Output of a short command, trimmed; `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine fingerprint a result depends on.
fn machine() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("cores", crate::client_threads().to_json()),
        ("cpu_model", cpu_model.to_json()),
        ("rustc", command_line("rustc", &["-V"]).to_json()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).to_json(),
        ),
        (
            "cmr_num_threads",
            std::env::var("CMR_NUM_THREADS")
                .unwrap_or_else(|_| "unset".to_string())
                .to_json(),
        ),
        (
            "tensor_threads",
            cmr_tensor::threading::num_threads().to_json(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_every_declared_metric() {
        let mut run = Run::new("t", 1, 1.0, false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            run.metric(name, i as f64 + 0.5);
        }
        run.phase("a", 10, 1);
        run.phase("b", 5, 0);
        let line = run.result_line();
        assert!(!line.contains('\n'));
        assert!(
            line.starts_with("{\"correct\": true,\"attempted\": 15,\"failed\": 1,\"metrics\": {"),
            "{line}"
        );
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        run.fail("wrong".into());
        assert!(run.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_runs_report_unreached_layers_as_zero() {
        let mut run = Run::new("t", 1, 1.0, true);
        run.metric("http.parse_us", 1.25);
        let line = run.result_line();
        assert!(line.contains("\"http.parse_us\": {\"value\": 1.25"));
        assert!(line.contains("\"ivf.build_s\": {\"value\": 0,"));
    }

    #[test]
    fn an_absorbed_study_adds_its_chosen_metrics_operations_and_failures() {
        let mut run = Run::new("t", 1, 1.0, true);
        run.metric("router.search_us", 9.0);
        run.phase("open_loop", 10, 0);
        let mut study = Run::new("s", 1, 1.0, true);
        study.metric("cache.hit_ratio", 0.3);
        study.metric("router.search_us", 1.0);
        study.phase("open_loop", 4, 1);
        for i in 0..KEPT_FAILURES + 3 {
            study.fail(format!("wrong {i}"));
        }
        run.absorb(study, "single.", &["cache.hit_ratio"]);
        assert_eq!(run.metrics["cache.hit_ratio"], 0.3);
        assert_eq!(run.metrics["router.search_us"], 9.0);
        assert_eq!((run.attempted(), run.failed()), (14, 1));
        assert_eq!(run.phases[1].name, "single.open_loop");
        assert_eq!(run.failure_count, KEPT_FAILURES + 3);
        assert!(!run.correct());
    }
}

//! The `train` workload: one Table 3 row — AdaMine trained at default
//! scale for a few epochs spanning the frozen and the fine-tuning phase,
//! then scored by the 10-bag 1k test protocol.

use crate::oracle;
use crate::procstat::{self, cpu_timed, Cpu};
use crate::report::Run;
use crate::serve::mix;
use crate::stats::{self, percentile};
use crate::trace::{self, Ledger, Tracer};
use cmr_adamine::{
    losses, BatchInputs, FaultPlan, LossKind, RecipeFeatures, Scenario, SentenceFeaturizer,
    TrainConfig, TrainedModel, Trainer, TwoBranchModel,
};
use cmr_data::{BatchSampler, DataConfig, Dataset, Scale, Split};
use cmr_nn::{Adam, Bindings};
use cmr_retrieval::{evaluate_bags, BagConfig, Embeddings, ProtocolReport};
use cmr_tensor::{Graph, TensorData};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Epochs per fit: one with the backbone frozen, two fine-tuning.
pub const EPOCHS: usize = 3;
/// Epochs with the backbone frozen.
pub const FREEZE_EPOCHS: usize = 1;
/// Bags of 1k behind the quality metrics.
const METRIC_BAGS: usize = 100;
/// Dataset generations before each fit-and-score round; `setup_s` is the
/// median of all of them in the run. One takes about 0.25 s of CPU, and the
/// machine's speed drifts over seconds, so the set-ups are spread over the
/// run rather than taken back to back.
const SETUPS_PER_ROUND: usize = 3;

/// The default-scale world with its default seed: the workload is one
/// dataset, as the paper's is Recipe1M.
fn data_config() -> DataConfig {
    DataConfig::for_scale(Scale::Default)
}

/// The default training configuration, seed included, cut to [`EPOCHS`]:
/// every run trains the same model, and `--seed` draws the test bags. (A
/// per-run training seed would make the quality metrics measure
/// initialisation luck: over seeds 1-5, R@1 at 1k spread by 20%.)
fn train_config() -> TrainConfig {
    let mut cfg = Scenario::AdaMine.apply_to(TrainConfig::default());
    cfg.epochs = EPOCHS;
    cfg.freeze_epochs = FREEZE_EPOCHS;
    cfg
}

fn bag_seed(seed: u64) -> u64 {
    mix(seed ^ 0xBA65)
}

/// One fit-and-score round's figures.
struct Round {
    fit_s: f64,
    steps: usize,
    /// Wall time of each step inside `fit`, in ms.
    step_ms: Vec<f64>,
    embed_s: f64,
    bags_s: f64,
    eval_s: f64,
    report: ProtocolReport,
    best_val_medr: f64,
    cpu: Cpu,
}

/// Trains and scores once. Step times come from the trainer's per-batch
/// fault hook, which fires once per step after the loss; a hook that never
/// injects anything serves as a clock. Intervals between consecutive
/// batches of one epoch are exactly one step each.
/// Returns the round's figures, the trained model and its test-split
/// embeddings.
fn round(dataset: &Dataset, seed: u64) -> (Round, TrainedModel, (Embeddings, Embeddings)) {
    let ticks: Rc<RefCell<Vec<(usize, usize, Instant)>>> = Rc::default();
    let clock = Rc::clone(&ticks);
    let plan = FaultPlan::none().with_nan_loss(move |epoch, batch| {
        clock.borrow_mut().push((epoch, batch, Instant::now()));
        false
    });
    let trainer = Trainer::new(Scenario::AdaMine, train_config())
        .quiet()
        .with_fault_plan(plan);
    let cpu0 = Cpu::now();
    let t = Instant::now();
    let trained = trainer.fit(dataset).expect("AdaMine training");
    let fit_s = t.elapsed().as_secs_f64();
    let ticks = ticks.borrow();
    let step_ms = ticks
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1 + 1 == w[1].1)
        .map(|w| (w[1].2 - w[0].2).as_secs_f64() * 1e3)
        .collect();

    let t = Instant::now();
    let test = trained.embed_split(dataset, Split::Test);
    let embed_s = t.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let bags = BagConfig::paper_1k().clamped(test.0.len());
    let report = evaluate_bags(
        &test.0,
        &test.1,
        bags,
        &mut SmallRng::seed_from_u64(bag_seed(seed)),
    )
    .expect("bag config fits the test split");
    let bags_s = t2.elapsed().as_secs_f64();
    let eval_s = t.elapsed().as_secs_f64();
    let round = Round {
        fit_s,
        steps: ticks.len(),
        step_ms,
        embed_s,
        bags_s,
        eval_s,
        report,
        best_val_medr: trained.best_val_medr,
        cpu: Cpu::now().since(cpu0),
    };
    (round, trained, test)
}

/// One direction's protocol figures: mean MedR, mean R@1 and mean R@10
/// over the bags, the recalls as fractions.
type Figures = (f64, f64, f64);

/// Recomputes the protocol both ways from the embeddings with the per-pair
/// rank loop over the same bags: `[im→rec, rec→im]`.
fn naive_protocol(
    images: &Embeddings,
    recipes: &Embeddings,
    bags: BagConfig,
    seed: u64,
) -> [Figures; 2] {
    let dim = images.dim;
    let img = oracle::normalized(&images.data, dim);
    let rec = oracle::normalized(&recipes.data, dim);
    let gather = |rows: &[f64], ids: &[usize]| -> Vec<f64> {
        ids.iter()
            .flat_map(|&i| rows[i * dim..(i + 1) * dim].iter().copied())
            .collect()
    };
    // The bags are drawn exactly as the protocol draws them.
    let mut rng = SmallRng::seed_from_u64(bag_seed(seed));
    let mut indices: Vec<usize> = (0..images.len()).collect();
    let mut sums = [(0.0, 0.0, 0.0); 2];
    for _ in 0..bags.n_bags {
        indices.shuffle(&mut rng);
        let bag = &indices[..bags.bag_size];
        let (bag_img, bag_rec) = (gather(&img, bag), gather(&rec, bag));
        for (sum, (queries, gallery)) in sums
            .iter_mut()
            .zip([(&bag_img, &bag_rec), (&bag_rec, &bag_img)])
        {
            let ranks = oracle::naive_ranks(queries, gallery, dim);
            let share =
                |k: usize| ranks.iter().filter(|&&r| r <= k).count() as f64 / ranks.len() as f64;
            sum.0 += oracle::median_rank(&ranks);
            sum.1 += share(1);
            sum.2 += share(10);
        }
    }
    let n = bags.n_bags as f64;
    sums.map(|(medr, r1, r10)| (medr / n, r1 / n, r10 / n))
}

/// Checks the first round against the independent recomputation and the
/// properties a trained model must have, and later rounds against the
/// first.
fn check(run: &mut Run, rounds: &[Round], test: &(Embeddings, Embeddings), seed: u64) {
    let first = &rounds[0];
    let bags = BagConfig::paper_1k().clamped(test.0.len());
    let naive = naive_protocol(&test.0, &test.1, bags, seed);
    let report = &first.report;
    for (way, got, (medr, r1, r10)) in [
        ("im2rec", &report.im2rec, naive[0]),
        ("rec2im", &report.rec2im, naive[1]),
    ] {
        // Independent f64 ranks may break near-ties the other way; a
        // handful of such pairs moves a bag's median by at most half a
        // rank.
        if (medr - got.medr_mean).abs() > 0.5 {
            run.fail(format!(
                "{way} MedR {} but the per-pair loop gives {medr}",
                got.medr_mean
            ));
        }
        for (name, ours, theirs) in [
            ("R@1", r1, got.r1_mean / 100.0),
            ("R@10", r10, got.r10_mean / 100.0),
        ] {
            if (ours - theirs).abs() > 0.002 {
                run.fail(format!(
                    "{way} {name} {theirs} but the per-pair loop gives {ours}"
                ));
            }
        }
        // A random ranker's MedR is about bag_size / 2; a trained model
        // must beat it at least twofold.
        if got.medr_mean > bags.bag_size as f64 / 4.0 {
            run.fail(format!(
                "{way} MedR {} is not far below a random ranker's ~{}",
                got.medr_mean,
                bags.bag_size / 2
            ));
        }
    }
    run.fact("medr_1k_independent", naive[0].0);
    run.fact("medr_1k_rec2im_independent", naive[1].0);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.report != first.report || r.best_val_medr.to_bits() != first.best_val_medr.to_bits() {
            run.fail(format!("round {i} differs from round 0 with the same seed"));
        }
    }
}

/// Runs the `train` workload.
pub fn run(run: &mut Run, seed: u64, seconds: f64, trace: bool) {
    cmr_obs::set_enabled(false);
    // Set-up is timed as process CPU, which steal by other tenants of the
    // machine does not stretch; wall time goes to the run record. Each
    // generation replaces the last, so one dataset is alive at a time.
    let (mut setups, mut setup_wall) = (Vec::new(), Vec::new());
    let mut set_up = |old: Option<Dataset>| -> Dataset {
        let mut dataset = old;
        for _ in 0..SETUPS_PER_ROUND {
            drop(dataset.take());
            let t = Instant::now();
            let (d, cpu_s) = cpu_timed(|| Dataset::generate(&data_config()));
            setup_wall.push(t.elapsed().as_secs_f64());
            setups.push(cpu_s);
            dataset = Some(d);
        }
        dataset.expect("at least one set-up")
    };

    // Whole rounds for as long as the run lasts, stopping at the round
    // boundary nearest to `seconds`; traced runs need one.
    let start = Instant::now();
    let mut dataset = set_up(None);
    let (first, trained, test) = round(&dataset, seed);
    let mut rounds = vec![first];
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if trace || elapsed + per_round / 2.0 >= seconds {
            break;
        }
        dataset = set_up(Some(dataset));
        // Later rounds keep only their figures, so peak memory does not
        // depend on how many rounds fit in the run.
        rounds.push(round(&dataset, seed).0);
    }
    run.samples("setup_s", &setups);
    run.fact("setup_wall_s", stats::median(&setup_wall));
    run.phase("fit_and_score", rounds.len(), 0);
    // Before the checks allocate their own copies.
    let peak_rss_mb = procstat::peak_rss_mb();
    check(run, &rounds, &test, seed);

    let fit: Vec<f64> = rounds.iter().map(|r| r.fit_s).collect();
    let eval: Vec<f64> = rounds.iter().map(|r| r.eval_s).collect();
    let steps = rounds[0].steps;
    let step_ms = stats::sorted(
        &rounds
            .iter()
            .flat_map(|r| r.step_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let rep = &rounds[0].report.im2rec;
    run.fact("steps_per_s", steps as f64 / stats::median(&fit));
    run.fact("rounds", rounds.len() as f64);
    run.fact("steps_per_fit", steps as f64);
    run.fact("fit_s", stats::median(&fit));
    run.fact("eval_s", stats::median(&eval));
    run.fact("medr_1k", rep.medr_mean);
    run.fact("medr_1k_rec2im", rounds[0].report.rec2im.medr_mean);
    run.fact("best_val_medr", rounds[0].best_val_medr);
    run.fact("step_samples", step_ms.len() as f64);
    run.fact("step_p50_ms", percentile(&step_ms, 0.5));
    run.fact(
        "step_p50_ms.least_round",
        stats::least(
            &rounds
                .iter()
                .map(|r| stats::median(&r.step_ms))
                .collect::<Vec<_>>(),
        ),
    );
    run.fact("step_p99_ms", percentile(&step_ms, 0.99));

    if !trace {
        run.metric("setup_s", stats::median(&setups));
        let round_cpu: Vec<f64> = rounds.iter().map(|r| r.cpu.total_s()).collect();
        run.samples("cpu_s", &round_cpu);
        run.metric("cpu_s", stats::median(&round_cpu));
        // The paper's 10 bags put the bag draw's noise, some 10% of R@1
        // at this MedR, on top of the model's quality: the quality metrics
        // average [`METRIC_BAGS`] bags of the same size, both directions,
        // from the protocol code the check above verified on 10.
        let bags = BagConfig {
            n_bags: METRIC_BAGS,
            ..BagConfig::paper_1k().clamped(test.0.len())
        };
        let mut rng = SmallRng::seed_from_u64(bag_seed(seed) ^ 0xB465);
        let many =
            evaluate_bags(&test.0, &test.1, bags, &mut rng).expect("bags fit the test split");
        run.metric(
            "recall_at_1",
            (many.im2rec.r1_mean + many.rec2im.r1_mean) / 200.0,
        );
        run.metric(
            "recall_at_10",
            (many.im2rec.r10_mean + many.rec2im.r10_mean) / 200.0,
        );
        run.metric("peak_rss_mb", peak_rss_mb);
        return;
    }

    let r = &rounds[0];
    run.metric("process.user_s", r.cpu.user_s);
    run.metric("process.sys_s", r.cpu.sys_s);
    run.metric("data.generate_s", stats::median(&setups));
    run.metric("adamine.embed_split_s", r.embed_s);
    run.metric("retrieval.eval_bags_s", r.bags_s);
    run.metric(
        "eval.unaccounted_s",
        Ledger {
            total: r.eval_s,
            stages: vec![("embed", r.embed_s), ("bags", r.bags_s)],
        }
        .remainder(),
    );
    run.metric(
        "tensor.threads",
        cmr_tensor::threading::num_threads() as f64,
    );
    run.metric("tensor.matmul_gflops", matmul_gflops(&dataset, &trained));
    replay(run, &dataset, r, &trained);
}

/// GFLOP/s of `matmul` at the largest product of a training step: the
/// image adapter's `(batch × image_dim) · (image_dim × adapter_hidden)`.
fn matmul_gflops(dataset: &Dataset, trained: &TrainedModel) -> f64 {
    let tcfg = train_config();
    let (m, k, n) = (
        tcfg.batch_size,
        dataset.image_dim,
        trained.model.config().adapter_hidden,
    );
    let a = TensorData::new(m, k, (0..m * k).map(|i| (i % 7) as f32 * 0.1).collect());
    let b = TensorData::new(k, n, (0..k * n).map(|i| (i % 5) as f32 * 0.1).collect());
    let us = crate::serve::time_us(200, |_| {
        std::hint::black_box(cmr_tensor::matmul::matmul(&a, &b));
    });
    (2 * m * k * n) as f64 / (us * 1e3)
}

/// Re-runs the fit's stages through each layer's public functions with a
/// span around every call, and splits the untraced `fit` time into them.
fn replay(run: &mut Run, dataset: &Dataset, untraced: &Round, trained: &TrainedModel) {
    let tcfg = train_config();
    let mcfg = trained.model.config().clone();
    let tr = Tracer::default();
    let mut rng = SmallRng::seed_from_u64(tcfg.seed);

    let w2v_cfg = cmr_word2vec::SgnsConfig {
        dim: mcfg.word_dim,
        epochs: tcfg.w2v_epochs,
        ..Default::default()
    };
    let wv = tr.span("word2vec.train", || {
        cmr_word2vec::train(
            &dataset.word2vec_corpus(),
            dataset.world.vocab.len(),
            &w2v_cfg,
            &mut rng,
        )
    });
    let feats = tr.span("adamine.features", || {
        let featurizer = SentenceFeaturizer::new(&mut rng, mcfg.word_dim, mcfg.sent_feat_dim);
        RecipeFeatures::build(
            dataset,
            &wv,
            &featurizer,
            mcfg.max_ingredients,
            mcfg.max_sentences,
        )
    });

    let mut model = TwoBranchModel::new(&mcfg, &wv, dataset.image_dim);
    let mut adam = Adam::new(tcfg.lr);
    let mut sampler = BatchSampler::new(dataset, Split::Train, tcfg.batch_size);
    let mut val_ids: Vec<usize> = dataset.split_range(Split::Val).collect();
    val_ids.truncate(tcfg.val_subset);
    let LossKind::Triplet { semantic, .. } = tcfg.loss else {
        unreachable!("AdaMine trains with triplet losses")
    };
    for epoch in 0..tcfg.epochs {
        model.set_backbone_frozen(epoch < tcfg.freeze_epochs);
        for _ in 0..sampler.batches_per_epoch() {
            tr.span("step", || {
                let (ids, inputs) = tr.span("adamine.gather", || {
                    let ids = sampler.next_batch(&mut rng);
                    let inputs = BatchInputs::gather(dataset, &feats, &ids);
                    (ids, inputs)
                });
                let labels: Vec<Option<usize>> =
                    ids.iter().map(|&i| dataset.recipes[i].label).collect();
                let mut g = Graph::new();
                let mut binds = Bindings::new();
                let (img, rec) = tr.span("adamine.forward", || {
                    model.forward_batch(&mut g, &mut binds, &inputs)
                });
                let loss = tr.span("adamine.loss", || {
                    let d_ir = losses::cosine_distance_matrix(&mut g, img, rec);
                    let d_ri = losses::cosine_distance_matrix(&mut g, rec, img);
                    let a = losses::instance_hinge(&mut g, d_ir, tcfg.margin);
                    let b = losses::instance_hinge(&mut g, d_ri, tcfg.margin);
                    let mut total = losses::combine_directions(&mut g, a, b, tcfg.strategy);
                    let masks = (
                        losses::semantic_masks(&labels, &mut rng),
                        losses::semantic_masks(&labels, &mut rng),
                    );
                    if let (true, Some((p1, n1)), Some((p2, n2))) = (semantic, masks.0, masks.1) {
                        let a = losses::semantic_hinge(&mut g, d_ir, &p1, &n1, tcfg.margin);
                        let b = losses::semantic_hinge(&mut g, d_ri, &p2, &n2, tcfg.margin);
                        if let Some(sem) = losses::combine_directions(&mut g, a, b, tcfg.strategy) {
                            let weighted = g.scale(sem, tcfg.lambda);
                            total = Some(match total {
                                Some(t) => g.add(t, weighted),
                                None => weighted,
                            });
                        }
                    }
                    total
                });
                if let Some(loss) = loss.filter(|&l| g.value(l).scalar().is_finite()) {
                    tr.span("tensor.backward", || g.backward(loss));
                    tr.span("nn.adam_step", || adam.step(&mut model.store, &g, &binds));
                }
            });
        }
        tr.span("adamine.val", || {
            let (imgs, recs) = embed(&model, dataset, &feats, &val_ids);
            let (i, r) = (imgs.l2_normalized(), recs.l2_normalized());
            std::hint::black_box(cmr_retrieval::median_rank(
                &cmr_retrieval::ranks_of_matches(&i, &r),
            ));
            std::hint::black_box(cmr_retrieval::median_rank(
                &cmr_retrieval::ranks_of_matches(&r, &i),
            ));
        });
    }

    let t = trace::totals(&tr.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let steps = get("step");
    run.metric("word2vec.train_s", get("word2vec.train").total_s);
    run.metric("adamine.features_s", get("adamine.features").total_s);
    run.metric("adamine.steps", untraced.steps as f64);
    let per_step = |name: &str| get(name).total_s * 1e3 / steps.count.max(1) as f64;
    run.metric("adamine.gather_ms", per_step("adamine.gather"));
    run.metric("adamine.forward_ms", per_step("adamine.forward"));
    run.metric("adamine.loss_ms", per_step("adamine.loss"));
    run.metric("tensor.backward_ms", per_step("tensor.backward"));
    run.metric("nn.adam_step_ms", per_step("nn.adam_step"));
    run.metric("adamine.val_ms", get("adamine.val").mean_ms());

    // The untraced fit, split into the traced stages. A step's self time
    // (labels, graph set-up) is its own stage.
    let ledger = Ledger {
        total: untraced.fit_s,
        stages: vec![
            ("word2vec", get("word2vec.train").total_s),
            ("features", get("adamine.features").total_s),
            ("gather", get("adamine.gather").total_s),
            ("forward", get("adamine.forward").total_s),
            ("loss", get("adamine.loss").total_s),
            ("backward", get("tensor.backward").total_s),
            ("adam", get("nn.adam_step").total_s),
            ("step_glue", steps.self_s),
            ("validation", get("adamine.val").total_s),
        ],
    };
    run.metric("fit.unaccounted_s", ledger.remainder());
    let untraced_step_ms = stats::median(&untraced.step_ms);
    let traced_step_ms = stats::median(
        &tr.spans()
            .iter()
            .filter(|s| s.name == "step")
            .map(|s| (s.end - s.start) * 1e3)
            .collect::<Vec<_>>(),
    );
    run.metric(
        "trace.overhead_pct",
        (traced_step_ms / untraced_step_ms - 1.0) * 100.0,
    );
}

/// Embeds `ids` the way the trainer's validation does: forward passes in
/// chunks of 512 pairs.
fn embed(
    model: &TwoBranchModel,
    dataset: &Dataset,
    feats: &RecipeFeatures,
    ids: &[usize],
) -> (Embeddings, Embeddings) {
    let dim = model.config().latent_dim;
    let mut imgs = Embeddings::with_capacity(dim, ids.len());
    let mut recs = Embeddings::with_capacity(dim, ids.len());
    for chunk in ids.chunks(512) {
        let inputs = BatchInputs::gather(dataset, feats, chunk);
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (img, rec) = model.forward_batch(&mut g, &mut binds, &inputs);
        for r in 0..chunk.len() {
            imgs.push(g.value(img).row(r));
            recs.push(g.value(rec).row(r));
        }
    }
    (imgs, recs)
}

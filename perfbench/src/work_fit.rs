//! `fit`: what `hics fit --index vptree` does on planted-block data
//! (N = 1e4, d = 20, paper defaults). The fitted artifact's quality is the
//! AUC of its scores on novel labelled points; the search's unit of work,
//! one Monte-Carlo contrast evaluation, gives the latency figures.

use crate::inputs;
use crate::layers::{self, PhaseObserver};
use crate::report::Outcome;
use crate::stats;
use crate::Ctx;
use hics_core::contrast::WelchDeviation;
use hics_core::{ContrastEstimator, FitObserver, SliceSizing};
use hics_data::csv::{read_csv_file, write_csv_file};
use hics_outlier::{Engine, PrecomputedHoods};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 10_000;
const D: usize = 20;
/// Planted blocks 4 wide: five correlated 4-d blocks for every seed.
const BLOCKS: (usize, usize) = (4, 4);
/// Input loads per batch; `setup_s` is the median over the batches, one
/// before the fits and one after each.
const LOADS: usize = 5;
/// Novel labelled points scored after the fit, for `auc_pct`.
const POOL: usize = 500;
/// Contrast evaluations timed for `p50_ms`/`p99_ms` (ten beyond p99).
const EVALS: usize = 1000;
/// The evaluations run in this many equal parts: one before the fits and
/// one after each of the first three.
const EVAL_SLOTS: usize = 4;
/// Subspaces in the single-threaded contrast replay (M = 50 draws each).
const REPLAY_SUBSPACES: usize = 60;
/// Points replayed through `Engine::score_batch` for the engine layer.
const REPLAY_POINTS: usize = 64;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let g = inputs::planted(N, D, BLOCKS, None, ctx.seed);
    let csv = ctx.work.path("fit.csv");
    write_csv_file(&csv, &g.dataset, Some(&g.labels)).expect("write input csv");
    // Loads are spread over the run, so a few seconds of host slowdown
    // move one batch rather than the median.
    let mut loads = Vec::new();
    let mut load_batch = || {
        let mut input = None;
        for _ in 0..LOADS {
            let t = Instant::now();
            input = Some(read_csv_file(&csv, true, true).expect("read input csv"));
            loads.push(t.elapsed().as_secs_f64());
        }
        input.expect("at least one load")
    };
    let input = load_batch();
    let data = input.dataset;
    let labels = input.labels.expect("labelled input");

    // Latency: the search's unit of work, one Monte-Carlo contrast
    // evaluation (`ContrastEstimator::contrast`, M = 50 slices and tests),
    // timed one by one on a single thread over seed-chosen 2–4-d subspaces.
    // Like the loads, the evaluations are spread between the fits.
    let test = WelchDeviation;
    let est = ContrastEstimator::new(&data, 50, 0.1, SliceSizing::PaperRoot, &test);
    let candidates = layers::seeded_subspaces(D, EVALS, ctx.seed);
    let mut slots = candidates.chunks(EVALS / EVAL_SLOTS);
    let mut lat = Vec::with_capacity(EVALS);
    let mut eval_slot = || {
        for sub in slots.next().into_iter().flatten() {
            let t = Instant::now();
            black_box(est.contrast(sub, ctx.seed));
            lat.push(t.elapsed().as_secs_f64() * 1e3);
        }
    };
    eval_slot();

    // Fits until the measured seconds are used, at least three so that
    // `fit_s` is a median and the artifact can be checked for determinism.
    // A traced run makes four: the third carries the observer, and its
    // overhead is taken against the warm untraced fits on either side of it.
    let threads = ctx.nproc;
    let min_fits = if ctx.trace { 4 } else { 3 };
    let mut fit_s = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let mut traced = None;
    let t = Instant::now();
    while fit_s.len() < min_fits || t.elapsed().as_secs_f64() < ctx.seconds {
        let i = fit_s.len();
        let path = ctx.work.path(&format!("fit{i}.hics"));
        let observer = (ctx.trace && i == 2).then(|| Arc::new(PhaseObserver::default()));
        let run = inputs::paper_fit(
            &data,
            ctx.seed,
            threads,
            observer.clone().map(|ob| ob as Arc<dyn FitObserver>),
            &path,
        );
        fit_s.push(run.total.as_secs_f64());
        let identity = (
            inputs::file_checksum(&path),
            inputs::file_checksum(&PrecomputedHoods::sidecar_path(&path)),
        );
        match first {
            None => {
                first = Some(identity);
                o.op(true);
                o.note("subspaces", run.subspaces.len());
                o.note("artifact_checksum", format!("{:016x}", identity.0));
                o.note("sidecar_checksum", format!("{:016x}", identity.1));
            }
            Some(f) => {
                o.check(f == identity);
                std::fs::remove_file(&path).ok();
                std::fs::remove_file(PrecomputedHoods::sidecar_path(&path)).ok();
            }
        }
        if let Some(ob) = observer {
            traced = Some((ob, run));
        }
        load_batch();
        eval_slot();
    }
    println!("# setups_s {loads:?}");
    let lat = stats::sorted(lat);
    assert_eq!(lat.len(), EVALS, "every slot ran: at least three fits");
    o.set("setup_s", stats::median(&loads));
    o.set("fit_s", stats::median(&fit_s));
    o.note("workload", "fit");
    o.note("n", N);
    o.note("d", D);
    o.note("block_width", format!("{BLOCKS:?}"));
    o.note(
        "params",
        "welch M=50 alpha=0.1 cutoff=400 top_k=100 lof_k=10 vptree",
    );
    o.note("fits", fit_s.len());
    o.note("fit_threads", threads);
    o.note("pool", POOL);
    o.note("evals", EVALS);
    o.note("eval_threads", 1);
    println!("# fits_s {fit_s:?}");

    // Quality: score novel labelled points against the first artifact.
    let model = ctx.work.path("fit0.hics");
    let engine = Engine::open_mmap(&model, None, threads).expect("open fitted model");
    let (points, pool_labels) = inputs::query_pool(&data, &labels, POOL, ctx.seed);
    let scores: Vec<f64> = engine
        .score_batch(&points, threads)
        .into_iter()
        .map(|r| {
            o.op(r.is_ok());
            r.unwrap_or(f64::NAN)
        })
        .collect();
    if scores.iter().all(|s| s.is_finite()) {
        o.set(
            "auc_pct",
            hics_eval::roc::roc_auc(&scores, &pool_labels) * 100.0,
        );
    }

    o.set("p50_ms", stats::percentile(&lat, 500));
    o.set("client.p99_ms", stats::percentile(&lat, 990));

    if let Some((ob, run)) = traced {
        let total = run.total.as_secs_f64();
        let search = ob.phase_s("search");
        let index = ob.phase_s("index");
        let (save, precompute) = (run.save.as_secs_f64(), run.precompute.as_secs_f64());
        o.set("core.search_s", search);
        o.set("core.contrast_evals", ob.contrast_evals() as f64);
        o.set("core.slice_draws", ob.slice_draws() as f64);
        o.set("core.levels", ob.levels() as f64);
        o.set("outlier.index_build_s", index);
        o.set("data.save_s", save);
        o.set("outlier.precompute_s", precompute);
        o.set(
            "outlier.precompute_knn_queries",
            (N * run.subspaces.len()) as f64,
        );
        o.set(
            "bench.fit_accounted_pct",
            (search + index + save + precompute) / total * 100.0,
        );
        let base = (fit_s[1] + fit_s[3]) / 2.0;
        o.set("bench.trace_overhead_pct", (total - base) / base * 100.0);
        let (draw_ns, test_ns) = layers::contrast_replay(&data, ctx.seed, REPLAY_SUBSPACES);
        o.set("core.slice_draw_ns", draw_ns);
        o.set("stats.test_ns", test_ns);
        let replay = layers::score_replay(&engine, &points[..REPLAY_POINTS]);
        o.set("outlier.score_us_per_point", replay.us_per_point);
        o.set(
            "outlier.index_queries_per_point",
            replay.index_queries_per_point,
        );
        o.set("outlier.shard_score_us", replay.shard_score_us);
    }
    o
}

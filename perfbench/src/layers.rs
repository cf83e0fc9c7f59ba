//! In-process per-layer measurements for the traced run. Every figure is
//! taken from outside the library: timed calls into its public functions,
//! the `FitObserver` seam, and the `ScoreRecorder` hook.

use crate::promtext::Scrape;
use crate::report::Outcome;
use hics_core::contrast::{MarginalStats, WelchDeviation};
use hics_core::{ContrastEstimator, FitObserver, SliceSizing, Subspace};
use hics_data::{Dataset, ModelArtifact};
use hics_outlier::{Engine, PrecomputedHoods, QueryEngine, ScoreRecorder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Records fit phases and search counters through the `FitObserver` seam.
#[derive(Default)]
pub struct PhaseObserver {
    phases: Mutex<BTreeMap<String, u64>>,
    evals: AtomicU64,
    draws: AtomicU64,
    levels: AtomicU64,
}

impl FitObserver for PhaseObserver {
    fn phase_finished(&self, phase: &str, nanos: u64) {
        *self
            .phases
            .lock()
            .expect("observer lock poisoned")
            .entry(phase.to_string())
            .or_default() += nanos;
    }

    fn contrast_evaluated(&self, slice_draws: u64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.draws.fetch_add(slice_draws, Ordering::Relaxed);
    }

    fn level_done(&self, _level: usize, _evaluated: usize, _retained: usize, _nanos: u64) {
        self.levels.fetch_add(1, Ordering::Relaxed);
    }
}

impl PhaseObserver {
    /// Seconds spent in `phase` (0 if it never ran).
    pub fn phase_s(&self, phase: &str) -> f64 {
        let phases = self.phases.lock().expect("observer lock poisoned");
        phases.get(phase).copied().unwrap_or(0) as f64 / 1e9
    }

    pub fn contrast_evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    pub fn slice_draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    pub fn levels(&self) -> u64 {
        self.levels.load(Ordering::Relaxed)
    }
}

/// `count` candidate subspaces of 2, 3 and 4 of `d` attributes in turn,
/// drawn with `seed`.
pub fn seeded_subspaces(d: usize, count: usize, seed: u64) -> Vec<Subspace> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b5);
    let mut dims: Vec<usize> = (0..d).collect();
    (0..count)
        .map(|i| {
            dims.shuffle(&mut rng);
            Subspace::new(dims[..2 + i % 3].iter().copied())
        })
        .collect()
}

/// Mean nanoseconds per slice draw and per Welch test over a fixed,
/// seed-chosen sample of contrast evaluations, replayed on one thread.
pub fn contrast_replay(data: &Dataset, seed: u64, subspaces: usize) -> (f64, f64) {
    const M: usize = 50;
    let test = WelchDeviation;
    let est = ContrastEstimator::new(data, M, 0.1, SliceSizing::PaperRoot, &test);
    let marginals: Vec<MarginalStats> = (0..data.d())
        .map(|j| MarginalStats::from_column(data.col(j)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let (mut draw_ns, mut test_ns, mut n) = (0u128, 0u128, 0u64);
    for sub in seeded_subspaces(data.d(), subspaces, seed) {
        let mut sampler = est.sampler(&sub);
        for _ in 0..M {
            let t0 = Instant::now();
            let slice = sampler.draw(&mut rng);
            let t1 = Instant::now();
            let cond = hics_stats::masked_mean_variance(slice.column(), slice.iter_ids());
            let p =
                hics_stats::welch_t_test_from_moments(&marginals[slice.ref_attr].moments, &cond);
            black_box(p.p_value);
            let t2 = Instant::now();
            draw_ns += (t1 - t0).as_nanos();
            test_ns += (t2 - t1).as_nanos();
            n += 1;
        }
    }
    (draw_ns as f64 / n as f64, test_ns as f64 / n as f64)
}

/// The open of one single-model artifact, split into its public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenSplit {
    pub artifact_open_ms: f64,
    /// `QueryEngine::from_artifact`: the call `hics serve` makes.
    pub engine_build_ms: f64,
    /// Whether that engine adopted precomputed neighbourhoods.
    pub hoods_adopted: bool,
    pub hoods_load_ms: f64,
    /// `QueryEngine::from_artifact_with_hoods` with the loaded sidecar.
    pub engine_build_hoods_ms: f64,
}

/// Times the serving open path and the sidecar path on `path`.
pub fn open_split(path: &Path, threads: usize) -> OpenSplit {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let artifact = Arc::new(ModelArtifact::open_mmap(path).expect("open artifact"));
    let artifact_open_ms = ms(t);
    let t = Instant::now();
    let engine = QueryEngine::from_artifact(Arc::clone(&artifact), None, threads);
    let engine_build_ms = ms(t);
    let hoods_adopted = engine.index_stats().precomputed;
    drop(engine);
    let t = Instant::now();
    let hoods = PrecomputedHoods::load_for(path, &artifact);
    let hoods_load_ms = ms(t);
    let t = Instant::now();
    let engine = QueryEngine::from_artifact_with_hoods(artifact, hoods, None, threads);
    let engine_build_hoods_ms = ms(t);
    assert!(
        engine.index_stats().precomputed,
        "the fit-time sidecar was not adopted"
    );
    OpenSplit {
        artifact_open_ms,
        engine_build_ms,
        hoods_adopted,
        hoods_load_ms,
        engine_build_hoods_ms,
    }
}

impl OpenSplit {
    /// Sets the open-split metrics, and how much of the measured `setup_s`
    /// the serving path's open accounts for.
    pub fn record(&self, o: &mut Outcome, setup_s: f64) {
        o.set("data.artifact_open_ms", self.artifact_open_ms);
        o.set("outlier.engine_build_ms", self.engine_build_ms);
        o.set(
            "outlier.hoods_adopted",
            f64::from(u8::from(self.hoods_adopted)),
        );
        o.set("outlier.hoods_load_ms", self.hoods_load_ms);
        o.set("outlier.engine_build_hoods_ms", self.engine_build_hoods_ms);
        o.set(
            "bench.setup_accounted_pct",
            (self.artifact_open_ms + self.engine_build_ms) / (setup_s * 1e3) * 100.0,
        );
    }
}

/// The serving front's layers from one window's `/metrics` delta and the
/// scrape after it, per completed client operation.
pub fn serve_layers(o: &mut Outcome, d: &Scrape, after: &Scrape, ops: f64) {
    const STAGES: [(&str, &str, &str); 5] = [
        (
            "head_parse",
            "serve.stage.head_parse_us_mean",
            "serve.stage.head_parse_us_p99",
        ),
        (
            "body",
            "serve.stage.body_us_mean",
            "serve.stage.body_us_p99",
        ),
        (
            "enqueue",
            "serve.stage.enqueue_us_mean",
            "serve.stage.enqueue_us_p99",
        ),
        (
            "score",
            "serve.stage.score_us_mean",
            "serve.stage.score_us_p99",
        ),
        (
            "flush",
            "serve.stage.flush_us_mean",
            "serve.stage.flush_us_p99",
        ),
    ];
    for (stage, mean, p99) in STAGES {
        let labels = format!("stage=\"{stage}\"");
        o.set(
            mean,
            d.summary_mean("hics_request_stage_seconds", &labels) * 1e6,
        );
        o.set(
            p99,
            after.quantile("hics_request_stage_seconds", &labels, "0.99") * 1e6,
        );
    }
    o.set(
        "serve.queue_wait_us",
        d.summary_mean("hics_batch_queue_wait_seconds", "") * 1e6,
    );
    o.set(
        "serve.batch_score_us",
        d.summary_mean("hics_batch_score_seconds", "") * 1e6,
    );
    o.set(
        "serve.batch_size_mean",
        d.summary_mean("hics_batch_size", ""),
    );
    let batches = d.get("hics_batches_total");
    o.set(
        "serve.coalesced_ratio",
        if batches > 0.0 {
            d.get("hics_coalesced_batches_total") / batches
        } else {
            0.0
        },
    );
    o.set(
        "serve.wakeups_per_req",
        d.sum("hics_reactor_wakeups_total") / ops,
    );
    o.set(
        "serve.backpressure_stalls",
        d.get("hics_backpressure_stalls_total"),
    );
}

/// Counts what the scoring path reports through the `ScoreRecorder` hook.
#[derive(Default)]
struct CountingRecorder {
    /// shard → (batches, nanos)
    shards: Mutex<BTreeMap<usize, (u64, u64)>>,
    queries: AtomicU64,
}

impl ScoreRecorder for CountingRecorder {
    fn shard_scored(&self, shard: usize, _rows: usize, nanos: u64) {
        let mut shards = self.shards.lock().expect("recorder lock poisoned");
        let e = shards.entry(shard).or_default();
        e.0 += 1;
        e.1 += nanos;
    }

    fn index_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }
}

/// The engine layer under a workload's queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoreReplay {
    pub us_per_point: f64,
    pub index_queries_per_point: f64,
    /// Mean µs per batch of the slowest shard.
    pub shard_score_us: f64,
}

/// Replays `queries` through `Engine::score_batch` one row per batch (the
/// size single-point requests and stream lines arrive at) with a counting
/// recorder installed.
pub fn score_replay(engine: &Engine, queries: &[Vec<f64>]) -> ScoreReplay {
    let rec = Arc::new(CountingRecorder::default());
    hics_outlier::install_recorder(Arc::clone(&rec) as Arc<dyn ScoreRecorder>);
    let t = Instant::now();
    for q in queries {
        let out = engine.score_batch(std::slice::from_ref(q), 1);
        black_box(
            out.into_iter()
                .next()
                .expect("one row")
                .expect("replayed row scores"),
        );
    }
    let elapsed = t.elapsed().as_secs_f64();
    let n = queries.len() as f64;
    let shards = rec.shards.lock().expect("recorder lock poisoned");
    let slowest = shards
        .values()
        .map(|&(batches, nanos)| nanos as f64 / batches.max(1) as f64 / 1e3)
        .fold(0.0, f64::max);
    ScoreReplay {
        us_per_point: elapsed * 1e6 / n,
        index_queries_per_point: rec.queries.load(Ordering::Relaxed) as f64 / n,
        shard_score_us: slowest,
    }
}

//! `serve_point` and `route`: the shipped servers answering single-point
//! `POST /score` requests.
//!
//! The untraced run times one closed-loop caller (one request in flight),
//! the traced run an open loop at a fixed rate. Both build a small model
//! (N = 1e5, d = 5, the two planted blocks as fixed subspaces, LOF k = 10,
//! VP-trees and sidecars), check every served score bit for bit against
//! the in-process engine on the same files, and differ only in the fleet:
//! one `hics serve` for `serve_point`; two `hics serve` backends, one shard
//! each, behind `hics route` for `route`.

use crate::closedloop;
use crate::inputs;
use crate::layers;
use crate::net;
use crate::openloop::{self, Limits, RungStats, Sample};
use crate::procs::Server;
use crate::promtext::Scrape;
use crate::report::Outcome;
use crate::stats;
use crate::Ctx;
use hics_outlier::Engine;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const N: usize = 100_000;
const D: usize = 5;
/// Planted blocks 2–3 wide: five attributes always split into one 2-d and
/// one 3-d block, which the model serves as its two subspaces.
const BLOCKS: (usize, usize) = (2, 3);
/// Gaussian clusters per planted block, fixed, so every seed's model costs
/// the same to search.
const CLUSTERS: usize = 3;
const POOL: usize = 2048;
/// Model builds and set-ups per run, in turn: `fit_s` is the median of
/// the builds and `setup_s` of the set-ups, and in the untraced run each
/// set-up serves one closed-loop window.
const SETUPS: usize = 3;
/// Closed-loop replies before each timed window.
const WARM_REPLIES: usize = 200;
/// Open-loop connections (traced run).
const LANES: usize = 2;
/// Replies missing this long are failures.
const DRAIN: Duration = Duration::from_secs(15);
/// A rung is invalid when the generator's own lateness (p99) exceeds this
/// share of the latency limit.
const LAG_SHARE: f64 = 0.25;

/// What differs between the two workloads' traced open loops.
struct Spec {
    name: &'static str,
    /// Requests per second.
    rate: f64,
    limits: Limits,
}

const SERVE_POINT: Spec = Spec {
    name: "serve_point",
    rate: 1000.0,
    limits: Limits {
        p99_ms: 20.0,
        lag_ms: 20.0 * LAG_SHARE,
        lanes: LANES,
    },
};

const ROUTE: Spec = Spec {
    name: "route",
    rate: 400.0,
    limits: Limits {
        p99_ms: 50.0,
        lag_ms: 50.0 * LAG_SHARE,
        lanes: LANES,
    },
};

/// The running servers of one set-up.
struct Fleet {
    front: Server,
    backends: Vec<Server>,
    setup: Duration,
}

pub fn serve_point(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let g = inputs::planted(N, D, BLOCKS, Some(CLUSTERS), ctx.seed);
    let path = ctx.work.path("point.hics");
    let build = || {
        let model = inputs::fixed_model(g.dataset.clone(), &g.planted_subspaces);
        inputs::save_with_sidecar(&model, &path, ctx.nproc);
    };
    let t = Instant::now();
    build();
    let first_build = t.elapsed().as_secs_f64();
    o.note(
        "model_checksum",
        format!("{:016x}", inputs::file_checksum(&path)),
    );
    let serve_args = vec![
        "serve".to_string(),
        "--model".into(),
        path.display().to_string(),
        "--threads".into(),
        ctx.nproc.to_string(),
        "--reactors".into(),
        ctx.nproc.to_string(),
    ];
    o.note(
        "server_threads",
        format!("serve --threads {0} --reactors {0}", ctx.nproc),
    );
    let spawn = |i: usize| {
        let t0 = Instant::now();
        let front = Server::spawn(&ctx.hics, &serve_args, &ctx.work.path(&format!("serve{i}")));
        Fleet {
            setup: t0.elapsed(),
            front,
            backends: Vec::new(),
        }
    };
    let after = |o: &mut Outcome, setup_s: f64| {
        layers::open_split(&path, ctx.nproc).record(o, setup_s);
        Engine::open_mmap(&path, None, ctx.nproc).expect("open engine")
    };
    run(
        ctx,
        &SERVE_POINT,
        o,
        &g,
        &path,
        first_build,
        build,
        spawn,
        after,
    )
}

pub fn route(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let g = inputs::planted(N, D, BLOCKS, Some(CLUSTERS), ctx.seed);
    let manifest = ctx.work.path("route.hics");
    let build = || inputs::sharded_model(&g.dataset, &g.planted_subspaces, 2, &manifest, ctx.nproc);
    let t = Instant::now();
    let shards = build();
    let first_build = t.elapsed().as_secs_f64();
    for (k, p) in shards.iter().enumerate() {
        o.note(
            if k == 0 {
                "shard0_checksum"
            } else {
                "shard1_checksum"
            },
            format!("{:016x}", inputs::file_checksum(p)),
        );
    }
    o.note("shards", shards.len());
    o.note(
        "server_threads",
        format!(
            "backends: serve --threads 1 --reactors 1 each; route --threads {0} --reactors {0}",
            ctx.nproc
        ),
    );
    let spawn = |i: usize| spawn_routed(ctx, &manifest, &shards, i);
    let after = |o: &mut Outcome, setup_s: f64| {
        // Backends open their shards side by side, so the slower shard
        // sets the set-up time.
        let splits: Vec<layers::OpenSplit> =
            shards.iter().map(|p| layers::open_split(p, 1)).collect();
        let slowest = |f: fn(&layers::OpenSplit) -> f64| splits.iter().map(f).fold(0.0, f64::max);
        let split = layers::OpenSplit {
            artifact_open_ms: slowest(|s| s.artifact_open_ms),
            engine_build_ms: slowest(|s| s.engine_build_ms),
            hoods_adopted: splits.iter().any(|s| s.hoods_adopted),
            hoods_load_ms: slowest(|s| s.hoods_load_ms),
            engine_build_hoods_ms: slowest(|s| s.engine_build_hoods_ms),
        };
        split.record(o, setup_s);
        Engine::open_mmap(&manifest, None, ctx.nproc).expect("open sharded engine")
    };
    let rebuild = || {
        build();
    };
    run(
        ctx,
        &ROUTE,
        o,
        &g,
        &manifest,
        first_build,
        rebuild,
        spawn,
        after,
    )
}

/// Two backends started together, then the router in front of them.
fn spawn_routed(ctx: &Ctx, manifest: &Path, shards: &[PathBuf], i: usize) -> Fleet {
    let t0 = Instant::now();
    let backends: Vec<Server> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let args = vec![
                    "serve".to_string(),
                    "--model".into(),
                    p.display().to_string(),
                    "--threads".into(),
                    "1".into(),
                    "--reactors".into(),
                    "1".into(),
                ];
                let log = ctx.work.path(&format!("backend{i}-{k}"));
                let hics = &ctx.hics;
                scope.spawn(move || Server::spawn(hics, &args, &log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("backend start"))
            .collect()
    });
    let replicas: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    let args = vec![
        "route".to_string(),
        "--model".into(),
        manifest.display().to_string(),
        "--replicas".into(),
        replicas.join(","),
        "--threads".into(),
        ctx.nproc.to_string(),
        "--reactors".into(),
        ctx.nproc.to_string(),
    ];
    let front = Server::spawn(&ctx.hics, &args, &ctx.work.path(&format!("router{i}")));
    Fleet {
        setup: t0.elapsed(),
        front,
        backends,
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    ctx: &Ctx,
    spec: &Spec,
    mut o: Outcome,
    g: &hics_data::LabeledDataset,
    model: &Path,
    first_build: f64,
    build: impl Fn(),
    spawn: impl Fn(usize) -> Fleet,
    traced_open: impl Fn(&mut Outcome, f64) -> Engine,
) -> Outcome {
    o.note("setups", SETUPS);
    o.note("n", N);
    o.note("d", D);
    o.note("block_width", format!("{BLOCKS:?}"));
    o.note("subspaces", format!("{:?}", g.planted_subspaces));

    // Reference scores: the in-process engine over the same files.
    let (points, labels) = inputs::query_pool(&g.dataset, &g.labels, POOL, ctx.seed);
    let reference: Vec<f64> = Engine::open_mmap(model, None, ctx.nproc)
        .expect("open reference engine")
        .score_batch(&points, ctx.nproc)
        .into_iter()
        .map(|r| r.expect("reference scores"))
        .collect();
    o.set(
        "auc_pct",
        hics_eval::roc::roc_auc(&reference, &labels) * 100.0,
    );
    let requests: Vec<Vec<u8>> = points.iter().map(|p| net::score_request(p)).collect();

    o.note("workload", spec.name);
    o.note("pool", POOL);
    // The model files are rebuilt in place while no server has them open;
    // a rebuild that changed them would fail the bit-exact reply checks.
    let mut builds = vec![first_build];
    let mut rebuild = || {
        let t = Instant::now();
        build();
        builds.push(t.elapsed().as_secs_f64());
    };
    let record_setups = |o: &mut Outcome, setups: &[f64]| {
        println!("# setups_s {setups:?}");
        let setup_s = stats::median(setups);
        o.set("setup_s", setup_s);
        setup_s
    };

    if !ctx.trace {
        o.note("loop", "closed, one caller, one request in flight");
        o.note("window_s", ctx.seconds / SETUPS as f64);
        o.note("block_replies", closedloop::BLOCK);
        o.note("client_threads", 1);
        o.note("connections", 1);
        // Each set-up serves one window, so the windows are spread over
        // the run and a few seconds of host slowdown move the blocks of
        // one window rather than the median over all of them.
        let (mut setups, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..SETUPS {
            if i > 0 {
                rebuild();
            }
            let fleet = spawn(i);
            setups.push(fleet.setup.as_secs_f64());
            let addr = &fleet.front.addr;
            let warm = closedloop::run_window(addr, &requests, 0, 0.0, WARM_REPLIES, DRAIN);
            verify(&mut o, &warm, &reference);
            let window = closedloop::run_window(
                addr,
                &requests,
                i * 997,
                ctx.seconds / SETUPS as f64,
                closedloop::BLOCK,
                DRAIN,
            );
            verify(&mut o, &window, &reference);
            let (p50, p99) = (
                closedloop::block_percentiles(&window, 500),
                closedloop::block_percentiles(&window, 990),
            );
            println!(
                "# window {i} replies={} blocks={} p50_ms={:.4} p99_ms={:.4}",
                window.len(),
                p50.len(),
                stats::median(&p50),
                stats::median(&p99),
            );
            p50s.extend(p50);
            p99s.extend(p99);
        }
        record_setups(&mut o, &setups);
        println!("# builds_s {builds:?}");
        o.set("fit_s", stats::median(&builds));
        o.set("p50_ms", stats::median(&p50s));
        o.set("client.p99_ms", stats::median(&p99s));
        return o;
    }

    for _ in 1..SETUPS {
        rebuild();
    }
    println!("# builds_s {builds:?}");
    o.set("fit_s", stats::median(&builds));
    let fleet = spawn(0);
    let first_setup = fleet.setup.as_secs_f64();
    let finish_setups = |o: &mut Outcome, fleet: Fleet| {
        drop(fleet);
        let mut setups = vec![first_setup];
        setups.extend((1..SETUPS).map(|i| spawn(i).setup.as_secs_f64()));
        record_setups(o, &setups)
    };
    let rate = spec.rate;
    let window_s = ctx.seconds / 2.0;
    o.note("loop", "open, pipelined");
    o.note("rate_rps", rate);
    o.note(
        "window_s",
        format!("traced {window_s:.2} between two of {:.2}", window_s / 2.0),
    );
    o.note("p99_limit_ms", spec.limits.p99_ms);
    o.note("lag_limit_ms", spec.limits.lag_ms);
    o.note("client_threads", LANES);
    o.note("connections", LANES);

    let addr = fleet.front.addr.clone();
    // Warm-up: connections, caches and the router's learned latencies.
    let warm = openloop::run_rung(&addr, &requests, 0, rate, 0.5, LANES, DRAIN);
    verify(&mut o, &warm, &reference);

    // The open loop with scrapes around it and /proc sampled during it,
    // between two untraced halves, so drift and warm-up fall on both sides
    // of the comparison.
    let plain = |o: &mut Outcome| {
        let samples = openloop::run_rung(&addr, &requests, 0, rate, window_s / 2.0, LANES, DRAIN);
        verify(o, &samples, &reference);
        RungStats::from_samples(rate, &samples)
    };
    let plain_before = plain(&mut o);
    let servers: Vec<&Server> = std::iter::once(&fleet.front)
        .chain(&fleet.backends)
        .collect();
    let before: Vec<Scrape> = servers.iter().map(|s| net::scrape(&s.addr)).collect();
    let cpu_before: Vec<f64> = servers.iter().map(|s| s.cpu_seconds()).collect();
    let stop = AtomicBool::new(false);
    let (samples, threads_peak) = std::thread::scope(|scope| {
        let front = &fleet.front;
        let stop = &stop;
        let sampler = scope.spawn(move || {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(front.threads());
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let samples = openloop::run_rung(&addr, &requests, 0, rate, window_s, LANES, DRAIN);
        stop.store(true, Ordering::Relaxed);
        (samples, sampler.join().expect("thread sampler"))
    });
    verify(&mut o, &samples, &reference);
    let traced = RungStats::from_samples(rate, &samples);
    let after: Vec<Scrape> = servers.iter().map(|s| net::scrape(&s.addr)).collect();
    let cpu: Vec<f64> = servers
        .iter()
        .zip(&cpu_before)
        .map(|(s, b)| s.cpu_seconds() - b)
        .collect();
    let delta: Vec<Scrape> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| Scrape::delta(b, a))
        .collect();
    let plain_after = plain(&mut o);
    let ops = traced.ok.max(1) as f64;
    print_rung(&plain_before, &spec.limits);
    print_rung(&traced, &spec.limits);
    print_rung(&plain_after, &spec.limits);
    o.set("client.lag_ms_p99", traced.lag_ms_p99);
    o.set("client.p99_ms", traced.p99_ms);
    let base = (plain_before.p50_ms + plain_after.p50_ms) / 2.0;
    o.set(
        "bench.trace_overhead_pct",
        (traced.p50_ms - base) / base * 100.0,
    );
    layers::serve_layers(&mut o, &delta[0], &after[0], ops);
    if fleet.backends.is_empty() {
        o.set("serve.cpu_us_per_req", cpu[0] * 1e6 / ops);
    } else {
        set_route_layers(&mut o, &delta, &after, &cpu, ops, threads_peak);
    }
    let setup_s = finish_setups(&mut o, fleet);
    let engine = traced_open(&mut o, setup_s);
    let replay = layers::score_replay(&engine, &points);
    o.set("outlier.score_us_per_point", replay.us_per_point);
    o.set(
        "outlier.index_queries_per_point",
        replay.index_queries_per_point,
    );
    o.set("outlier.shard_score_us", replay.shard_score_us);
    o
}

/// Router layers: per-shard upstream time, the router's own share of the
/// request, hedging and retries, threads and CPU.
fn set_route_layers(
    o: &mut Outcome,
    delta: &[Scrape],
    after: &[Scrape],
    cpu: &[f64],
    ops: f64,
    threads_peak: usize,
) {
    let router = &delta[0];
    for (k, name) in ["route.upstream_us.shard0", "route.upstream_us.shard1"]
        .into_iter()
        .enumerate()
    {
        let labels = format!("shard=\"{k}\"");
        o.set(
            name,
            router.summary_mean("hics_route_upstream_seconds", &labels) * 1e6,
        );
    }
    let p50 = |s: &Scrape| s.quantile("hics_request_seconds", "", "0.5") * 1e6;
    let slowest_backend = after[1..].iter().map(p50).fold(0.0, f64::max);
    o.set("route.overhead_us", p50(&after[0]) - slowest_backend);
    let hedges = router.sum("hics_route_hedges_total");
    o.set("route.hedges_per_req", hedges / ops);
    let wins = router.sum("hics_route_hedge_wins_total");
    let retries = router.sum("hics_route_retries_total");
    o.set(
        "route.hedge_win_ratio",
        if hedges + retries > 0.0 {
            wins / (hedges + retries)
        } else {
            0.0
        },
    );
    o.set("route.retries_per_req", retries / ops);
    o.set("route.threads_peak", threads_peak as f64);
    o.set("route.cpu_us_per_req", cpu[0] * 1e6 / ops);
    o.set(
        "serve.cpu_us_per_req",
        cpu[1..].iter().sum::<f64>() * 1e6 / ops,
    );
}

/// Checks every reply against the reference: a wrong score is a mismatch,
/// a missing one a failed operation.
fn verify(o: &mut Outcome, samples: &[Sample], reference: &[f64]) {
    for s in samples {
        match (s.done, s.score) {
            (Some(_), Some(score)) => o.check(score.to_bits() == reference[s.query].to_bits()),
            _ => o.op(false),
        }
    }
}

fn print_rung(r: &RungStats, limits: &Limits) {
    let verdict = if !r.valid(limits) {
        "invalid"
    } else if r.passed(limits) {
        "pass"
    } else {
        "fail"
    };
    let tail = stats::highest_supported(r.latency_ms.len()).unwrap_or(500);
    println!(
        "# rung rate={} sent={} ok={} failed={} blocks={} p50_ms={:.4} p99_ms={:.4} \
         pooled {}_ms={:.4} (n={}) lag_p99_ms={:.4} achieved_rps={:.1} backlog={} \
         verdict={verdict}",
        r.rate,
        r.sent,
        r.ok,
        r.failed,
        r.blocks,
        r.p50_ms,
        r.p99_ms,
        stats::label(tail),
        stats::percentile(&r.latency_ms, tail),
        r.latency_ms.len(),
        r.lag_ms_p99,
        r.achieved_rps,
        r.backlog,
    );
}

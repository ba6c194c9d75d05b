//! `historical`: an analyst exploring an archive.
//!
//! Set-up sketches the archive into a fresh pile with
//! `ParallelEngine::sketch_to_pile`. One closed-loop client then repeats a
//! cycle of exact `network(θ)` and `top_k(k)` calls on the pile over window
//! ranges from 8 windows up to the whole archive, at seeded start windows.
//! This is the read path alone (fetch → plan → sweep): no cache, no ingest,
//! no TCP.
//!
//! The bounded latencies (`op_p5_ms` over the network shapes, `aux_p5_ms`
//! over the top-k shapes) are taken per request shape (range length with θ
//! or k): the `FAST_QUANTILE` of each shape's repetitions, then the median
//! over shapes, so the mix of range lengths does not blur them. The plain
//! percentiles over all queries are reported beside them. The client moves
//! to the next CPU at the start of every cycle (`common::CpuRotation`).

use std::ops::Range;
use std::time::Instant;

use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sweep::CorrelationBounds;
use tsubasa_core::{
    CorrSource, EdgeList, PairSketch, QueryPlan, SeriesCollection, SketchSet, TopK,
};
use tsubasa_data::{generate_ncea_like, NceaLikeConfig};
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod};
use tsubasa_storage::{PileWriter, SketchPile};

use crate::common::{self, metric, Outcome, Rng, WorkDir};
use crate::trace::Tracer;
use crate::Args;

/// Stations of the archive. Every table a query sweeps (2016 pairs × up to
/// 180 windows, at most 2.8 MiB) stays within a core's own caches. With 200
/// stations (up to 27 MiB) the shared cache and memory bus made even the
/// per-shape latencies move by 19–27 % between runs of the same code on a
/// shared host, against 3–9 % here.
const STATIONS: usize = 64;
const BASIC_WINDOW: usize = 48;
const WINDOWS: usize = 180;
/// The range lengths of one request cycle: 8 windows up to the whole
/// archive, evenly spaced.
const LENGTHS: [usize; 12] = [8, 24, 40, 55, 71, 86, 102, 118, 133, 149, 164, 180];
const THETAS: [f64; 3] = [0.5, 0.7, 0.9];
const KS: [usize; 3] = [10, 100, 1000];
/// Largest gap allowed between the pile's correlations and
/// `SketchSet::build`'s (the tiled kernels' contract).
const KERNEL_TOLERANCE: f64 = 1e-10;
/// Every this many queries one answer is kept for the correctness gate.
const SAMPLE_EVERY: usize = 25;
/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 15;

#[derive(Debug, Clone)]
enum Query {
    Network(Range<usize>, f64),
    TopK(Range<usize>, usize),
}

impl Query {
    /// One cycle of the client's requests: every range length of `LENGTHS`
    /// once with each θ and once with each k, at seeded start windows. The
    /// position in the cycle is the request's shape. Every cycle asks for
    /// the same mix of work in the same order, so two runs differ by the
    /// machine and the program, not by the range lengths the seed drew.
    fn cycle(rng: &mut Rng) -> Vec<Self> {
        let mut cycle = Vec::with_capacity(LENGTHS.len() * (THETAS.len() + KS.len()));
        for &len in &LENGTHS {
            for &theta in &THETAS {
                cycle.push(Query::Network(Self::place(rng, len), theta));
            }
            for &k in &KS {
                cycle.push(Query::TopK(Self::place(rng, len), k));
            }
        }
        cycle
    }

    /// A range of `len` windows at a seeded start.
    fn place(rng: &mut Rng, len: usize) -> Range<usize> {
        let start = rng.range(0, WINDOWS - len);
        start..start + len
    }

    fn windows(&self) -> Range<usize> {
        match self {
            Query::Network(w, _) | Query::TopK(w, _) => w.clone(),
        }
    }
}

enum Answer {
    Network(EdgeList),
    TopK(TopK),
}

fn run_query<S: CorrSource + ?Sized>(
    engine: &ParallelEngine,
    source: &S,
    q: &Query,
) -> tsubasa_core::Result<Answer> {
    Ok(match q {
        Query::Network(w, theta) => Answer::Network(
            engine
                .network(source, w.clone(), QueryMethod::Exact, *theta)?
                .0,
        ),
        Query::TopK(w, k) => {
            Answer::TopK(engine.top_k(source, w.clone(), QueryMethod::Exact, *k)?.0)
        }
    })
}

/// FNV-1a digest of an answer: its kind, every edge in order (top-k
/// correlations through their bits) and the NaN audit count. Two answers
/// are taken as identical when their digests are; the sampled answers are
/// kept as digests, so the gate's memory does not grow with the run.
fn digest(a: &Answer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    match a {
        Answer::Network(edges) => {
            eat(0);
            for &(i, j) in edges.edges() {
                eat(i as u64);
                eat(j as u64);
            }
            eat(edges.nan_pair_count() as u64);
        }
        Answer::TopK(top) => {
            eat(1);
            for e in &top.edges {
                eat(e.i as u64);
                eat(e.j as u64);
                eat(e.corr.to_bits());
            }
            eat(top.nan_pairs as u64);
        }
    }
    h
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let data = generate_ncea_like(&NceaLikeConfig {
        stations: STATIONS,
        points: WINDOWS * BASIC_WINDOW,
        seed: args.seed,
        ..NceaLikeConfig::default()
    })?;
    let engine = ParallelEngine::new(ParallelConfig {
        workers: common::WORKERS,
        ..ParallelConfig::default()
    });
    let work = WorkDir::create(&args.out, "historical")?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);

    // Set-up: sketch the archive into a fresh pile, several times.
    let mut setup_s = Vec::new();
    let mut pile: Option<SketchPile> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = pile.take() {
            let old_path = old.path().to_path_buf();
            drop(old);
            std::fs::remove_file(old_path)?;
        }
        let path = work.path().join(format!("archive-{rep}.pile"));
        let start = Instant::now();
        let writer = PileWriter::create(&path, STATIONS, BASIC_WINDOW)?;
        let (sketched, _, _) = tracer.span("parallel.sketch_to_pile", None, rep as u64, || {
            engine.sketch_to_pile(&data, BASIC_WINDOW, writer)
        });
        let (_, p) = sketched?;
        setup_s.push(start.elapsed().as_secs_f64());
        pile = Some(p);
    }
    let pile = pile.expect("at least one set-up repetition");

    common::reset_peak_rss();
    // Timed phase: one closed-loop client.
    let mut rng = Rng::new(args.seed);
    let mut network_ms = Vec::new();
    let mut topk_ms = Vec::new();
    // Latencies per request shape, with whether the shape is a top-k.
    let mut shapes: Vec<(bool, Vec<f64>)> = Vec::new();
    let mut samples: Vec<(Query, u64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut rotation = common::CpuRotation::new();
    'run: loop {
        rotation.step();
        for (shape, q) in Query::cycle(&mut rng).into_iter().enumerate() {
            if Instant::now() >= deadline {
                break 'run;
            }
            let topk = matches!(q, Query::TopK(..));
            if shapes.len() == shape {
                shapes.push((topk, Vec::new()));
            }
            let request = attempted;
            attempted += 1;
            let (answer, took, root) =
                tracer.span("query", None, request, || run_query(&engine, &pile, &q));
            let Ok(answer) = answer else {
                failed += 1;
                continue;
            };
            if topk {
                topk_ms.push(took);
            } else {
                network_ms.push(took);
            }
            shapes[shape].1.push(took);
            if tracer.enabled() {
                trace_layers(&mut tracer, &pile, &q, root, request)?;
            }
            if (request as usize).is_multiple_of(SAMPLE_EVERY) {
                samples.push((q, digest(&answer)));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    drop(rotation);
    let peak = common::peak_rss_mb();

    // Correctness gate: sampled pile answers against the same sketch held
    // in memory.
    let (oracle, kernel_gap) = memory_twin(&data, &pile)?;
    let mut mismatches = Vec::new();
    if kernel_gap > KERNEL_TOLERANCE {
        mismatches.push(format!(
            "historical: pile correlations deviate from SketchSet::build by {kernel_gap:e}"
        ));
    }
    for (q, got) in &samples {
        let want = run_query(&engine, &oracle, q)?;
        if *got != digest(&want) {
            mismatches.push(format!(
                "historical: pile answer differs from memory for {q:?}"
            ));
        }
    }

    let completed = (network_ms.len() + topk_ms.len()) as f64;
    let qps = completed / wall;
    let setup = common::median(&setup_s);
    let layers = if args.trace {
        layer_metrics(&tracer, &pile)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        attempted,
        failed,
        checked: samples.len() as u64,
        mismatches,
        end_to_end: vec![
            metric("setup_s", setup, "s"),
            metric("op_p5_ms", shape_percentile(&shapes, false), "ms").alias("network_shape_p5_ms"),
            metric("op_p50_ms", common::median(&network_ms), "ms").alias("network_p50_ms"),
            metric("op_p90_ms", common::percentile(&network_ms, 0.9), "ms").alias("network_p90_ms"),
            metric("ops_per_s", qps, "1/s").alias("qps"),
            metric("aux_p5_ms", shape_percentile(&shapes, true), "ms").alias("topk_shape_p5_ms"),
            metric("aux_p50_ms", common::median(&topk_ms), "ms").alias("topk_p50_ms"),
            metric("aux_p90_ms", common::percentile(&topk_ms, 0.9), "ms").alias("topk_p90_ms"),
            metric("peak_rss_mb", peak, "MiB"),
        ],
        layers,
        samples: vec![("network", network_ms.clone()), ("topk", topk_ms.clone())],
        config: vec![
            ("stations", STATIONS.to_string()),
            ("basic_window", BASIC_WINDOW.to_string()),
            ("windows", WINDOWS.to_string()),
            ("workers", common::WORKERS.to_string()),
            ("queries", completed.to_string()),
            ("topk_queries", topk_ms.len().to_string()),
            ("request_shapes", shapes.len().to_string()),
        ],
        tracer,
    })
}

/// The median over the top-k request shapes (`topk`) or the network ones of
/// each shape's `FAST_QUANTILE` latency.
fn shape_percentile(shapes: &[(bool, Vec<f64>)], topk: bool) -> f64 {
    let per_shape: Vec<f64> = shapes
        .iter()
        .filter(|(is_topk, ms)| *is_topk == topk && !ms.is_empty())
        .map(|(_, ms)| common::percentile(ms, common::FAST_QUANTILE))
        .collect();
    common::median(&per_shape)
}

/// An in-memory `SketchSet` holding exactly the pile's sketch: the series
/// statistics of `SketchSet::build` and the pile's per-window correlations.
/// Also returns the largest gap between those correlations and the ones
/// `SketchSet::build` computes itself.
///
/// The parallel sketcher fills the pile with a per-pair dot product while
/// `SketchSet::build` uses the tiled kernel, so the two differ in the last
/// bits (within the kernels' `1e-10` contract). Bit-identity of answers is
/// a property of the query path over one sketch, so the oracle takes the
/// pile's values.
fn memory_twin(
    data: &SeriesCollection,
    pile: &SketchPile,
) -> tsubasa_core::Result<(SketchSet, f64)> {
    let built = SketchSet::build(data, BASIC_WINDOW)?;
    let table = CorrSource::full_table(pile, 0..WINDOWS, PlanMethod::Exact)?
        .ok_or_else(|| tsubasa_core::Error::Storage("pile holds no exact table".into()))?;
    let view = table.view();
    let mut gap = 0.0f64;
    let pairs = built
        .pair_sketches()
        .enumerate()
        .map(|(p, own)| {
            let corrs: Vec<f64> = (0..WINDOWS).map(|w| view.window_row(w)[p]).collect();
            for (a, b) in corrs.iter().zip(&own.corrs) {
                gap = gap.max((a - b).abs());
            }
            PairSketch {
                a: own.a,
                b: own.b,
                corrs,
            }
        })
        .collect();
    let series = built.series_sketches().cloned().collect();
    let twin = SketchSet::from_parts(BASIC_WINDOW, STATIONS, series, pairs)?;
    Ok((twin, gap))
}

/// The traced run's extra calls for one query: the fetch and plan the engine
/// performs, repeated on their own so each layer's time is measured from
/// outside the program.
fn trace_layers(
    tracer: &mut Tracer,
    pile: &SketchPile,
    q: &Query,
    root: Option<usize>,
    request: u64,
) -> tsubasa_core::Result<()> {
    let windows = q.windows();
    let ((stats, table), _, _) = tracer.span("pile.fetch", root, request, || {
        (
            pile.series_stats(windows.clone()),
            CorrSource::full_table(pile, windows.clone(), PlanMethod::Exact),
        )
    });
    let (stats, table) = (stats?, table?);
    let zero_copy = table.as_ref().is_none_or(|t| t.is_zero_copy());
    let gathered = if zero_copy {
        0.0
    } else {
        (pile.pair_count() * windows.len() * 8) as f64
    };
    drop(table);
    let (plan, _, _) = tracer.span("plan.build", root, request, || {
        QueryPlan::from_window_stats(&stats).map(|plan| {
            let bounds = CorrelationBounds::from_plan(&plan);
            (plan, bounds)
        })
    });
    drop(plan?);
    tracer.count("pile.zero_copy", request, if zero_copy { 1.0 } else { 0.0 });
    tracer.count("pile.gather_bytes", request, gathered);
    tracer.count(
        "sweep.pair_windows",
        request,
        (pile.pair_count() * windows.len()) as f64,
    );
    Ok(())
}

fn layer_metrics(tracer: &Tracer, pile: &SketchPile) -> Vec<common::Metric> {
    let sweep_self = tracer.self_ms("query", &["pile.fetch", "plan.build"]);
    let pair_windows = tracer.counts("sweep.pair_windows");
    let zero_copy = tracer.counts("pile.zero_copy");
    let gathered = tracer.counts("pile.gather_bytes");
    let total_pw: f64 = pair_windows.iter().sum();
    let self_ns: f64 = sweep_self.iter().sum::<f64>() * 1e6;
    vec![
        metric(
            "parallel.sketch_to_pile_ms",
            common::median(&tracer.durations_ms("parallel.sketch_to_pile")),
            "ms",
        ),
        metric("pile.segments", pile.segment_count() as f64, "count"),
        metric(
            "pile.fetch_ms",
            common::median(&tracer.durations_ms("pile.fetch")),
            "ms",
        ),
        metric(
            "pile.zero_copy_frac",
            zero_copy.iter().sum::<f64>() / zero_copy.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "pile.gather_mb",
            common::median(&gathered) / (1024.0 * 1024.0),
            "MiB",
        ),
        metric(
            "plan.build_ms",
            common::median(&tracer.durations_ms("plan.build")),
            "ms",
        ),
        metric("sweep.self_ms", common::median(&sweep_self), "ms"),
        metric("sweep.pair_windows", common::median(&pair_windows), "count"),
        metric(
            "sweep.ns_per_pair_window",
            if total_pw > 0.0 {
                self_ns / total_pw
            } else {
                0.0
            },
            "ns",
        ),
    ]
}

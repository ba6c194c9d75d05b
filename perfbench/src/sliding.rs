//! `sliding`: a real-time monitor.
//!
//! A `RealTimeNetwork` with an edge subscription (`subscribe_edges(θ)`)
//! slides a query window of `QUERY_WINDOWS` basic windows, fed open loop in
//! bursts of B/4 points per push. Phase 1 runs the exact (Lemma 2) engine,
//! phase 2 the approximate (DFT) engine on its own schedule. This is Lemma 2
//! plus delta certification: no sketch table, no plan, no serving.

use std::time::{Duration, Instant};

use tsubasa_core::incremental::SlidingNetwork;
use tsubasa_core::stats::{normalize_into, tiled_pair_corrs_into, tiled_pair_dist_sq_into};
use tsubasa_core::{AdjacencyMatrix, JobRunner, SeriesCollection, SketchSet, WindowStats};
use tsubasa_data::{generate_ncea_like, NceaLikeConfig};
use tsubasa_dft::dft::DftPlanner;
use tsubasa_dft::normalize::normalize_unit_with_stats;
use tsubasa_parallel::WorkerPool;
use tsubasa_stream::{RealTimeNetwork, UpdateEngine};

use crate::common::{self, metric, ms, Outcome};
use crate::trace::Tracer;
use crate::Args;

const STATIONS: usize = 400;
const BASIC_WINDOW: usize = 48;
const PUSH_POINTS: usize = BASIC_WINDOW / 4;
const PUSHES_PER_WINDOW: usize = BASIC_WINDOW / PUSH_POINTS;
const QUERY_WINDOWS: usize = 50;
const THETA: f64 = 0.7;
const COEFFICIENTS: usize = BASIC_WINDOW * 3 / 4;
/// Basic windows (ticks) of the exact phase and of the approximate phase.
const EXACT_TICKS: usize = 600;
const APPROX_TICKS: usize = 150;
/// Distinct basic windows of generated stream; longer phases replay them
/// in a cycle.
const STREAM_WINDOWS: usize = 300;
/// Share of the timed phase given to the exact engine.
const EXACT_SHARE: f64 = 0.5;
/// Every this many ticks the replayed deltas are checked against a full
/// re-threshold (and always after the last tick).
const CHECK_EVERY: usize = 40;
/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Per-tick record of one phase.
#[derive(Debug, Default)]
struct Phase {
    /// From the due time of the window-completing push to its delta.
    latency_ms: Vec<f64>,
    /// `RealTimeNetwork::ingest_in` of the window-completing push.
    service_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    checked: u64,
    mismatches: Vec<String>,
}

struct Feed<'a> {
    data: &'a SeriesCollection,
    runner: &'a dyn JobRunner,
    ticks: usize,
    window_interval: Duration,
    label: &'static str,
}

/// Drive one engine open loop; `extra` runs after each tick's measurement
/// (traced runs time the layers there) with the window index, the arriving
/// window, the tick's root span and its service time.
fn drive(
    net: &mut RealTimeNetwork,
    mut replayed: AdjacencyMatrix,
    feed: &Feed<'_>,
    tracer: &mut Tracer,
    mut extra: impl FnMut(&mut Tracer, usize, &[Vec<f64>], Option<usize>, f64),
) -> Phase {
    let mut phase = Phase::default();
    let push_interval = feed.window_interval.div_f64(PUSHES_PER_WINDOW as f64);
    let start = Instant::now();
    for w in 0..feed.ticks {
        let base = (QUERY_WINDOWS + w % STREAM_WINDOWS) * BASIC_WINDOW;
        for p in 0..PUSHES_PER_WINDOW {
            let due = start
                + feed.window_interval.mul_f64(w as f64)
                + push_interval.mul_f64((p + 1) as f64);
            common::sleep_until(due);
            let from = base + p * PUSH_POINTS;
            let push = common::chunk(feed.data, from, from + PUSH_POINTS);
            phase.attempted += 1;
            if p + 1 < PUSHES_PER_WINDOW {
                if net.ingest_in(feed.runner, &push).is_err() {
                    phase.failed += 1;
                }
                continue;
            }
            let (applied, service, root) = tracer.span("stream.tick", None, w as u64, || {
                net.ingest_in(feed.runner, &push)
            });
            let deltas = net.take_deltas();
            let done = Instant::now();
            if !matches!(applied, Ok(1)) || deltas.len() != 1 {
                phase.failed += 1;
                phase.mismatches.push(format!(
                    "sliding {}: window {w} applied no delta",
                    feed.label
                ));
                continue;
            }
            phase
                .latency_ms
                .push(ms(done.saturating_duration_since(due)));
            phase.service_ms.push(service);
            let delta = &deltas[0];
            tracer.count(
                "delta.recheck_frac",
                w as u64,
                delta.rechecked_pairs as f64 / delta.total_pairs.max(1) as f64,
            );
            tracer.count(
                "delta.changed_edges",
                w as u64,
                (delta.appeared.len() + delta.vanished.len()) as f64,
            );
            if delta.apply_to(&mut replayed).is_err() {
                phase.mismatches.push(format!(
                    "sliding {}: delta of window {w} does not apply",
                    feed.label
                ));
            }
            if tracer.enabled() {
                let window = common::chunk(feed.data, base, base + BASIC_WINDOW);
                extra(tracer, w, &window, root, service);
            }
            if w % CHECK_EVERY == 0 || w + 1 == feed.ticks {
                phase.checked += 1;
                if replayed != net.network_with_threshold(THETA) {
                    phase.mismatches.push(format!(
                        "sliding {}: baseline plus deltas differs from re-threshold at window {w}",
                        feed.label
                    ));
                }
            }
        }
    }
    phase
}

/// The exact arriving-window kernel, as the exact updater runs it: window
/// statistics, z-normalization and the tiled `Z·Zᵀ` sweep.
fn window_kernel(window: &[Vec<f64>]) -> Vec<f64> {
    let n = window.len();
    let b = window[0].len();
    let mut z = vec![0.0; n * b];
    for (points, row) in window.iter().zip(z.chunks_exact_mut(b)) {
        normalize_into(points, &WindowStats::from_values(points), row);
    }
    let mut out = vec![0.0; n * (n - 1) / 2];
    tiled_pair_corrs_into(&z, n, b, &mut out);
    out
}

/// The approximate engine's per-series transform of the arriving window:
/// unit normalization and the DFT, keeping the first `COEFFICIENTS`
/// coefficients as interleaved `(re, im)` rows.
fn dft_rows(planner: &DftPlanner, window: &[Vec<f64>]) -> Vec<f64> {
    let row_len = 2 * COEFFICIENTS;
    let mut rows = vec![0.0; window.len() * row_len];
    for (points, row) in window.iter().zip(rows.chunks_exact_mut(row_len)) {
        let coeffs = planner.transform(&normalize_unit_with_stats(
            points,
            &WindowStats::from_values(points),
        ));
        for (k, c) in coeffs.iter().take(COEFFICIENTS).enumerate() {
            row[2 * k] = c.re;
            row[2 * k + 1] = c.im;
        }
    }
    rows
}

struct Engines {
    exact: RealTimeNetwork,
    exact_base: AdjacencyMatrix,
    approx: RealTimeNetwork,
    approx_base: AdjacencyMatrix,
}

fn bootstrap(historical: &SeriesCollection) -> tsubasa_core::Result<Engines> {
    let query_len = QUERY_WINDOWS * BASIC_WINDOW;
    let mut exact = RealTimeNetwork::new(
        historical,
        BASIC_WINDOW,
        query_len,
        THETA,
        UpdateEngine::Exact,
    )?;
    let exact_base = exact.subscribe_edges(THETA)?;
    let mut approx = RealTimeNetwork::new(
        historical,
        BASIC_WINDOW,
        query_len,
        THETA,
        UpdateEngine::Approximate {
            coefficients: COEFFICIENTS,
        },
    )?;
    let approx_base = approx.subscribe_edges(THETA)?;
    Ok(Engines {
        exact,
        exact_base,
        approx,
        approx_base,
    })
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let windows = QUERY_WINDOWS + STREAM_WINDOWS;
    let data = generate_ncea_like(&NceaLikeConfig {
        stations: STATIONS,
        points: windows * BASIC_WINDOW,
        seed: args.seed,
        ..NceaLikeConfig::default()
    })?;
    let historical = data.truncate_length(QUERY_WINDOWS * BASIC_WINDOW)?;
    let pool = WorkerPool::new(common::WORKERS);
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);

    // Set-up: bootstrap and subscribe both engines, several times.
    let mut setup_s = Vec::new();
    let mut engines = None;
    for _ in 0..SETUP_REPS {
        drop(engines.take());
        let start = Instant::now();
        engines = Some(bootstrap(&historical)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Engines {
        mut exact,
        exact_base,
        mut approx,
        approx_base,
    } = engines.expect("at least one set-up repetition");
    // The unsubscribed twin of the exact engine, stepped only in traced runs.
    let mut twin = if args.trace {
        let sketch = SketchSet::build(&historical, BASIC_WINDOW)?;
        Some(SlidingNetwork::initialize(
            &historical,
            &sketch,
            QUERY_WINDOWS * BASIC_WINDOW,
        )?)
    } else {
        None
    };

    common::reset_peak_rss();
    // Phase 1: the exact engine.
    let exact_feed = Feed {
        data: &data,
        runner: &pool,
        ticks: EXACT_TICKS,
        window_interval: args
            .seconds
            .mul_f64(EXACT_SHARE)
            .div_f64(EXACT_TICKS as f64),
        label: "exact",
    };
    let p1 = drive(
        &mut exact,
        exact_base,
        &exact_feed,
        &mut tracer,
        |tr, w, window, root, tick| {
            let (_, kernel, _) = tr.span("stats.window_kernel", root, w as u64, || {
                window_kernel(window)
            });
            if let Some(twin) = twin.as_mut() {
                let (_, unsub, _) = tr.span("incremental.unsubscribed", root, w as u64, || {
                    twin.ingest_in(&pool, window)
                });
                tr.count("incremental.slide_ms", w as u64, unsub - kernel);
                tr.count("delta.certify_ms", w as u64, tick - unsub);
            }
        },
    );
    drop(exact);
    drop(twin);

    // Phase 2: the approximate engine, on its own schedule.
    let approx_feed = Feed {
        data: &data,
        runner: &pool,
        ticks: APPROX_TICKS,
        window_interval: args
            .seconds
            .mul_f64(1.0 - EXACT_SHARE)
            .div_f64(APPROX_TICKS as f64),
        label: "approximate",
    };
    let planner = DftPlanner::new(BASIC_WINDOW);
    let mut approx_tracer = Tracer::new(args.trace, origin);
    let p2 = drive(
        &mut approx,
        approx_base,
        &approx_feed,
        &mut approx_tracer,
        |tr, w, window, root, tick| {
            let (rows, transform, _) = tr.span("dft.transform", root, w as u64, || {
                dft_rows(&planner, window)
            });
            let n = window.len();
            let (_, kernel, _) = tr.span("dft.dist_kernel", root, w as u64, || {
                let mut sq = vec![0.0; n * (n - 1) / 2];
                tiled_pair_dist_sq_into(&rows, n, 2 * COEFFICIENTS, &mut sq);
                sq
            });
            tr.count("dft.slide_ms", w as u64, tick - transform - kernel);
        },
    );
    let peak = common::peak_rss_mb();

    let layers = if args.trace {
        vec![
            metric("stream.tick_ms", common::median(&p1.service_ms), "ms"),
            metric(
                "stats.window_kernel_ms",
                common::median(&tracer.durations_ms("stats.window_kernel")),
                "ms",
            ),
            metric(
                "incremental.slide_ms",
                common::median(&tracer.counts("incremental.slide_ms")),
                "ms",
            ),
            metric(
                "delta.certify_ms",
                common::median(&tracer.counts("delta.certify_ms")),
                "ms",
            ),
            metric(
                "delta.recheck_frac",
                common::mean(&tracer.counts("delta.recheck_frac")),
                "ratio",
            ),
            metric(
                "delta.changed_edges",
                common::median(&tracer.counts("delta.changed_edges")),
                "count",
            ),
            metric(
                "dft.transform_ms",
                common::median(&approx_tracer.durations_ms("dft.transform")),
                "ms",
            ),
            metric(
                "dft.dist_kernel_ms",
                common::median(&approx_tracer.durations_ms("dft.dist_kernel")),
                "ms",
            ),
            metric(
                "dft.slide_ms",
                common::median(&approx_tracer.counts("dft.slide_ms")),
                "ms",
            ),
        ]
    } else {
        Vec::new()
    };
    tracer.absorb(approx_tracer);

    let busy_s: f64 = p1.service_ms.iter().sum::<f64>() / 1e3;
    let setup = common::median(&setup_s);
    let mut mismatches = p1.mismatches;
    mismatches.extend(p2.mismatches);
    Ok(Outcome {
        attempted: p1.attempted + p2.attempted,
        failed: p1.failed + p2.failed,
        checked: p1.checked + p2.checked,
        mismatches,
        end_to_end: vec![
            metric("setup_s", setup, "s"),
            metric(
                "op_p5_ms",
                common::percentile(&p1.latency_ms, common::FAST_QUANTILE),
                "ms",
            )
            .alias("tick_p5_ms"),
            metric("op_p50_ms", common::median(&p1.latency_ms), "ms").alias("tick_p50_ms"),
            metric("op_p90_ms", common::percentile(&p1.latency_ms, 0.9), "ms").alias("tick_p90_ms"),
            metric("ops_per_s", p1.service_ms.len() as f64 / busy_s, "1/s")
                .alias("ticks_per_busy_s"),
            metric(
                "aux_p5_ms",
                common::percentile(&p2.latency_ms, common::FAST_QUANTILE),
                "ms",
            )
            .alias("approx_tick_p5_ms"),
            metric("aux_p50_ms", common::median(&p2.latency_ms), "ms").alias("approx_tick_p50_ms"),
            metric("aux_p90_ms", common::percentile(&p2.latency_ms, 0.9), "ms")
                .alias("approx_tick_p90_ms"),
            metric("peak_rss_mb", peak, "MiB"),
        ],
        layers,
        samples: vec![
            ("tick", p1.latency_ms.clone()),
            ("tick_service", p1.service_ms.clone()),
            ("approx_tick", p2.latency_ms.clone()),
            ("approx_tick_service", p2.service_ms.clone()),
        ],
        config: vec![
            ("stations", STATIONS.to_string()),
            ("basic_window", BASIC_WINDOW.to_string()),
            ("push_points", PUSH_POINTS.to_string()),
            ("query_windows", QUERY_WINDOWS.to_string()),
            ("coefficients", COEFFICIENTS.to_string()),
            ("exact_ticks", EXACT_TICKS.to_string()),
            ("approx_ticks", APPROX_TICKS.to_string()),
            (
                "exact_window_interval_ms",
                format!("{:.3}", ms(exact_feed.window_interval)),
            ),
            (
                "approx_window_interval_ms",
                format!("{:.3}", ms(approx_feed.window_interval)),
            ),
            ("workers", common::WORKERS.to_string()),
        ],
        tracer,
    })
}

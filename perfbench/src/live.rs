//! `live`: serving under ingest.
//!
//! Set-up bootstraps `EpochIngest::exact` from the first basic windows and
//! starts the TCP server (`server::start`) over the epoch store. The ingest
//! generator is open loop: one basic window is due per fixed interval, and
//! each completed window publishes an epoch. One closed-loop `ServeClient`
//! connection repeats four requests: `network` and `top_k` over the whole
//! history and over the trailing windows. This is the only workload where
//! publication and reads contend, and where the plan cache, the wire
//! protocol and TCP run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsubasa_core::exact;
use tsubasa_core::plan::PlanMethod;
use tsubasa_data::{generate_ncea_like, NceaLikeConfig};
use tsubasa_parallel::WorkerPool;
use tsubasa_serve::proto::{decode_response, encode_response};
use tsubasa_serve::{
    server, Epoch, EpochIngest, EpochStore, Method, PlanCache, QueryEngine, Response, ServeClient,
    ServerHandle,
};

use crate::common::{self, metric, ms, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Stations served. The trailing-window table (8128 pairs × 24 windows,
/// 1.5 MiB) stays within a core's own caches. With 200 stations (3.6 MiB)
/// the round trip moved by 16–20 % between runs of the same code on a
/// shared host, against 5–12 % here.
const STATIONS: usize = 128;
const BASIC_WINDOW: usize = 48;
/// Basic windows sketched at bootstrap.
const BOOT_WINDOWS: usize = 24;
/// Basic windows streamed during the timed phase.
const STREAM_WINDOWS: usize = 100;
const RETAINED_EPOCHS: usize = 8;
const PLAN_CACHE: usize = 64;
const TRAILING: u32 = 24;
const THETA: f64 = 0.7;
const K: u32 = 100;
/// Every this many responses one is re-computed serially.
const VERIFY_EVERY: usize = 50;
/// How many times set-up is repeated; `setup_s` is the median. One set-up
/// takes about 7 ms, so a single late thread wake-up moves it.
const SETUP_REPS: usize = 40;

#[derive(Debug, Clone, Copy)]
enum Req {
    Network(u32),
    TopK(u32),
}

/// The client's request cycle: whole history and the trailing windows.
const CYCLE: [Req; 4] = [
    Req::Network(0),
    Req::Network(TRAILING),
    Req::TopK(0),
    Req::TopK(TRAILING),
];

/// One served response as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Seen {
    epoch: u64,
    recv: Instant,
}

/// The serving stack set-up builds.
struct Stack {
    ingest: EpochIngest,
    store: Arc<EpochStore>,
    engine: Arc<QueryEngine>,
    handle: ServerHandle,
}

fn start_stack(
    historical: &tsubasa_core::SeriesCollection,
) -> Result<Stack, Box<dyn std::error::Error>> {
    let store = Arc::new(EpochStore::new(RETAINED_EPOCHS));
    let (ingest, _) = EpochIngest::exact(Arc::clone(&store), historical, BASIC_WINDOW)?;
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Arc::new(PlanCache::new(PLAN_CACHE)),
        Arc::new(WorkerPool::new(common::WORKERS)),
    ));
    let handle = server::start(Arc::clone(&engine), "127.0.0.1:0")?;
    Ok(Stack {
        ingest,
        store,
        engine,
        handle,
    })
}

fn windows_of(epoch: &Epoch, last: u32) -> std::ops::Range<usize> {
    let wc = epoch.window_count();
    if last == 0 {
        0..wc
    } else {
        wc - last as usize..wc
    }
}

/// The served answer re-computed serially against the epoch it echoes.
fn matches_serial(epoch: &Epoch, req: Req, got: &Response) -> bool {
    let Some(sketch) = epoch.exact() else {
        return false;
    };
    match (req, got) {
        (
            Req::Network(last),
            Response::Network {
                nodes,
                nan_pairs,
                edges,
                ..
            },
        ) => exact::network_streamed_aligned(sketch, windows_of(epoch, last), THETA).is_ok_and(
            |want| {
                *nodes as usize == want.node_count()
                    && *nan_pairs == want.nan_pair_count() as u64
                    && edges.len() == want.edges().len()
                    && edges
                        .iter()
                        .zip(want.edges())
                        .all(|(a, b)| (a.0 as usize, a.1 as usize) == *b)
            },
        ),
        (
            Req::TopK(last),
            Response::TopK {
                nan_pairs, edges, ..
            },
        ) => exact::top_k_aligned(sketch, windows_of(epoch, last), K as usize).is_ok_and(|want| {
            *nan_pairs == want.nan_pairs as u64
                && edges.len() == want.edges.len()
                && edges.iter().zip(&want.edges).all(|(a, b)| {
                    (a.0 as usize, a.1 as usize, a.2.to_bits()) == (b.i, b.j, b.corr.to_bits())
                })
        }),
        _ => false,
    }
}

fn request(client: &mut ServeClient, req: Req) -> Result<Response, tsubasa_serve::ClientError> {
    Ok(match req {
        Req::Network(last) => {
            let r = client.network(Method::Exact, last, THETA)?;
            Response::Network {
                epoch: r.epoch,
                nodes: r.nodes,
                nan_pairs: r.nan_pairs,
                edges: r.edges,
            }
        }
        Req::TopK(last) => {
            let r = client.top_k(Method::Exact, last, K)?;
            Response::TopK {
                epoch: r.epoch,
                nan_pairs: r.nan_pairs,
                edges: r.edges,
            }
        }
    })
}

fn epoch_of(resp: &Response) -> u64 {
    match resp {
        Response::Network { epoch, .. } | Response::TopK { epoch, .. } => *epoch,
        _ => 0,
    }
}

/// A round-trip percentile of the trailing-window requests of `CYCLE`,
/// taken per request kind and averaged over the two kinds. Their work is
/// constant, whereas the whole-history requests ramp with the history
/// (their latencies are kept in the result file's samples).
fn trailing(kind_ms: &[Vec<f64>; 4], q: f64) -> f64 {
    (common::percentile(&kind_ms[1], q) + common::percentile(&kind_ms[3], q)) / 2.0
}

/// What the client thread hands back.
struct ClientLog {
    rtt_ms: Vec<f64>,
    kind_ms: [Vec<f64>; 4],
    seen: Vec<Seen>,
    attempted: u64,
    failed: u64,
    checked: u64,
    mismatches: Vec<String>,
    /// Time the client spent on the correctness gate instead of requests.
    paused: Duration,
    busy: Duration,
    tracer: Tracer,
}

struct ClientCtx<'a> {
    addr: std::net::SocketAddr,
    store: &'a EpochStore,
    served: &'a QueryEngine,
    /// A second engine over the same store, called directly in traced runs
    /// to time the query layer without the server.
    direct: Option<QueryEngine>,
    stop: &'a AtomicBool,
    final_epoch: &'a AtomicU64,
    origin: Instant,
    trace: bool,
}

fn client_loop(ctx: ClientCtx<'_>) -> ClientLog {
    let mut log = ClientLog {
        rtt_ms: Vec::new(),
        kind_ms: Default::default(),
        seen: Vec::new(),
        attempted: 0,
        failed: 0,
        checked: 0,
        mismatches: Vec::new(),
        paused: Duration::ZERO,
        busy: Duration::ZERO,
        tracer: Tracer::new(ctx.trace, ctx.origin),
    };
    let mut client = match ServeClient::connect(ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            log.failed += 1;
            log.attempted += 1;
            log.mismatches.push(format!("live: connect failed: {e}"));
            return log;
        }
    };
    let _ = client.set_read_timeout(Some(Duration::from_secs(30)));
    let begin = Instant::now();
    let mut last_epoch = 0u64;
    let mut stopped_at: Option<Instant> = None;
    let mut i = 0usize;
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            let at = *stopped_at.get_or_insert_with(Instant::now);
            if last_epoch >= ctx.final_epoch.load(Ordering::Acquire)
                || at.elapsed() > Duration::from_secs(5)
            {
                break;
            }
        }
        let req = CYCLE[i % CYCLE.len()];
        let request_id = i as u64;
        i += 1;
        log.attempted += 1;
        let cache_before = ctx.served.cache().stats();
        let (resp, rtt, root) = log.tracer.span("serve.request", None, request_id, || {
            request(&mut client, req)
        });
        let recv = Instant::now();
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                log.failed += 1;
                log.mismatches
                    .push(format!("live: request {req:?} failed: {e}"));
                if matches!(e, tsubasa_serve::ClientError::Proto(_)) {
                    break;
                }
                continue;
            }
        };
        let epoch = epoch_of(&resp);
        if epoch < last_epoch {
            log.mismatches.push(format!(
                "live: epoch went back from {last_epoch} to {epoch}"
            ));
        }
        last_epoch = last_epoch.max(epoch);
        log.rtt_ms.push(rtt);
        log.kind_ms[(i - 1) % CYCLE.len()].push(rtt);
        log.seen.push(Seen { epoch, recv });

        if ctx.trace {
            let cache_after = ctx.served.cache().stats();
            let served_hit = cache_after.misses == cache_before.misses;
            trace_request(
                &mut log.tracer,
                &ctx,
                req,
                &resp,
                rtt,
                served_hit,
                root,
                request_id,
            );
        }
        if log.rtt_ms.len() % VERIFY_EVERY == 1 {
            let pause = Instant::now();
            if let Some(at) = ctx.store.get(epoch) {
                log.checked += 1;
                if !matches_serial(&at, req, &resp) {
                    log.mismatches.push(format!(
                        "live: {req:?} at epoch {epoch} differs from serial"
                    ));
                }
            }
            log.paused += pause.elapsed();
        }
    }
    log.busy = begin.elapsed();
    log
}

/// The traced run's extra calls for one served request: the same query on
/// a directly called engine (plan-cache hit or miss, classified by that
/// engine's cache counters), and the response's encode and decode.
#[allow(clippy::too_many_arguments)]
fn trace_request(
    tracer: &mut Tracer,
    ctx: &ClientCtx<'_>,
    req: Req,
    resp: &Response,
    rtt: f64,
    served_hit: bool,
    root: Option<usize>,
    request_id: u64,
) {
    let (bytes, _, _) = tracer.span("proto.encode", root, request_id, || encode_response(resp));
    let (decoded, _, _) = tracer.span("proto.decode", root, request_id, || decode_response(&bytes));
    drop(decoded);
    let Some(direct) = &ctx.direct else {
        return;
    };
    let before = direct.cache().stats();
    let (answer, took, _) = tracer.span("query.direct", root, request_id, || match req {
        Req::Network(last) => direct.network(PlanMethod::Exact, last, THETA).map(|_| ()),
        Req::TopK(last) => direct.top_k(PlanMethod::Exact, last, K).map(|_| ()),
    });
    if answer.is_err() {
        return;
    }
    let hit = direct.cache().stats().misses == before.misses;
    tracer.count(
        if hit { "cache.hit_ms" } else { "cache.miss_ms" },
        request_id,
        took,
    );
    if hit == served_hit {
        tracer.count("server.overhead_ms", request_id, rtt - took);
    }
}

pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let data = generate_ncea_like(&NceaLikeConfig {
        stations: STATIONS,
        points: (BOOT_WINDOWS + STREAM_WINDOWS) * BASIC_WINDOW,
        seed: args.seed,
        ..NceaLikeConfig::default()
    })?;
    let historical = data.truncate_length(BOOT_WINDOWS * BASIC_WINDOW)?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);

    // Set-up: bootstrap ingest and start the server, several times.
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = stack.take() {
            let Stack { handle, .. } = old;
            handle.shutdown();
        }
        let start = Instant::now();
        stack = Some(start_stack(&historical)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Stack {
        mut ingest,
        store,
        engine,
        handle,
    } = stack.expect("at least one set-up repetition");

    common::reset_peak_rss();
    let interval = args.seconds.div_f64(STREAM_WINDOWS as f64);
    let stop = AtomicBool::new(false);
    let final_epoch = AtomicU64::new(u64::MAX);
    let mut dues = Vec::with_capacity(STREAM_WINDOWS);
    let mut window_epochs = Vec::with_capacity(STREAM_WINDOWS);
    let mut late_ms = Vec::with_capacity(STREAM_WINDOWS);
    let mut ingest_ms = Vec::with_capacity(STREAM_WINDOWS);
    let mut ingest_failed = 0u64;
    let direct = args.trace.then(|| {
        QueryEngine::new(
            Arc::clone(&store),
            Arc::new(PlanCache::new(PLAN_CACHE)),
            Arc::new(WorkerPool::new(common::WORKERS)),
        )
    });

    let log = std::thread::scope(|scope| {
        let ctx = ClientCtx {
            addr: handle.local_addr(),
            store: &store,
            served: &engine,
            direct,
            stop: &stop,
            final_epoch: &final_epoch,
            origin,
            trace: args.trace,
        };
        let client = scope.spawn(move || client_loop(ctx));

        // Open-loop ingest generator: window w is due at start + (w + 1)·interval.
        let start = Instant::now();
        for w in 0..STREAM_WINDOWS {
            let due = start + interval.mul_f64((w + 1) as f64);
            late_ms.push(common::sleep_until(due));
            let from = (BOOT_WINDOWS + w) * BASIC_WINDOW;
            let chunk = common::chunk(&data, from, from + BASIC_WINDOW);
            let (published, took, root) =
                tracer.span("epoch.ingest", None, w as u64, || ingest.ingest(&chunk));
            match published.as_deref() {
                Ok([epoch]) => {
                    dues.push(due);
                    window_epochs.push(epoch.id());
                    ingest_ms.push(took);
                }
                _ => ingest_failed += 1,
            }
            if tracer.enabled() {
                if let Some(sketch) = store.latest().and_then(|e| e.exact().cloned()) {
                    let (copy, _, _) =
                        tracer.span("epoch.copy", root, w as u64, || (*sketch).clone());
                    drop(copy);
                }
            }
        }
        final_epoch.store(
            window_epochs.last().copied().unwrap_or(0),
            Ordering::Release,
        );
        stop.store(true, Ordering::Release);
        client.join().expect("client thread panicked")
    });
    let peak = common::peak_rss_mb();
    let cache = engine.cache().stats();
    let epoch_bytes = store
        .latest()
        .and_then(|e| e.exact().map(|s| s.stored_floats() * 8))
        .unwrap_or(0);
    handle.shutdown();
    drop(engine);

    // Window latency: from a window's due time to the first response whose
    // echoed epoch covers it.
    let mut window_ms = Vec::with_capacity(dues.len());
    let mut r = 0usize;
    for (due, &epoch) in dues.iter().zip(&window_epochs) {
        while r < log.seen.len() && log.seen[r].epoch < epoch {
            r += 1;
        }
        if let Some(seen) = log.seen.get(r) {
            window_ms.push(ms(seen.recv.saturating_duration_since(*due)));
        }
    }
    let mut mismatches = log.mismatches;
    if window_ms.len() != dues.len() {
        mismatches.push(format!(
            "live: {} of {} windows never reached the client",
            dues.len() - window_ms.len(),
            dues.len()
        ));
    }
    let served_s = (log.busy - log.paused).as_secs_f64();
    let qps = log.rtt_ms.len() as f64 / served_s;
    let setup = common::median(&setup_s);
    tracer.absorb(log.tracer);

    let layers = if args.trace {
        let tenth = (ingest_ms.len() / 10).max(1);
        let growth = common::median(&ingest_ms[ingest_ms.len() - tenth..])
            / common::median(&ingest_ms[..tenth]);
        let lookups = (cache.hits + cache.misses).max(1) as f64;
        vec![
            metric("epoch.ingest_ms", common::median(&ingest_ms), "ms"),
            metric("epoch.ingest_growth", growth, "ratio"),
            metric(
                "epoch.copy_ms",
                common::median(&tracer.durations_ms("epoch.copy")),
                "ms",
            ),
            metric("epoch.bytes", epoch_bytes as f64, "bytes"),
            metric("cache.hit_ratio", cache.hits as f64 / lookups, "ratio"),
            metric(
                "cache.hit_ms",
                common::median(&tracer.counts("cache.hit_ms")),
                "ms",
            ),
            metric(
                "cache.miss_ms",
                common::median(&tracer.counts("cache.miss_ms")),
                "ms",
            ),
            metric(
                "proto.encode_us",
                common::median(&tracer.durations_ms("proto.encode")) * 1e3,
                "us",
            ),
            metric(
                "proto.decode_us",
                common::median(&tracer.durations_ms("proto.decode")) * 1e3,
                "us",
            ),
            metric(
                "server.overhead_ms",
                common::median(&tracer.counts("server.overhead_ms")),
                "ms",
            ),
            metric("ingest.late_ms", common::percentile(&late_ms, 0.9), "ms"),
        ]
    } else {
        Vec::new()
    };
    Ok(Outcome {
        attempted: log.attempted + STREAM_WINDOWS as u64,
        failed: log.failed + ingest_failed,
        checked: log.checked,
        mismatches,
        end_to_end: vec![
            metric("setup_s", setup, "s"),
            metric(
                "op_p5_ms",
                trailing(&log.kind_ms, common::FAST_QUANTILE),
                "ms",
            )
            .alias("trailing_query_p5_ms"),
            metric("op_p50_ms", trailing(&log.kind_ms, 0.5), "ms").alias("trailing_query_p50_ms"),
            metric("op_p90_ms", trailing(&log.kind_ms, 0.9), "ms").alias("trailing_query_p90_ms"),
            metric("ops_per_s", qps, "1/s").alias("qps"),
            metric(
                "aux_p5_ms",
                common::percentile(&window_ms, common::FAST_QUANTILE),
                "ms",
            )
            .alias("window_latency_p5_ms"),
            metric("aux_p50_ms", common::median(&window_ms), "ms").alias("window_latency_p50_ms"),
            metric("aux_p90_ms", common::percentile(&window_ms, 0.9), "ms")
                .alias("window_latency_p90_ms"),
            metric("peak_rss_mb", peak, "MiB"),
        ],
        layers,
        samples: vec![
            ("network_all", log.kind_ms[0].clone()),
            ("network_trailing", log.kind_ms[1].clone()),
            ("topk_all", log.kind_ms[2].clone()),
            ("topk_trailing", log.kind_ms[3].clone()),
            ("window_latency", window_ms.clone()),
        ],
        config: vec![
            ("stations", STATIONS.to_string()),
            ("basic_window", BASIC_WINDOW.to_string()),
            ("boot_windows", BOOT_WINDOWS.to_string()),
            ("stream_windows", STREAM_WINDOWS.to_string()),
            ("interval_ms", format!("{:.3}", ms(interval))),
            ("retained_epochs", RETAINED_EPOCHS.to_string()),
            ("workers", common::WORKERS.to_string()),
            ("responses", log.rtt_ms.len().to_string()),
            (
                "rtt_p50_ms_by_request",
                format!(
                    "{:?}",
                    log.kind_ms
                        .iter()
                        .map(|k| common::median(k))
                        .collect::<Vec<_>>()
                ),
            ),
            (
                "ingest_late_p90_ms",
                format!("{:.3}", common::percentile(&late_ms, 0.9)),
            ),
            ("cache_hits", cache.hits.to_string()),
            ("cache_misses", cache.misses.to_string()),
        ],
        tracer,
    })
}

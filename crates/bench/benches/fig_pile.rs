//! Pile benchmark — the memory-mapped append-only sketch pile.
//!
//! The pile stores correlations as window-major `f64` tables in the exact
//! layout `block_kernel` consumes, so the query path maps the file and hands
//! the kernel zero-copy `CorrView` borrows — no per-record deserialization,
//! no gathered copy of the table.
//!
//! This bench pins three facts with a counting global allocator (the
//! `fig6b_streamed` pattern):
//!
//! * sketch-write throughput of the pile's coalesced window-major appends;
//! * query-path allocation: fetching the query's pair table from the
//!   compacted pile allocates **at least a whole `P×W×8`-byte `f64` table
//!   less** than from a copy split into per-window segments, which must
//!   gather it — direct evidence that the sweep reads the mapping in place.
//!   The whole network query's peak extra allocation stays below four such
//!   tables;
//! * out-of-core queries: with `TSUBASA_DENSE_LIMIT_BYTES` set below the
//!   dense matrix requirement, the dense query fails fast with `TooLarge`
//!   while the streamed pile network/top-k queries complete against the
//!   same mapped file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tsubasa_bench::{fmt_ms, millis, scaled, workers, Table};
use tsubasa_core::error::Error;
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::source::CorrSource;
use tsubasa_data::prelude::*;
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa_storage::{PileWriter, SegmentKind, SketchPile};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn bump(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            bump(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                bump(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[allow(unsafe_code)]
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

fn peak_extra(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

fn fmt_bytes(b: u128) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

/// Copy `pile` into a new pile at `path` with one segment per window and
/// kind, so multi-window ranges can only be served by gathering.
fn split_per_window(pile: &SketchPile, path: &Path) -> SketchPile {
    let windows = pile.exact_query_windows();
    let stats = pile.series_stats(0..windows).unwrap();
    let corrs = pile.pair_table(0..windows, SegmentKind::PairCorrs).unwrap();
    let mut writer = PileWriter::create(path, pile.n_series(), pile.basic_window()).unwrap();
    for w in 0..windows {
        let row: Vec<f64> = stats
            .iter()
            .flat_map(|s| [s[w].len as f64, s[w].mean, s[w].std])
            .collect();
        writer.append(SegmentKind::SeriesStats, &row).unwrap();
        writer
            .append(SegmentKind::PairCorrs, corrs.view().window_row(w))
            .unwrap();
    }
    writer.into_pile().unwrap()
}

/// Peak extra allocation of fetching the exact pair table of `pile`.
fn fetch_peak(pile: &SketchPile, windows: usize) -> usize {
    let base = reset_peak();
    let table = CorrSource::full_table(pile, 0..windows, PlanMethod::Exact).unwrap();
    let peak = peak_extra(base);
    drop(table);
    peak
}

fn main() {
    let basic_window = 120;
    let points = 960;
    let windows = points / basic_window;
    let theta = 0.7;
    let k = 50;
    let workers = workers();
    let sweep: Vec<usize> = [100usize, 200, 400]
        .iter()
        .map(|&n| scaled(n, 24))
        .collect();

    println!(
        "Pile benchmark: mapped window-major pile | B={basic_window} | \
         {points} points | theta={theta} | k={k} | {workers} workers"
    );

    let engine = ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 256,
        sketch_method: SketchMethod::Exact,
        audit_pruned_chunks: false,
    });

    let mut table = Table::new(&[
        "series",
        "sketch wall",
        "db write",
        "net wall",
        "net peak alloc",
        "f64 table",
        "zero-copy",
    ]);
    let mut json_rows = Vec::new();
    let mut last_pile_path = None;

    for &n in &sweep {
        let collection = generate_berkeley_like(&BerkeleyLikeConfig {
            cells: n,
            points,
            ..BerkeleyLikeConfig::default()
        })
        .expect("generate dataset");
        let pairs = n * (n - 1) / 2;
        // What a gathering source would copy out for the query, and the
        // mapped pile never materializes: one f64 per (pair, window).
        let table_bytes = pairs * windows * std::mem::size_of::<f64>();

        let path =
            std::env::temp_dir().join(format!("tsubasa-figpile-{}-{n}.pile", std::process::id()));
        let writer = PileWriter::create(&path, n, basic_window).unwrap();
        let (pile_report, pile) = engine
            .sketch_to_pile(&collection, basic_window, writer)
            .unwrap();
        drop(pile);
        // Compaction coalesces the append log into one segment per kind, so
        // the full query range is served from a single zero-copy borrow.
        SketchPile::compact(&path).unwrap();
        let pile = SketchPile::open(&path).unwrap();
        let zero_copy = pile
            .pair_table(0..windows, SegmentKind::PairCorrs)
            .unwrap()
            .is_zero_copy();
        assert!(
            zero_copy,
            "a compacted pile must serve full ranges zero-copy"
        );

        let base = reset_peak();
        let t = Instant::now();
        let (net_pile, _) = engine
            .network(&pile, 0..windows, QueryMethod::Exact, theta)
            .unwrap();
        let pile_net_wall = t.elapsed();
        let pile_peak = peak_extra(base);
        assert!(
            pile_peak < 4 * table_bytes,
            "pile network query allocated {pile_peak} B, f64 table is {table_bytes} B"
        );

        // The zero-copy claim, enforced: the table fetch the sweep runs on
        // borrows the mapping, while per-window segments force a gather.
        let split_path = path.with_extension("split.pile");
        let split = split_per_window(&pile, &split_path);
        let mapped_fetch = fetch_peak(&pile, windows);
        let gathered_fetch = fetch_peak(&split, windows);
        assert!(
            mapped_fetch + table_bytes <= gathered_fetch,
            "pile fetch allocated {mapped_fetch} B, split pile fetch {gathered_fetch} B, \
             f64 table is {table_bytes} B"
        );
        drop(split);
        std::fs::remove_file(&split_path).ok();
        let (dense, _) = engine.query(&pile, 0..windows, QueryMethod::Exact).unwrap();
        assert_eq!(
            net_pile.to_adjacency(),
            dense.threshold(theta).unwrap(),
            "streamed pile network must equal the dense threshold"
        );
        table.row(vec![
            n.to_string(),
            fmt_ms(millis(pile_report.wall_time)),
            fmt_ms(millis(pile_report.write_time)),
            fmt_ms(millis(pile_net_wall)),
            fmt_bytes(pile_peak as u128),
            fmt_bytes(table_bytes as u128),
            if pile.is_mmap() { "mmap" } else { "fallback" }.to_string(),
        ]);

        json_rows.push(serde_json::json!({
            "series": n,
            "pairs": pairs,
            "windows": windows,
            "pile_sketch_wall_ms": millis(pile_report.wall_time),
            "pile_write_ms": millis(pile_report.write_time),
            "pile_network_wall_ms": millis(pile_net_wall),
            "pile_network_peak_bytes": pile_peak,
            "table_bytes": table_bytes,
            "fetch_bytes": mapped_fetch,
            "split_fetch_bytes": gathered_fetch,
            "pile_space_bytes": pile.space_bytes(),
            "pile_is_mmap": pile.is_mmap(),
            "edges": net_pile.edge_count(),
        }));

        if Some(n) == sweep.last().copied() {
            last_pile_path = Some(path);
        } else {
            std::fs::remove_file(&path).ok();
        }
    }

    table.print("Pile: sketch write + network query");

    // --- Out-of-core coda: query a pile past the dense budget -------------
    let path = last_pile_path.expect("at least one sweep point");
    let pile = SketchPile::open(&path).unwrap();
    let pairs = pile.pair_count();
    // The dense guard prices the all-pairs buffer (`pairs × 8` bytes); set
    // the budget strictly below it so the dense path must refuse while the
    // streamed pile sweeps — which never materialize that buffer — proceed.
    let dense_need = (pairs * 8) as u64;
    let dense_limit = (dense_need / 2).max(1);
    std::env::set_var("TSUBASA_DENSE_LIMIT_BYTES", dense_limit.to_string());

    let dense = engine.query(&pile, 0..windows, QueryMethod::Exact);
    assert!(
        matches!(dense, Err(Error::TooLarge { .. })),
        "dense query must trip the budget guard"
    );
    let t = Instant::now();
    let (net, _) = engine
        .network(&pile, 0..windows, QueryMethod::Exact, theta)
        .unwrap();
    let net_wall = t.elapsed();
    let t = Instant::now();
    let (top, _) = engine
        .top_k(&pile, 0..windows, QueryMethod::Exact, k)
        .unwrap();
    let top_wall = t.elapsed();
    std::env::remove_var("TSUBASA_DENSE_LIMIT_BYTES");
    println!(
        "out-of-core @ N={}: dense needs {} (budget {}), TooLarge; streamed pile network {} \
         ({} edges), top-{k} {}",
        pile.n_series(),
        fmt_bytes(dense_need as u128),
        fmt_bytes(dense_limit as u128),
        fmt_ms(millis(net_wall)),
        net.edge_count(),
        fmt_ms(millis(top_wall)),
    );
    std::fs::remove_file(&path).ok();

    let out_of_core = serde_json::json!({
        "dense_required_bytes": dense_need,
        "dense_limit_bytes": dense_limit,
        "dense_too_large": true,
        "network_wall_ms": millis(net_wall),
        "network_edges": net.edge_count(),
        "top_k_wall_ms": millis(top_wall),
        "top_k_len": top.edges.len(),
    });
    tsubasa_bench::write_json(
        "fig_pile",
        &serde_json::json!({
            "basic_window": basic_window,
            "points": points,
            "theta": theta,
            "k": k,
            "workers": workers,
            "rows": json_rows,
            "out_of_core": out_of_core,
        }),
    );
}

//! Workspace integration tests: the parallel + disk-based configuration —
//! partitioned sketching through the pile's database-writer worker, queries
//! over the mapped pile, and the space accounting used by the Figure 6d
//! experiment.

use std::path::{Path, PathBuf};

use tsubasa::core::prelude::*;
use tsubasa::data::prelude::*;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::{PileWriter, SketchPile};

fn grid(cells: usize, points: usize) -> SeriesCollection {
    generate_berkeley_like(&BerkeleyLikeConfig {
        cells,
        points,
        seed: 2024,
        regions: 4,
        ..BerkeleyLikeConfig::default()
    })
    .unwrap()
}

fn temp_pile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tsubasa-it-{}-{tag}.pile", std::process::id()))
}

fn engine(workers: usize, batch_pairs: usize) -> ParallelEngine {
    ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs,
        sketch_method: SketchMethod::Exact,
        audit_pruned_chunks: false,
    })
}

/// Sketch `collection` into a fresh pile at `path`.
fn sketch(
    engine: &ParallelEngine,
    collection: &SeriesCollection,
    b: usize,
    path: &Path,
) -> SketchPile {
    let writer = PileWriter::create(path, collection.len(), b).unwrap();
    let (report, pile) = engine.sketch_to_pile(collection, b, writer).unwrap();
    assert_eq!(report.pairs, collection.pair_count());
    pile
}

#[test]
fn parallel_disk_pipeline_matches_serial_exact_path() {
    let collection = grid(24, 720);
    let b = 120;
    let layout = ParallelEngine::layout_for(&collection, b).unwrap();
    let path = temp_pile("pipeline");
    let engine = engine(4, 16);
    let pile = sketch(&engine, &collection, b, &path);

    let (parallel_matrix, query_report) = engine
        .query(&pile, 0..layout.n_windows, QueryMethod::Exact)
        .unwrap();
    assert_eq!(query_report.pairs, collection.pair_count());

    // Serial reference on the same aligned window.
    let builder =
        HistoricalBuilder::new(collection.clone(), NetworkConfig::new(b, 0.75).unwrap()).unwrap();
    let query = QueryWindow::new(layout.n_windows * b - 1, layout.n_windows * b).unwrap();
    let serial_matrix = builder.correlation_matrix(query).unwrap();
    assert!(parallel_matrix.max_abs_diff(&serial_matrix) < 1e-9);

    // A reopened pile answers without raw data, bit-identically.
    drop(pile);
    let reopened = SketchPile::open(&path).unwrap();
    let (from_reopened, _) = engine
        .query(&reopened, 0..layout.n_windows, QueryMethod::Exact)
        .unwrap();
    assert_eq!(from_reopened, parallel_matrix);

    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_and_memory_stores_are_interchangeable() {
    let collection = grid(12, 600);
    let b = 100;
    let layout = ParallelEngine::layout_for(&collection, b).unwrap();
    let engine = engine(3, 8);

    let memory = SketchSet::build(&collection, b).unwrap();
    let (mem_matrix, _) = engine
        .query(&memory, 0..layout.n_windows, QueryMethod::Exact)
        .unwrap();

    let path = temp_pile("interchange");
    let pile = sketch(&engine, &collection, b, &path);
    let (disk_matrix, _) = engine
        .query(&pile, 0..layout.n_windows, QueryMethod::Exact)
        .unwrap();

    assert!(mem_matrix.max_abs_diff(&disk_matrix) < 1e-12);
    std::fs::remove_file(&path).ok();
}

#[test]
fn space_overhead_shrinks_as_basic_window_grows() {
    // The Figure 6d relationship: fewer, larger basic windows → fewer stored
    // window rows → smaller pile.
    let collection = grid(16, 960);
    let engine = engine(2, 64);
    let mut previous: Option<u64> = None;
    for b in [60usize, 120, 240, 480] {
        let layout = ParallelEngine::layout_for(&collection, b).unwrap();
        let path = temp_pile(&format!("space-{b}"));
        let pile = sketch(&engine, &collection, b, &path);
        // Every stored value is one f64 — 3 per series and 1 per pair, per
        // window — plus a 64-byte file header and one per segment.
        let payload = (layout.n_windows * (3 * layout.n_series + layout.n_pairs()) * 8) as u64;
        let headers = 64 * (1 + pile.segment_count() as u64);
        assert_eq!(pile.space_bytes(), payload + headers);
        if let Some(prev) = previous {
            assert!(pile.space_bytes() < prev, "space must shrink as B grows");
        }
        previous = Some(pile.space_bytes());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn partition_count_changes_throughput_not_results() {
    let collection = grid(20, 600);
    let b = 120;
    let layout = ParallelEngine::layout_for(&collection, b).unwrap();
    let mut reference: Option<CorrelationMatrix> = None;
    for workers in [1usize, 2, 6, 12] {
        let engine = engine(workers, 4);
        let path = temp_pile(&format!("partitions-{workers}"));
        let pile = sketch(&engine, &collection, b, &path);
        let (matrix, report) = engine
            .query(&pile, 0..layout.n_windows, QueryMethod::Exact)
            .unwrap();
        assert_eq!(report.workers, workers);
        match &reference {
            None => reference = Some(matrix),
            Some(r) => assert!(r.max_abs_diff(&matrix) < 1e-12),
        }
        std::fs::remove_file(&path).ok();
    }
}

//! Figure 6d — Space overhead of the sketch store.
//!
//! Setup (paper §4.3): 2,000 series (scaled here), Berkeley-Earth-like length
//! of 3,652 points; the size of the sketch database is reported as the basic
//! window size grows, for TSUBASA and for the DFT approximation.
//!
//! Expected shape (paper): both algorithms store the same amount per basic
//! window (here: one `f64` per pair — a correlation or an Equation 3
//! estimate — plus three per series), so their space overhead is identical
//! and shrinks inversely with B (fewer windows to store).

use tsubasa_bench::{scaled, workers, Table};
use tsubasa_data::prelude::*;
use tsubasa_parallel::{ParallelConfig, ParallelEngine, SketchMethod};
use tsubasa_storage::{PileWriter, SketchPile, StoreLayout};

/// Size of a compacted pile: a 64-byte file header, then one segment (a
/// 64-byte header plus window-major `f64` payload) for the series
/// statistics and one for the pair table.
fn analytic_bytes(layout: StoreLayout) -> u64 {
    let values = layout.n_windows * (3 * layout.n_series + layout.n_pairs());
    (3 * 64 + values * 8) as u64
}

fn main() {
    let n = scaled(2_000, 200);
    let points = 3_652;
    println!("Figure 6d: sketch space overhead | {n} series x {points} points");

    let mut table = Table::new(&["B", "windows", "TSUBASA pile (MiB)", "DFT pile (MiB)"]);
    let mut json_rows = Vec::new();

    for basic_window in [60usize, 120, 240, 480, 960] {
        let layout = StoreLayout {
            n_series: n,
            n_windows: points / basic_window,
            basic_window,
        };
        // Both algorithms store one value per pair per basic window plus
        // three statistics per series per basic window, so the formula is
        // the same for both (the paper's observation).
        let bytes = analytic_bytes(layout);
        let mib = bytes as f64 / (1024.0 * 1024.0);
        table.row(vec![
            basic_window.to_string(),
            layout.n_windows.to_string(),
            format!("{mib:.1}"),
            format!("{mib:.1}"),
        ]);
        json_rows.push(serde_json::json!({
            "basic_window": basic_window,
            "windows": layout.n_windows,
            "bytes": bytes,
            "mib": mib,
        }));
    }

    // Validate the analytic formula against actual compacted piles of both
    // sketch methods at a small scale (the big layouts above would needlessly
    // write gigabytes).
    let small = generate_berkeley_like(&BerkeleyLikeConfig {
        cells: 40,
        points: 720,
        ..BerkeleyLikeConfig::default()
    })
    .unwrap();
    let basic_window = 120;
    let layout = ParallelEngine::layout_for(&small, basic_window).unwrap();
    let predicted = analytic_bytes(layout);
    for (label, sketch_method) in [
        ("TSUBASA", SketchMethod::Exact),
        ("DFT", SketchMethod::Dft { coefficients: 90 }),
    ] {
        let path =
            std::env::temp_dir().join(format!("tsubasa-fig6d-{}-{label}.pile", std::process::id()));
        let engine = ParallelEngine::new(ParallelConfig {
            workers: workers(),
            sketch_method,
            ..ParallelConfig::default()
        });
        let writer = PileWriter::create(&path, small.len(), basic_window).unwrap();
        engine.sketch_to_pile(&small, basic_window, writer).unwrap();
        SketchPile::compact(&path).unwrap();
        let actual = SketchPile::open(&path).unwrap().space_bytes();
        println!(
            "validation on a 40-series {label} pile: predicted {predicted} bytes, on-disk {actual} bytes"
        );
        assert_eq!(
            actual, predicted,
            "analytic space formula must match the real pile"
        );
        std::fs::remove_file(&path).ok();
    }

    table.print("Figure 6d: sketch-pile size vs basic-window size");
    tsubasa_bench::write_json(
        "fig6d_space",
        &serde_json::json!({
            "series": n,
            "points": points,
            "rows": json_rows,
        }),
    );
}

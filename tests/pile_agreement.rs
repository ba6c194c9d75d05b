//! Pile sketch agreement grid.
//!
//! The parallel pile sketch must store **exactly** what a serial pass
//! computes: partitioning, the window-at-a-time pair pass, and the threaded
//! database worker must not change a single stored bit. This suite sweeps a
//! 72-case grid — series counts × basic windows × window ranges × query
//! methods × worker counts — and checks, per case:
//!
//! * every stored row against a serial in-test oracle, bit for bit
//!   (exact: `normalize_into` + `normalized_dot_corr`; DFT:
//!   `DftPlanner::transform` + `coefficient_distance` → `1 − d²/2`);
//! * matrix, network, and top-k answers identical at 1 and 3 workers.
//!
//! NaN-bearing windows are included (a missing observation poisons the
//! window statistics of its series); NaN *table values* are planted
//! explicitly in `planted_nan_records_audit_identically_across_backends`.

use std::ops::Range;
use std::path::PathBuf;

use tsubasa::core::prelude::*;
use tsubasa::core::stats::{normalize_into, normalized_dot_corr, WindowStats};
use tsubasa::core::{PairSketch, SeriesSketch};
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::{PileWriter, SegmentKind, SketchPile};
use tsubasa_dft::dft::{coefficient_distance, DftPlanner};
use tsubasa_dft::normalize::normalize_unit_with_stats;

const WINDOWS: usize = 4;
const COEFFICIENTS: usize = 8;

/// Deterministic multi-scale series; series 0 carries one NaN observation in
/// basic window 1. The sketch kernel clamps NaN correlations to `0.0`
/// ([`clamp_corr`]'s convention), so the poisoned windows exercise the
/// clamping path rather than producing NaN table values.
fn collection(n: usize, basic_window: usize) -> SeriesCollection {
    let len = WINDOWS * basic_window;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..len)
                .map(|i| {
                    if s == 0 && i == basic_window + 1 {
                        f64::NAN
                    } else {
                        (i as f64 * 0.11 + s as f64 * 0.63).sin()
                            + ((i * (s + 2)) % 13) as f64 * 0.05
                    }
                })
                .collect()
        })
        .collect();
    SeriesCollection::from_rows(rows).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsubasa-pile-agree-{}-{tag}.pile",
        std::process::id()
    ))
}

fn engine(workers: usize, method: SketchMethod) -> ParallelEngine {
    ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 8,
        sketch_method: method,
        audit_pruned_chunks: false,
    })
}

fn window_slice(c: &SeriesCollection, series: usize, w: usize, b: usize) -> &[f64] {
    &c.get(series).unwrap().values()[w * b..(w + 1) * b]
}

/// The serial oracle: per-window statistics and the window-major pair row
/// the pile must hold for `method`, computed one pair at a time.
fn oracle(
    c: &SeriesCollection,
    b: usize,
    method: SketchMethod,
) -> (Vec<Vec<WindowStats>>, Vec<Vec<f64>>) {
    let n = c.len();
    let stats: Vec<Vec<WindowStats>> = (0..n)
        .map(|s| {
            (0..WINDOWS)
                .map(|w| WindowStats::from_values(window_slice(c, s, w, b)))
                .collect()
        })
        .collect();
    let planner = DftPlanner::new(b);
    let rows = (0..WINDOWS)
        .map(|w| {
            let mut row = Vec::with_capacity(n * (n - 1) / 2);
            for a in 0..n {
                for bb in a + 1..n {
                    let (xa, xb) = (window_slice(c, a, w, b), window_slice(c, bb, w, b));
                    let (sa, sb) = (&stats[a][w], &stats[bb][w]);
                    row.push(match method {
                        SketchMethod::Exact => {
                            let (mut za, mut zb) = (vec![0.0; b], vec![0.0; b]);
                            normalize_into(xa, sa, &mut za);
                            normalize_into(xb, sb, &mut zb);
                            normalized_dot_corr(&za, &zb)
                        }
                        SketchMethod::Dft { coefficients } => {
                            let ca = planner.transform(&normalize_unit_with_stats(xa, sa));
                            let cb = planner.transform(&normalize_unit_with_stats(xb, sb));
                            let d = coefficient_distance(&ca, &cb, coefficients);
                            1.0 - d * d / 2.0
                        }
                    });
                }
            }
            row
        })
        .collect();
    (stats, rows)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn stats_bits(stats: &[WindowStats]) -> Vec<(usize, u64, u64)> {
    stats
        .iter()
        .map(|s| (s.len, s.mean.to_bits(), s.std.to_bits()))
        .collect()
}

/// Check every stored stats and pair row of `pile` against the oracle.
fn assert_rows_match(
    pile: &SketchPile,
    kind: SegmentKind,
    oracle: &(Vec<Vec<WindowStats>>, Vec<Vec<f64>>),
    label: &str,
) {
    let stored = pile.series_stats(0..WINDOWS).unwrap();
    for (s, (got, want)) in stored.iter().zip(&oracle.0).enumerate() {
        assert_eq!(stats_bits(got), stats_bits(want), "stats s={s}: {label}");
    }
    let table = pile.pair_table(0..WINDOWS, kind).unwrap();
    for (w, want) in oracle.1.iter().enumerate() {
        assert_eq!(
            bits(table.view().window_row(w)),
            bits(want),
            "pair row w={w}: {label}"
        );
    }
}

type Answers = (CorrelationMatrix, EdgeList, TopK);

fn answers(
    eng: &ParallelEngine,
    pile: &SketchPile,
    windows: Range<usize>,
    qm: QueryMethod,
) -> Answers {
    let (m, _) = eng.query(pile, windows.clone(), qm).unwrap();
    let (e, _) = eng.network(pile, windows.clone(), qm, 0.3).unwrap();
    let (t, _) = eng.top_k(pile, windows, qm, 5).unwrap();
    (m, e, t)
}

#[test]
fn pile_rows_match_serial_oracle_bit_for_bit_across_the_grid() {
    let mut cases = 0usize;
    for n in [3usize, 6, 10] {
        for b in [20usize, 50] {
            let c = collection(n, b);
            for (method, qmethod, kind) in [
                (
                    SketchMethod::Exact,
                    QueryMethod::Exact,
                    SegmentKind::PairCorrs,
                ),
                (
                    SketchMethod::Dft {
                        coefficients: COEFFICIENTS,
                    },
                    QueryMethod::Approximate,
                    SegmentKind::PairEsts,
                ),
            ] {
                let expected = oracle(&c, b, method);
                let mut piles = Vec::new();
                for workers in [1usize, 3] {
                    let label = format!("n={n} b={b} {qmethod:?} w={workers}");
                    let path = temp_path(&format!("{n}-{b}-{workers}-{qmethod:?}"));
                    let eng = engine(workers, method);
                    let writer = PileWriter::create(&path, n, b).unwrap();
                    let (_, pile) = eng.sketch_to_pile(&c, b, writer).unwrap();
                    assert_rows_match(&pile, kind, &expected, &label);
                    piles.push((eng, pile, path));
                }

                for windows in [0..WINDOWS, 0..2, 2..WINDOWS] {
                    let reference = answers(&piles[0].0, &piles[0].1, windows.clone(), qmethod);
                    for (eng, pile, _) in &piles {
                        let label = format!(
                            "n={n} b={b} {qmethod:?} w={} {windows:?}",
                            eng.config().workers
                        );
                        let (m, e, t) = answers(eng, pile, windows.clone(), qmethod);
                        assert_eq!(m, reference.0, "matrix mismatch {label}");
                        assert_eq!(e.edges(), reference.1.edges(), "edges mismatch {label}");
                        assert_eq!(e.nan_pair_count(), reference.1.nan_pair_count());
                        assert_eq!(t.edges, reference.2.edges, "top-k mismatch {label}");
                        cases += 1;
                    }
                }
                for (_, _, path) in piles {
                    std::fs::remove_file(&path).ok();
                }
            }
        }
    }
    assert!(
        cases >= 64,
        "agreement grid must cover >= 64 cases, ran {cases}"
    );
}

/// NaN **table values** must be observed identically across backends: the
/// same NaN correlation is planted in a hand-built pile and in an in-memory
/// `SketchSet::from_parts` twin, and the exact network's exhaustive audit
/// must count it on both.
#[test]
fn planted_nan_records_audit_identically_across_backends() {
    let n = 6;
    let b = 25;
    let c = collection(n, b);
    let eng = engine(2, SketchMethod::Exact);
    let (stats, mut rows) = oracle(&c, b, SketchMethod::Exact);

    // Plant a NaN correlation in pair (0, 1) — packed index 0 — window 1.
    rows[1][0] = f64::NAN;

    // The pile, row by row.
    let path = temp_path("nan-plant");
    let mut writer = PileWriter::create(&path, n, b).unwrap();
    for (w, row) in rows.iter().enumerate() {
        let stats_row: Vec<f64> = stats
            .iter()
            .flat_map(|s| [s[w].len as f64, s[w].mean, s[w].std])
            .collect();
        writer.append(SegmentKind::SeriesStats, &stats_row).unwrap();
        writer.append(SegmentKind::PairCorrs, row).unwrap();
    }
    let pile = writer.into_pile().unwrap();

    // The in-memory twin carrying the same NaN.
    let series = stats
        .into_iter()
        .enumerate()
        .map(|(series, windows)| SeriesSketch { series, windows })
        .collect();
    let pairs = c
        .pairs()
        .enumerate()
        .map(|(p, (a, bb))| PairSketch {
            a,
            b: bb,
            corrs: rows.iter().map(|row| row[p]).collect(),
        })
        .collect();
    let twin = SketchSet::from_parts(b, n, series, pairs).unwrap();

    // The exact network audits exhaustively (no pruning): exactly the
    // planted pair is counted, on both backends, and the edge sets still
    // agree bit-for-bit (the kernel clamps the NaN slot to 0.0).
    let (e_memory, _) = eng
        .network(&twin, 0..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    let (e_pile, _) = eng
        .network(&pile, 0..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    assert_eq!(e_memory.nan_pair_count(), 1);
    assert_eq!(e_pile.nan_pair_count(), 1);
    assert_eq!(e_memory.edges(), e_pile.edges());

    let (t_memory, _) = eng.top_k(&twin, 0..WINDOWS, QueryMethod::Exact, 5).unwrap();
    let (t_pile, _) = eng.top_k(&pile, 0..WINDOWS, QueryMethod::Exact, 5).unwrap();
    assert_eq!(t_memory.nan_pairs, 1);
    assert_eq!(t_pile.nan_pairs, 1);
    assert_eq!(t_memory.edges, t_pile.edges);

    let (m_memory, _) = eng.query(&twin, 0..WINDOWS, QueryMethod::Exact).unwrap();
    let (m_pile, _) = eng.query(&pile, 0..WINDOWS, QueryMethod::Exact).unwrap();
    assert_eq!(m_memory, m_pile);

    // A range that excludes the poisoned window audits zero NaN pairs.
    let (clean, _) = eng
        .network(&pile, 2..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    assert_eq!(clean.nan_pair_count(), 0);
    std::fs::remove_file(&path).ok();
}

//! Figure 5d — Real-time network update time.
//!
//! Setup (paper §4.2): query window of 3,000 points; after the initial
//! network is built, `B` new data points arrive and both algorithms update
//! their correlation matrix incrementally — TSUBASA via Lemma 2, the DFT
//! approximation via Equation 6 with 75% of the coefficients. The basic
//! window size is swept.
//!
//! Expected shape (paper): TSUBASA is at least an order of magnitude faster,
//! and the gap widens with B because the approximation must compute its
//! DFT coefficients for every arriving basic window: `O(B·n)` multiply-adds
//! per series for `n = 3B/4` coefficients (planned direct transform,
//! twiddles computed once), against Lemma 2's `O(B)` statistics.

use tsubasa_bench::{fmt_ms, millis, scaled, time, Table};
use tsubasa_core::prelude::*;
use tsubasa_data::prelude::*;
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_dft::SlidingApproxNetwork;

fn main() {
    let stations = scaled(40, 12);
    let query_len = 3_000;
    let updates = 4; // average the update time over this many arriving windows
    let max_b = 500;
    let history = query_len + 1_000;
    let points = history + updates * max_b;
    println!(
        "Figure 5d: update-time sweep | {stations} stations | query window {query_len} | {updates} updates averaged"
    );

    let world = generate_ncea_like(&NceaLikeConfig {
        stations,
        points,
        ..NceaLikeConfig::default()
    })
    .expect("generate dataset");
    let historical = world.truncate_length(history).unwrap();

    let mut table = Table::new(&["B", "TSUBASA update", "DFT update (75%)", "slowdown"]);
    let mut json_rows = Vec::new();

    for basic_window in [50usize, 100, 200, 300, 500] {
        // Bootstrap both engines on the most recent `query_len` points of the
        // historical prefix (query_len is a multiple of every swept B).
        let exact_sketch = SketchSet::build(&historical, basic_window).unwrap();
        let mut exact_net =
            SlidingNetwork::initialize(&historical, &exact_sketch, query_len).unwrap();
        let dft_sketch = DftSketchSet::build(
            &historical,
            basic_window,
            basic_window * 3 / 4,
            Transform::Naive,
        )
        .unwrap();
        let mut approx_net = SlidingApproxNetwork::initialize(&dft_sketch, query_len).unwrap();

        let mut exact_total = 0.0;
        let mut approx_total = 0.0;
        for u in 0..updates {
            let lo = history + u * basic_window;
            let chunk: Vec<Vec<f64>> = world
                .iter()
                .map(|s| s.values()[lo..lo + basic_window].to_vec())
                .collect();
            let (_, t_exact) = time(|| exact_net.ingest(&chunk).unwrap());
            let (_, t_approx) = time(|| approx_net.ingest(&chunk).unwrap());
            exact_total += millis(t_exact);
            approx_total += millis(t_approx);
        }
        let exact_avg = exact_total / updates as f64;
        let approx_avg = approx_total / updates as f64;

        table.row(vec![
            basic_window.to_string(),
            fmt_ms(exact_avg),
            fmt_ms(approx_avg),
            format!("{:.1}x", approx_avg / exact_avg.max(1e-9)),
        ]);
        json_rows.push(serde_json::json!({
            "basic_window": basic_window,
            "tsubasa_update_ms": exact_avg,
            "dft_update_ms": approx_avg,
            "slowdown": approx_avg / exact_avg.max(1e-9),
        }));
    }

    table.print("Figure 5d: network update time vs basic-window size");
    tsubasa_bench::write_json(
        "fig5d_update",
        &serde_json::json!({
            "stations": stations,
            "query_len": query_len,
            "updates_averaged": updates,
            "rows": json_rows,
        }),
    );
}

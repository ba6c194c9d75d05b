//! The repository benchmark: three workloads over the TSUBASA stack, each
//! driven from one seeded process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload historical|live|sliding --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics, timed by the
//! benchmark around its own calls into each layer. Every run checks its
//! answers (the correctness gate) and writes a result file, with the seed,
//! commit, CPU model and `nproc`, under `--out` (default
//! `perfbench/results`). `perfbench/layer_report.py` compares two sets of
//! result files layer by layer.

mod common;
mod historical;
mod live;
mod sliding;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{json_num, json_str, Metric, Outcome};

/// The end-to-end metrics of `BENCHMARK.json`, which carry regression
/// bounds: the ones that stay steady from run to run (latencies at
/// `common::FAST_QUANTILE`). The medians, tails and throughputs every
/// workload also measures are printed and written to the result file only;
/// on the shared 2-vCPU machine the benchmark was tuned on, they moved by
/// 12–38 % between runs of the same code.
const END_TO_END: &[&str] = &["setup_s", "op_p5_ms", "aux_p5_ms", "peak_rss_mb"];

/// Every per-layer metric, with its unit. A traced run reports all of them;
/// the layers a workload never calls read 0.
const LAYERS: &[(&str, &str)] = &[
    ("parallel.sketch_to_pile_ms", "ms"),
    ("pile.segments", "count"),
    ("pile.fetch_ms", "ms"),
    ("pile.zero_copy_frac", "ratio"),
    ("pile.gather_mb", "MiB"),
    ("plan.build_ms", "ms"),
    ("sweep.self_ms", "ms"),
    ("sweep.pair_windows", "count"),
    ("sweep.ns_per_pair_window", "ns"),
    ("epoch.ingest_ms", "ms"),
    ("epoch.ingest_growth", "ratio"),
    ("epoch.copy_ms", "ms"),
    ("epoch.bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ms", "ms"),
    ("cache.miss_ms", "ms"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("server.overhead_ms", "ms"),
    ("ingest.late_ms", "ms"),
    ("stream.tick_ms", "ms"),
    ("stats.window_kernel_ms", "ms"),
    ("incremental.slide_ms", "ms"),
    ("delta.certify_ms", "ms"),
    ("delta.recheck_frac", "ratio"),
    ("delta.changed_edges", "count"),
    ("dft.transform_ms", "ms"),
    ("dft.dist_kernel_ms", "ms"),
    ("dft.slide_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        out: PathBuf::from("perfbench/results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["historical", "live", "sliding"].contains(&args.workload.as_str()) {
        return Err("--workload must be historical, live or sliding".into());
    }
    Ok(args)
}

/// The commit the benchmark was built from: `PERFBENCH_COMMIT`, else the
/// git work tree rooted at the current directory, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| PathBuf::from(t).canonicalize().ok());
    if here.is_some() && here == top {
        git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "unknown".into()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(metrics: &[Metric], key: impl Fn(&Metric) -> &'static str) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(key(m)),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-layer metrics in `LAYERS` order, 0 for layers the workload does
/// not call.
fn all_layers(outcome: &Outcome) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            outcome
                .layers
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| common::metric(name, 0.0, unit))
        })
        .collect()
}

/// Where a result comes from: the build and the machine.
struct Provenance {
    commit: String,
    cpu: String,
    nproc: usize,
}

fn write_results(
    args: &Args,
    from: &Provenance,
    outcome: &Outcome,
    correct: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(doc, "  \"seed\": {},", args.seed);
    let _ = writeln!(doc, "  \"trace\": {},", args.trace);
    let _ = writeln!(
        doc,
        "  \"seconds\": {},",
        json_num(args.seconds.as_secs_f64())
    );
    let _ = writeln!(doc, "  \"commit\": {},", json_str(&from.commit));
    let _ = writeln!(doc, "  \"cpu\": {},", json_str(&from.cpu));
    let _ = writeln!(doc, "  \"nproc\": {},", from.nproc);
    let config: Vec<String> = outcome
        .config
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let _ = writeln!(doc, "  \"config\": {{{}}},", config.join(", "));
    let _ = writeln!(doc, "  \"correct\": {correct},");
    let _ = writeln!(doc, "  \"checked\": {},", outcome.checked);
    let mismatches: Vec<String> = outcome.mismatches.iter().map(|m| json_str(m)).collect();
    let _ = writeln!(doc, "  \"mismatches\": [{}],", mismatches.join(", "));
    let _ = writeln!(doc, "  \"spans\": {},", outcome.tracer.span_count());
    let _ = writeln!(doc, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(doc, "  \"failed\": {},", outcome.failed);
    let _ = writeln!(
        doc,
        "  \"end_to_end\": {},",
        metrics_json(&outcome.end_to_end, |m| m.name)
    );
    let _ = writeln!(
        doc,
        "  \"named\": {},",
        metrics_json(&outcome.end_to_end, |m| m.alias)
    );
    let layers = if args.trace {
        metrics_json(&all_layers(outcome), |m| m.name)
    } else {
        "{}".into()
    };
    let _ = writeln!(doc, "  \"per_layer\": {layers},");
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, v)| {
            let values: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
            format!("{}: [{}]", json_str(name), values.join(", "))
        })
        .collect();
    let _ = writeln!(doc, "  \"samples_ms\": {{{}}}", samples.join(", "));
    doc.push_str("}\n");
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, doc)?;
    if args.trace {
        outcome
            .tracer
            .write_json(&args.out.join(format!("{stem}.trace.json")))?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "historical" => historical::run(&args),
        "live" => live::run(&args),
        _ => sliding::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let correct = outcome.mismatches.is_empty() && outcome.checked > 0;
    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let from = Provenance {
        commit: commit(),
        cpu: cpu_model(),
        nproc: common::nproc(),
    };
    match write_results(&args, &from, &outcome, correct) {
        Ok(path) => eprintln!("perfbench: results in {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write results: {e}"),
    }

    // Human-readable summary under the workload's own metric names, then
    // the result line.
    println!(
        "{} seed {} commit {} cpu {} nproc {}",
        args.workload, args.seed, from.commit, from.cpu, from.nproc
    );
    for m in &outcome.end_to_end {
        println!("{:<24} {:>14.4} {}", m.alias, m.value, m.unit);
    }
    let metrics = if args.trace {
        metrics_json(&all_layers(&outcome), |m| m.name)
    } else {
        let bounded: Vec<Metric> = END_TO_END
            .iter()
            .filter_map(|name| outcome.end_to_end.iter().find(|m| m.name == *name).cloned())
            .collect();
        metrics_json(&bounded, |m| m.name)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

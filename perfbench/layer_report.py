#!/usr/bin/env python3
"""Compare two result sets of the benchmark, layer by layer.

    python3 perfbench/layer_report.py BASE CHANGE

BASE and CHANGE are directories of result files written by the benchmark
(`--out`, default `perfbench/results`), for example one from the parent
commit and one from a change. For every workload the report prints:

* each per-layer metric (traced runs): the median over the set's runs, and
  the ratio CHANGE / BASE, with the end-to-end metric the layer is predicted
  to move (`perfbench/predictions.json`);
* each end-to-end metric (untraced runs), with the same ratio;
* the tracing overhead of each set: traced over untraced median of every
  end-to-end metric.

A ratio is printed as `n/a` when either side is missing or zero.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory):
    """{(workload, traced): [result, ...]} of every result file in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace[01].json")):
        doc = json.loads(path.read_text())
        runs.setdefault((doc["workload"], bool(doc["trace"])), []).append(doc)
    return runs


def medians(docs, section):
    values = {}
    for doc in docs:
        for name, m in doc.get(section, {}).items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {name: (unit, statistics.median(v)) for name, (unit, v) in values.items()}


def ratio(base, change):
    if base is None or change is None or base == 0:
        return "n/a"
    return f"{change / base:.3f}"


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


def table(title, rows):
    print(f"  {title}")
    width = max([len(r[0]) for r in rows] + [10])
    for name, unit, base, change, note in rows:
        print(
            f"    {name:<{width}} {unit:>6} {fmt(base):>12} {fmt(change):>12}"
            f" {ratio(base, change):>8}  {note}"
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    if not base or not change:
        print("no result files in one of the sets", file=sys.stderr)
        return 1
    predictions = json.loads((HERE / "predictions.json").read_text())["layers"]
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    print(f"columns: metric unit base change change/base   (base {argv[1]}, change {argv[2]})")
    for workload in workloads:
        print(f"\n{workload}")
        layer_b = medians(base.get((workload, True), []), "per_layer")
        layer_c = medians(change.get((workload, True), []), "per_layer")
        rows = []
        for name in sorted(set(layer_b) | set(layer_c)):
            pred = predictions.get(name, {})
            if pred.get("workload") != workload:
                continue
            unit = (layer_b.get(name) or layer_c.get(name))[0]
            note = "-> " + ", ".join(pred.get("moves") or ["(validity check)"])
            rows.append((name, unit, layer_b.get(name, (0, None))[1], layer_c.get(name, (0, None))[1], note))
        if rows:
            table("per layer (traced runs)", rows)
        e2e_b = medians(base.get((workload, False), []), "end_to_end")
        e2e_c = medians(change.get((workload, False), []), "end_to_end")
        rows = [
            (name, (e2e_b.get(name) or e2e_c.get(name))[0], e2e_b.get(name, (0, None))[1], e2e_c.get(name, (0, None))[1], "")
            for name in sorted(set(e2e_b) | set(e2e_c))
        ]
        if rows:
            table("end to end (untraced runs)", rows)
        for label, runs in (("base", base), ("change", change)):
            traced = medians(runs.get((workload, True), []), "end_to_end")
            plain = medians(runs.get((workload, False), []), "end_to_end")
            rows = [
                (name, plain[name][0], plain[name][1], traced[name][1], "")
                for name in sorted(plain)
                if name in traced
            ]
            if rows:
                table(f"tracing overhead of {label} (untraced, traced)", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

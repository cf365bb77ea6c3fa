"""E15 — the repository's performance record: one command, five
workloads, every number from ``perf_counter_ns`` around real work.

    python3 benchmarks/e2e/run.py --seed 1                 # every workload
    python3 benchmarks/e2e/run.py --workload tpch_scan --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload's result is checked; the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
beside this file for the workloads, the metrics and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import metrics  # noqa: E402

DEFAULT_SECONDS = 15.0
#: set-ups per run; ``setup_s`` is their median
DEFAULT_SETUPS = 5

#: samples a window must pool so that p95 has ten beyond it
MIN_SAMPLES = 200


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Dict[str, Any]:
    from workloads import WORKLOADS
    if trace:
        import layers
        return layers.trace(name, seed, seconds)
    import measure
    return measure.measure(WORKLOADS[name](seed=seed), seconds,
                           1 if quick else DEFAULT_SETUPS,
                           0 if quick else MIN_SAMPLES)


def print_report(result: Dict[str, Any], quick: bool) -> None:
    name = result["workload"]
    detail = result["detail"]
    bounds = {n: bound for n, _u, _b, bound in metrics.END_TO_END}
    spreads = detail.get("spread", {})
    raw = detail.get("raw", {})
    print(f"== {name}  seed={result['seed']}  seconds={result['seconds']:g}"
          f"  trace={int(bool(result.get('trace')))}")
    for metric, entry in result["metrics"].items():
        line = f"{name}.{metric} = {entry['value']:.6g} {entry['unit']}"
        notes = []
        if metric in raw:
            notes.append(f"raw {raw[metric]:.6g}")
        if spreads.get(metric) is not None:
            notes.append(f"spread {spreads[metric]:.1%}")
        if metric in bounds and not quick:
            notes.append(f"bound {bounds[metric]:.0%}")
        if metric.startswith("op_p"):
            notes.append(f"{detail['samples']} samples")
        if metric == "op_p95_ms":
            notes.append(f"{detail['samples_beyond_p95']} beyond")
        print(line + (f"   ({', '.join(notes)})" if notes else ""))
    print(f"{name}.failed_share = {result['failed']}/{result['attempted']}")
    for key, value in detail.get("extras", {}).items():
        if isinstance(value, dict):
            for inner, number in value.items():
                print(f"{name}.{key}.{inner} = {number:.4g}")
        elif isinstance(value, float):
            print(f"{name}.{key} = {value:.6g}")
        else:
            print(f"{name}.{key} = {value}")
    for error in result["errors"]:
        print(f"{name}.error: {error}")
    if not quick and not result.get("trace") \
            and not detail["p95_supported"]:
        print(f"{name}.warning: only {detail['samples_beyond_p95']} "
              f"samples beyond p95; {harness.MIN_TAIL_SAMPLES} wanted",
              file=sys.stderr)


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    return {"seed": args.seed, "seconds": args.seconds,
            "setups": 1 if args.quick else DEFAULT_SETUPS,
            "quick": args.quick,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "clock": "time.perf_counter_ns"}


def summary_line(results: List[Dict[str, Any]], single: bool) -> str:
    """The machine-readable last line."""
    if single:
        chosen = results[0]["metrics"]
    else:
        chosen = {r["workload"]: r["metrics"] for r in results}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": chosen,
    })


# ---------------------------------------------------------------------
# --compare


def _index(document: Dict[str, Any]) -> Dict[tuple, Dict[str, Any]]:
    table = {}
    for result in document["results"]:
        if result.get("trace"):
            continue
        spreads = result["detail"].get("spread", {})
        for metric, entry in result["metrics"].items():
            table[(metric, result["workload"])] = {
                "value": entry["value"], "unit": entry["unit"],
                "spread": spreads.get(metric)}
    return table


def verdict(a: float, b: float, better: str, bound: float,
            spread: Optional[float]) -> str:
    """``unresolved`` when a run's own spread exceeds the bound or was
    not recorded; else by whether B is beyond the bound on either side
    of A."""
    if spread is None or spread > bound:
        return "unresolved"
    if not a or not b:
        return "unresolved"
    worsening = b / a - 1.0 if better == "lower" else a / b - 1.0
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        table_a = _index(json.load(handle))
    with open(path_b) as handle:
        table_b = _index(json.load(handle))
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'metric':<14}{'workload':<14}{'A':>12}{'B':>12}"
          f"{'B/A':>8}  {'bound':>6}  verdict")
    worse = 0
    for metric, unit, better, bound in metrics.END_TO_END:
        for workload, _why in metrics.WORKLOADS:
            key = (metric, workload)
            if key not in table_a or key not in table_b:
                continue
            a, b = table_a[key], table_b[key]
            spread = None if None in (a["spread"], b["spread"]) \
                else max(a["spread"], b["spread"])
            outcome = verdict(a["value"], b["value"], better, bound, spread)
            worse += outcome == "worse"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            shown = "not recorded" if spread is None else f"{spread:.1%}"
            print(f"{metric:<14}{workload:<14}{a['value']:>12.4f}"
                  f"{b['value']:>12.4f}{ratio:>7.3f}x  {bound:>6.0%}  "
                  f"{outcome} ({better} is better; base A "
                  f"{a['value']:.4g} {unit}; spread {shown})")
    return 1 if worse else 0


# ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    names = [name for name, _why in metrics.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (inputs are a function of it)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced in-process run, per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1.5 s window, one set-up, "
                             "no bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result.json files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.quick:
        args.seconds = 1.5
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is not at {SRC}; run from "
              "a checkout of the whole repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(harness.OUT, exist_ok=True)
    harness.pin_to_one_core()

    chosen = [args.workload] if args.workload else names
    results = []
    for name in chosen:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.quick)
        results.append(result)
        print_report(result, args.quick)
    suffix = f"_{args.workload}" if args.workload else ""
    suffix += "_trace" if args.trace else ""
    with open(os.path.join(harness.OUT, f"result{suffix}.json"),
              "w") as handle:
        json.dump({"environment": environment(args), "results": results},
                  handle, indent=1)
    print(summary_line(results, single=bool(args.workload)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

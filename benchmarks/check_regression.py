#!/usr/bin/env python
"""The regression gate for E9, E10 and E12-E14: one table of rows, one
engine.

Each experiment is a ``bench_eN_*.run_benchmarks()`` that returns a
JSON-able results dict, and a committed ``benchmarks/BENCH_EN_*.json``
holding one earlier run of it.  ``GATE`` below says, row by row, which
number or fact in those results is gated, by which rule, and on which
clock it was taken; ``check`` turns rows + a fresh run + the baseline
into every printed line and every failure.  The pytest entry of each
bench module and this command line both go through ``run``.

Usage:
    PYTHONPATH=src python benchmarks/check_regression.py          # check
    PYTHONPATH=src python benchmarks/check_regression.py --write  # rebase
    PYTHONPATH=src python benchmarks/check_regression.py --only e10 --only e12

``--write`` regenerates the committed baselines from a fresh run (use
after deliberate changes, then commit the JSONs).  A fresh run that is
checked is also left in ``benchmarks/artifacts/eN_fresh.json``.  Exit
status: 0 every row holds, 1 a row failed, 2 a baseline is missing.
"""

import argparse
import importlib
import json
import os
import sys
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: experiment -> (bench module, committed baseline); modules are imported
#: only when their experiment runs
EXPERIMENTS = {
    "e9": ("bench_e9_kernels", "BENCH_E9_kernels.json"),
    "e10": ("bench_e10_connections", "BENCH_E10_connections.json"),
    "e12": ("bench_e12_durability", "BENCH_E12_durability.json"),
    "e13": ("bench_e13_replication", "BENCH_E13_replication.json"),
    "e14": ("bench_e14_adaptive", "BENCH_E14_adaptive.json"),
}

#: a row's clock.  MEASURED: a wall clock, or a fact observed in a real
#: run.  MODELLED: ``CostModel``'s virtual clock -- the same on every
#: machine, and not evidence of what a wall clock would say.
MEASURED, MODELLED = "measured", "modelled"

#: a row's rule, besides a float ``c`` meaning "value >= c".  HOLDS and
#: floats are *invariants*; BASELINE is "fresh >= (1 - tolerance) x the
#: baseline's value"; INFO is printed and never fails.
HOLDS, BASELINE, INFO = "holds", "baseline", "info"

#: the fraction of a baseline value a fresh run may lose (``--tolerance``)
TOLERANCE = 0.25


class Row(NamedTuple):
    """One gated (or merely shown) entry of an experiment's results."""

    experiment: str
    #: dotted path into the results; ``*`` stands for every key there
    path: str
    rule: object
    clock: str


def _invariants(experiment, *names):
    """One HOLDS row per fact under the results' ``invariants``."""
    return [Row(experiment, f"invariants.{name}", HOLDS, MEASURED)
            for name in names]


GATE = [
    # E9: speedups are ratios of interleaved medians, so they are robust
    # to absolute machine speed -- only a *relative* slowdown of the bulk
    # kernels against their naive references trips a row
    Row("e9", "kernels.*.speedup", BASELINE, MEASURED),
    Row("e9", "kernels.*.speedup", 1.0, MEASURED),
    Row("e9", "kernels.pipeline.speedup", 3.0, MEASURED),
    Row("e9", "plan_cache.speedup", BASELINE, MEASURED),
    Row("e9", "plan_cache.speedup", 10.0, MEASURED),
    # the race JOIN_HASH_SELF_RATIO is read off: a choice, not a kernel
    # against its reference, so it is shown and never fails
    Row("e9", "join_race.*.hash_self_speedup", INFO, MEASURED),

    # E10, E12, E13: raw rates are machine-dependent, so they are shown
    # and the machine-independent facts are gated
    *_invariants("e10", "all_connections_served", "all_pipelined_responses",
                 "zero_events_lost", "identical_streams", "full_delivery"),
    Row("e10", "connections.conns_per_s", INFO, MEASURED),
    Row("e10", "pipelining.requests_per_s", INFO, MEASURED),
    Row("e10", "fanout.delivered_per_s", INFO, MEASURED),

    *_invariants("e12", "all_records_durable", "group_commit_batches",
                 "per_record_fsync_floor", "full_replay_byte_identical",
                 "checkpointed_byte_identical", "checkpoint_shortens_replay",
                 "checkpoint_round_trip_identical"),
    Row("e12", "group_commit.batched.records_per_fsync", INFO, MEASURED),
    Row("e12", "recovery.full_replay.seconds", INFO, MEASURED),
    Row("e12", "recovery.checkpointed.seconds", INFO, MEASURED),

    *_invariants("e13", "all_writes_acked", "lag_drains_to_zero",
                 "replica_byte_identical", "failover_promoted",
                 "failover_epoch_bumped", "failover_serves_reads",
                 "failover_clean_acked_prefix"),
    Row("e13", "lag.records_per_s", INFO, MEASURED),
    Row("e13", "lag.max_lag_records", INFO, MEASURED),
    Row("e13", "lag.drain_seconds", INFO, MEASURED),
    Row("e13", "failover.promote_seconds", INFO, MEASURED),
    Row("e13", "failover.first_read_seconds", INFO, MEASURED),

    *_invariants("e14", "rows_byte_identical", "cold_plan_matches_static",
                 "adaptive_plan_reordered", "cached_plan_replanned_once",
                 "stats_snapshot_roundtrips"),
    Row("e14", "measured.speedup", INFO, MEASURED),
    Row("e14", "modelled.speedup", 1.5, MODELLED),
    Row("e14", "modelled.speedup", BASELINE, MODELLED),
]


def _lookup(results, keys):
    for key in keys:
        results = results.get(key) if isinstance(results, dict) else None
    return results


def _expand(path, *sides):
    """The concrete key tuples ``path`` stands for: a ``*`` is every key
    any of ``sides`` has at that place."""
    found = [()]
    for part in path.split("."):
        if part != "*":
            found = [keys + (part,) for keys in found]
        else:
            found = [keys + (key,) for keys in found
                     for key in sorted({key for side in sides
                                        for key in _lookup(side, keys) or ()})]
    return found


SIDES = ("fresh run", "committed baseline")


def _problems(rule, values, share):
    """What is wrong with a (fresh, baseline) pair of values under
    ``rule``; nothing is ``[]``."""
    if rule == INFO:
        return []
    missing = [f"missing from the {side}"
               for side, value in zip(SIDES, values) if value is None]
    if missing:
        return missing
    if rule == BASELINE:
        got, want = values
        if got >= want * share:
            return []
        return [f"fresh {got} < {share:.0%} of baseline {want}"]
    # an invariant, asked of the baseline too: a baseline rebased over a
    # violation is itself a bug
    if rule == HOLDS:
        return [f"violated by the {side}"
                for side, value in zip(SIDES, values) if not value]
    return [f"{side} has {value} < required {rule}"
            for side, value in zip(SIDES, values) if value < rule]


def check(rows, fresh, baseline, tolerance=TOLERANCE):
    """``(lines, failures)`` for one experiment's ``rows``.

    Measured rows come before modelled ones, so a row that holds on the
    model is never read without the wall-clock rows above it.
    """
    lines, failures = [], []
    share = 1.0 - tolerance
    for row in sorted(rows, key=lambda row: row.clock != MEASURED):
        rule = wording = row.rule
        if rule == BASELINE:
            wording = f">= {share:.0%} of baseline"
        elif rule not in (HOLDS, INFO):
            wording = f">= {rule}"
        for keys in _expand(row.path, fresh, baseline):
            path = ".".join(keys)
            values = _lookup(fresh, keys), _lookup(baseline, keys)
            problems = _problems(rule, values, share)
            verdict = "" if rule == INFO else " FAILED" if problems else " ok"
            lines.append(f"{row.experiment:4s}{path:42s} {row.clock:9s}"
                         f"fresh={values[0]} baseline={values[1]}  "
                         f"{wording}{verdict}")
            failures += [f"{path} ({row.clock}): {problem}"
                         for problem in problems]
    # bench and table cannot drift: a fact a bench records as an
    # invariant is gated by a row, or it is not an invariant
    covered = {row.path for row in rows}
    for side, results in zip(SIDES, (fresh, baseline)):
        failures += [f"invariants.{name}: in the {side}, but no row of "
                     "the gate table covers it"
                     for name in results.get("invariants", {})
                     if f"invariants.{name}" not in covered]
    return lines, failures


def write_json(results, path):
    """The one writer of baselines and fresh-run artefacts."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")


def gate(experiment, fresh, baseline_path, tolerance=TOLERANCE) -> int:
    """Print the verdict on one fresh run; the exit status it earns."""
    if not os.path.exists(baseline_path):
        print(f"{experiment}: no committed baseline at {baseline_path}; "
              "run with --write first", file=sys.stderr)
        return 2
    with open(baseline_path) as f:
        baseline = json.load(f)
    lines, failures = check(
        [row for row in GATE if row.experiment == experiment],
        fresh, baseline, tolerance)
    print("\n".join(lines))
    if failures:
        print(f"{len(failures)} {experiment} check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"all {experiment} checks hold\n")
    return 0


def run(experiment, write=False, tolerance=TOLERANCE) -> int:
    """Run one experiment fresh, then rebase its baseline or gate it."""
    module, baseline = EXPERIMENTS[experiment]
    baseline_path = os.path.join(HERE, baseline)
    fresh = importlib.import_module(module).run_benchmarks()
    if write:
        write_json(fresh, baseline_path)
        print(f"baseline rewritten: {baseline_path}")
        return 0
    write_json(fresh, os.path.join(HERE, "artifacts",
                                   f"{experiment}_fresh.json"))
    return gate(experiment, fresh, baseline_path, tolerance)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the committed baseline(s) and exit")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="fraction of a baseline value a fresh run may "
                             "lose (default %(default)s)")
    parser.add_argument("--only", action="append", choices=list(EXPERIMENTS),
                        help="gate this experiment only (may repeat; "
                             "default: all)")
    args = parser.parse_args()
    return max(run(experiment, args.write, args.tolerance)
               for experiment in args.only or EXPERIMENTS)


if __name__ == "__main__":
    sys.exit(main())

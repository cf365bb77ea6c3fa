"""The regression gate tested on its own: the table and the engine of
``benchmarks/check_regression.py`` against the committed baselines.  No
benchmark runs here -- every "fresh run" is a baseline with one value
changed."""

import copy
import json
import os
import sys

import pytest

BENCH_DIR = os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks"))
sys.path.insert(0, BENCH_DIR)

import check_regression as gate  # noqa: E402

GATED = [row for row in gate.GATE if row.rule != gate.INFO]
INVARIANTS = [row for row in GATED if row.rule != gate.BASELINE]


def _baseline_path(experiment):
    return os.path.join(BENCH_DIR, gate.EXPERIMENTS[experiment][1])


def _baseline(experiment):
    with open(_baseline_path(experiment)) as f:
        return json.load(f)


def _rows(experiment):
    return [row for row in gate.GATE if row.experiment == experiment]


def _put(results, keys, value):
    for key in keys[:-1]:
        results = results[key]
    results[keys[-1]] = value


def _pair(row):
    """Two copies of the row's baseline and the first place the row's
    path stands for."""
    fresh = _baseline(row.experiment)
    return fresh, copy.deepcopy(fresh), gate._expand(row.path, fresh)[0]


def _violation(row, good):
    """A value one step on the wrong side of the row's rule."""
    if row.rule == gate.HOLDS:
        return False
    if row.rule == gate.BASELINE:
        return good * (1.0 - gate.TOLERANCE) * 0.9
    return row.rule - 0.01


def _row_id(row):
    return f"{row.experiment}-{row.path}-{row.rule}"


class TestTable:
    def test_every_row_belongs_to_an_experiment_and_names_a_clock(self):
        for row in gate.GATE:
            assert row.experiment in gate.EXPERIMENTS, row
            assert row.clock in (gate.MEASURED, gate.MODELLED), row
        assert {row.experiment for row in gate.GATE} == set(gate.EXPERIMENTS)

    @pytest.mark.parametrize("experiment", gate.EXPERIMENTS)
    def test_baseline_files_are_what_the_one_writer_writes(
            self, experiment, tmp_path):
        path = str(tmp_path / "again.json")
        gate.write_json(_baseline(experiment), path)
        with open(path) as again, open(_baseline_path(experiment)) as f:
            assert again.read() == f.read()


class TestCheck:
    @pytest.mark.parametrize("experiment", gate.EXPERIMENTS)
    def test_committed_baseline_passes_as_the_fresh_run(self, experiment):
        baseline = _baseline(experiment)
        lines, failures = gate.check(_rows(experiment), baseline, baseline)
        assert failures == []
        assert len(lines) >= len(_rows(experiment))
        assert not any("FAILED" in line for line in lines)

    @pytest.mark.parametrize("row", GATED, ids=_row_id)
    def test_a_violated_row_fails_and_names_its_path(self, row):
        fresh, baseline, keys = _pair(row)
        _put(fresh, keys, _violation(row, gate._lookup(baseline, keys)))
        lines, failures = gate.check(_rows(row.experiment), fresh, baseline)
        path = ".".join(keys)
        assert any(failure.startswith(f"{path} ({row.clock})")
                   for failure in failures), failures
        assert any(path in line and line.endswith("FAILED")
                   for line in lines)

    @pytest.mark.parametrize("row", GATED, ids=_row_id)
    def test_a_value_missing_from_the_fresh_run_fails(self, row):
        fresh, baseline, keys = _pair(row)
        _put(fresh, keys, None)
        _, failures = gate.check(_rows(row.experiment), fresh, baseline)
        assert f"{'.'.join(keys)} ({row.clock}): missing from the fresh " \
               "run" in failures

    @pytest.mark.parametrize("row", INVARIANTS, ids=_row_id)
    def test_a_baseline_that_violates_an_invariant_fails(self, row):
        """A baseline rebased over a violation is itself a bug."""
        fresh, baseline, keys = _pair(row)
        _put(baseline, keys, _violation(row, None))
        _, failures = gate.check(_rows(row.experiment), fresh, baseline)
        assert any(failure.startswith(".".join(keys))
                   and "committed baseline" in failure
                   for failure in failures), failures

    @pytest.mark.parametrize("experiment",
                             sorted({row.experiment for row in INVARIANTS
                                     if row.rule == gate.HOLDS}))
    def test_an_invariant_no_row_covers_fails(self, experiment):
        """Bench and table cannot drift apart silently."""
        for stale in (0, 1):
            sides = [_baseline(experiment), _baseline(experiment)]
            sides[stale]["invariants"]["a_new_fact"] = True
            _, failures = gate.check(_rows(experiment), *sides)
            assert len(failures) == 1
            assert failures[0].startswith("invariants.a_new_fact: in the "
                                          + gate.SIDES[stale])

    def test_info_rows_never_fail(self):
        for row in gate.GATE:
            if row.rule != gate.INFO:
                continue
            fresh, baseline, keys = _pair(row)
            _put(fresh, keys, None)
            lines, failures = gate.check(_rows(row.experiment), fresh,
                                         baseline)
            assert failures == []
            assert [line for line in lines if ".".join(keys) in line
                    and line.endswith("info")]

    @pytest.mark.parametrize("experiment", gate.EXPERIMENTS)
    def test_every_line_names_its_clock_and_measured_comes_first(
            self, experiment):
        baseline = _baseline(experiment)
        lines, _ = gate.check(_rows(experiment), baseline, baseline)
        clocks = [line.split()[2] for line in lines]
        assert set(clocks) <= {gate.MEASURED, gate.MODELLED}
        assert clocks == sorted(clocks)  # "measured" < "modelled"

    def test_tolerance_is_the_share_of_the_baseline_a_run_may_lose(self):
        row = gate.Row("e9", "plan_cache.speedup", gate.BASELINE,
                       gate.MEASURED)
        baseline = {"plan_cache": {"speedup": 100.0}}
        for got, tolerance, fails in ((76.0, 0.25, False),
                                      (74.0, 0.25, True),
                                      (74.0, 0.30, False),
                                      (130.0, 0.0, False)):
            fresh = {"plan_cache": {"speedup": got}}
            _, failures = gate.check([row], fresh, baseline, tolerance)
            assert bool(failures) == fails, (got, tolerance)


class TestGate:
    def test_exit_status(self, tmp_path, capsys):
        fresh = _baseline("e10")
        assert gate.gate("e10", fresh, _baseline_path("e10")) == 0
        assert "all e10 checks hold" in capsys.readouterr().out

        fresh["invariants"]["zero_events_lost"] = False
        assert gate.gate("e10", fresh, _baseline_path("e10")) == 1
        assert "invariants.zero_events_lost (measured): violated by the " \
               "fresh run" in capsys.readouterr().err

        missing = str(tmp_path / "BENCH_E10_connections.json")
        assert gate.gate("e10", fresh, missing) == 2
        assert "run with --write first" in capsys.readouterr().err

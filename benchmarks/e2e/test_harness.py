"""Self-tests of the E15 harness (not part of tier-1's ``testpaths``):

    python -m pytest benchmarks/e2e -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- order statistics ---------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.50) == 50
    assert harness.percentile(samples, 0.95) == 95
    assert harness.percentile(samples, 1.0) == 100
    assert harness.percentile([7], 0.95) == 7
    assert harness.percentile([3, 1, 2], 0.5) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    with pytest.raises(ValueError):
        harness.percentile([1], 0.0)


def test_ten_samples_beyond_rule():
    # p95 needs 200 samples to leave ten beyond it, p50 needs 20
    assert not harness.tail_supported(199, 0.95)
    assert harness.tail_supported(200, 0.95)
    assert harness.samples_beyond(200, 0.95) == 10
    assert not harness.tail_supported(19, 0.50)
    assert harness.tail_supported(20, 0.50)
    # the window runs on until it has pooled this many
    assert harness.tail_supported(run.MIN_SAMPLES, 0.95)
    assert not harness.tail_supported(run.MIN_SAMPLES - 1, 0.95)


def test_quartile_spread_matches_the_contract_formula():
    import statistics
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.6]
    first, _mid, third = statistics.quantiles(values, n=4)
    assert harness.quartile_spread(values) == pytest.approx(
        (third - first) / statistics.median(values))
    assert harness.quartile_spread([5.0]) is None


def test_rows_match_tolerates_float_order_and_row_order():
    want = [("a", 0.1 + 0.2, 1), ("b", None, 2)]
    got = [("b", None, 2), ("a", 0.3, 1)]
    assert harness.rows_match(got, want, ordered=False)
    assert not harness.rows_match(got, want, ordered=True)
    assert not harness.rows_match(got[:1], want, ordered=False)
    assert not harness.rows_match([("a", 0.31, 1), ("b", None, 2)], want,
                                  ordered=True)


# -- generated inputs ---------------------------------------------------


@pytest.mark.parametrize("name", [n for n, _why in metrics.WORKLOADS])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = json.dumps(workloads.generated_inputs(name, 5, 3))
    again = json.dumps(workloads.generated_inputs(name, 5, 3))
    other = json.dumps(workloads.generated_inputs(name, 6, 3))
    assert first == again
    assert first != other


def test_replay_files_are_a_function_of_nothing_but_the_code(tmp_path):
    import replay
    listing = []
    for attempt in ("a", "b"):
        directory = tmp_path / attempt
        files = replay.generate_files(str(directory))
        listing.append([(f["name"], f["nodes"],
                         open(f["dot"]).read(), open(f["trace"]).read())
                        for f in files])
    assert listing[0] == listing[1]
    assert len(listing[0]) == replay.FILE_COUNT == 13
    assert max(nodes for _n, nodes, _d, _t in listing[0]) > 1000


# -- names, counts, BENCHMARK.json --------------------------------------


def test_names_and_units_are_well_formed():
    names = [n for n, _why in metrics.WORKLOADS]
    names += [n for n, *_ in metrics.END_TO_END]
    names += [n for n, *_ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _n, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    for _n, why in metrics.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    for _n, _u, better, bound in metrics.END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") in [e[:3] for e in metrics.END_TO_END]
    assert set(workloads.WORKLOADS) == {n for n, _w in metrics.WORKLOADS}


def test_benchmark_json_names_what_the_harness_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    assert set(document) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert document["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in document["workloads"]] \
        == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in document["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in document["per_layer"]] == list(metrics.PER_LAYER)


def test_baseline_has_a_number_for_every_end_to_end_metric():
    with open(os.path.join(HERE, "baseline.json")) as handle:
        baseline = json.load(handle)
    for workload, _why in metrics.WORKLOADS:
        for metric, *_ in metrics.END_TO_END:
            entry = baseline["end_to_end"][workload][metric]
            entry = entry.get("at_reference_speed", entry)
            assert entry["median"] > 0, (workload, metric)
        shares = [value for name, value in
                  baseline["per_layer_seed_1"]["by_workload"][workload]
                  .items() if name.startswith("share.")]
        assert sum(shares) == pytest.approx(100.0, abs=0.01)


# -- tracing ------------------------------------------------------------


def _span(name, parent, start, end, op_id=0):
    return [name, op_id, parent, start, end, None]


def test_self_time_fold_on_a_hand_built_tree():
    import layers
    spans = [
        _span("op", -1, 0, 100),                  # 0: self 10
        _span("database.execute", 0, 10, 90),     # 1: self 80-20-40=20
        _span("sqlfe.parse", 1, 10, 30),          # 2: self 20
        _span("mal.execute", 1, 40, 80),          # 3: self 40-25=15
        _span("mal.op.algebra", 3, 45, 60),       # 4: self 15
        _span("mal.op.aggr", 3, 65, 75),          # 5: self 10
        _span("protocol.encode_result", 0, 90, 100),  # 6: self 10
    ]
    assert harness.self_times(spans) == [10, 20, 20, 15, 15, 10, 10]
    by_layer = layers.layer_self_ns(spans)
    assert by_layer["harness"] == 10
    assert by_layer["server.database"] == 20
    assert by_layer["sqlfe"] == 20
    assert by_layer["mal"] == 15
    assert by_layer["storage"] == 25
    assert by_layer["server"] == 10
    assert sum(by_layer.values()) == 100  # the op's whole duration


def test_tracer_nests_wrapped_calls_and_restores_patches():
    class Engine:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    tracer = harness.Tracer()
    original = Engine.__dict__["inner"]
    with tracer.patched([(Engine, "outer", "engine.outer"),
                         (Engine, "inner", "engine.inner", lambda r: r)]):
        with tracer.op():
            assert Engine().outer() == 42
    assert Engine.__dict__["inner"] is original
    names = [(s[0], s[2]) for s in tracer.spans]
    assert names == [("op", -1), ("engine.outer", 0), ("engine.inner", 1)]
    assert tracer.spans[2][5] == 41
    assert all(s[4] >= s[3] for s in tracer.spans)
    silent = harness.Tracer(enabled=False)
    with silent.op():
        pass
    assert silent.spans == []


def test_another_threads_spans_hang_under_the_open_operation():
    """The in-process server works in its own threads while the client
    blocks: their outermost spans are children of the operation
    thread's innermost open span, and nothing is recorded between
    operations."""
    import threading
    tracer = harness.Tracer()
    served = tracer.wrap(lambda: tracer.wrap(lambda: 7, "inner")(), "outer")

    def elsewhere():
        worker = threading.Thread(target=served)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    elsewhere()                       # no operation open: not recorded
    assert tracer.spans == []
    with tracer.op():
        with tracer.span("roundtrip"):
            elsewhere()
    assert [(s[0], s[1], s[2]) for s in tracer.spans] == [
        ("op", 0, -1), ("roundtrip", 0, 0), ("outer", 0, 1),
        ("inner", 0, 2)]
    own = harness.self_times(tracer.spans)
    assert sum(own) == tracer.spans[0][4] - tracer.spans[0][3]


def test_span_table_is_mean_over_keys_of_median_over_repeats():
    import layers
    spans = [_span("x", -1, 0, 10, op_id=0), _span("x", -1, 0, 30, op_id=1),
             _span("x", -1, 0, 20, op_id=2), _span("x", -1, 0, 100, op_id=3)]
    table = layers.SpanTable(spans, ["a", "a", "a", "b"])
    assert table.ns("x") == (20 + 100) / 2
    assert table.ns("absent") == 0.0


# -- compare ------------------------------------------------------------


def test_verdicts():
    assert run.verdict(100, 100, "lower", 0.10, 0.02) == "unchanged"
    assert run.verdict(100, 115, "lower", 0.10, 0.02) == "worse"
    assert run.verdict(100, 80, "lower", 0.10, 0.02) == "improved"
    assert run.verdict(100, 80, "higher", 0.10, 0.02) == "worse"
    assert run.verdict(100, 130, "higher", 0.10, 0.02) == "improved"
    assert run.verdict(100, 130, "higher", 0.10, 0.12) == "unresolved"
    # a spread that was not recorded resolves nothing
    assert run.verdict(100, 130, "higher", 0.10, None) == "unresolved"


def test_blocks_are_consecutive_and_even():
    import measure
    assert [len(b) for b in measure.blocks(list(range(17)), 5)] \
        == [3, 4, 3, 4, 3]
    assert measure.blocks(list(range(3)), 5) == [[0], [1], [2]]
    assert sum(measure.blocks(list(range(17)), 5), []) == list(range(17))


def test_compare_is_unresolved_without_a_recorded_spread(tmp_path, capsys):
    document = {"results": [{
        "workload": "tpch_scan",
        "metrics": {name: {"value": 10.0, "unit": unit}
                    for name, unit, _b, _bound in metrics.END_TO_END},
        "detail": {"spread": {name: 0.01 for name, *_ in metrics.END_TO_END
                              if name != "op_p95_ms"}}}]}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(document))
    assert run.compare(str(path), str(path)) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "tpch_scan" in line]
    assert len(rows) == len(metrics.END_TO_END)
    for row in rows:
        expected = "unresolved" if row.startswith("op_p95_ms") \
            else "unchanged"
        assert expected in row, row


# -- reference speed ----------------------------------------------------


def test_times_are_reported_at_reference_speed():
    """A round timed on a core running at 0.8 of reference speed took
    1/0.8 of the reference time; rates move the other way."""
    import measure
    slow = workloads.Round([50_000_000] * 4, ["q"] * 4, 4, 200_000_000,
                           writes_ns=[10_000_000], rows=1000, speed=0.8)
    import dataclasses
    raw = measure.window_values([dataclasses.replace(slow, speed=1.0)])
    fixed = measure.window_values([slow])
    assert raw["op_p50_ms"] == pytest.approx(50.0)
    assert fixed["op_p50_ms"] == pytest.approx(40.0)
    assert fixed["write_p95_ms"] == pytest.approx(8.0)
    assert raw["ops_per_s"] == pytest.approx(20.0)
    assert fixed["ops_per_s"] == pytest.approx(25.0)
    assert fixed["rows_per_s"] == pytest.approx(1000 / 0.16)
    # a workload without writes or rows has no such metric, not a zero
    plain = workloads.Round([1], ["q"], 1, 1)
    assert set(measure.window_values([plain])) == {
        "op_p50_ms", "op_p95_ms", "ops_per_s"}
    assert harness.core_speed() > 0
    assert harness.speed_of([harness.SPIN_REFERENCE_NS] * 3) == 1.0
    assert harness.speed_of([2 * harness.SPIN_REFERENCE_NS]) == 0.5


# -- the command itself -------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` the
    command must fail without printing a result."""
    import shutil
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tpch_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_quick_run_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "adhoc_small", "--seed", "3", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {n for n, *_ in metrics.END_TO_END}
    for entry in last["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0

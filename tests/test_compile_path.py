"""What a plan-cache miss builds, and what it costs in objects.

Four parts, none of which reads a clock:

(a) *Plan identity.*  ``format_program`` of the 12 TPC-H texts and 300
    seeded ``random_query`` statements, under every pipeline at 1, 2
    and 4 workers, hashes to ``compile_path_golden.json``.  The file
    was generated at commit 8ac7a30 (PR 22, the last commit whose
    passes rebuilt the program) by copying this file into that checkout
    and running::

        PYTHONPATH=src python tests/test_compile_path.py --regen

    A change to the parser, the compiler or a pass that is meant to be
    a pure speed-up keeps every digest; regenerate only for a change
    that is *meant* to alter plans, and say so in CHANGES.md.
(b) *Counting guards.*  One miss constructs at most two
    ``MalProgram``\\ s, validates once between ``_plan`` and the end of
    its first run, and renumbers at most twice.
(c) *The plan-cache key* is a function of what the lexer sees.
(d) ``Pipeline.reports`` and parse-error messages are what they were.
"""

import hashlib
import json
import os
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SqlParseError
from repro.mal.ast import MalProgram
from repro.mal.optimizer import Pipeline
from repro.mal.printer import format_program
from repro.server import Database, MClient, Mserver
from repro.server.database import normalize_sql
from repro.sqlfe.lexer import tokenize
from repro.sqlfe.parser import parse_sql
from repro.tpch import QUERIES, populate, query_sql
from repro.workloads import random_query

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "compile_path_golden.json")

PIPELINES = ("default_pipe", "static_pipe", "sequential_pipe",
             "minimal_pipe")
TPCH_NAMES = sorted(QUERIES)
#: ``below``: the benchmark's configuration, where Mitosis leaves the
#: 600-row lineitem alone; ``above``: it partitions lineitem and orders.
THRESHOLDS = {"below": 1000, "above": 100}


def random_statements():
    rng = random.Random("compile_path")
    return [random_query(rng) for _ in range(300)]


def plan_digests(threshold):
    """``{pipeline/workers: {tpch name: sha, "random": sha of all 300}}``
    — the plan body and whether it runs as dataflow; the function name
    counts compiles and is left out."""
    database = Database(workers=2, mitosis_threshold=threshold)
    populate(database.catalog, scale_factor=0.1, seed=3)

    def body(sql, pipeline, workers):
        program = database.compile(sql, pipeline_name=pipeline,
                                   workers=workers)
        lines = format_program(program).split("\n")[1:-1]
        return "\n".join(lines + [str(program.dataflow_enabled)])

    statements = random_statements()
    out = {}
    for pipeline in PIPELINES:
        for workers in (1, 2, 4):
            entry = {name: hashlib.sha256(
                body(query_sql(name), pipeline, workers).encode()
            ).hexdigest()[:16] for name in TPCH_NAMES}
            pooled = hashlib.sha256()
            for sql in statements:
                pooled.update(body(sql, pipeline, workers).encode())
                pooled.update(b"\x00")
            entry["random"] = pooled.hexdigest()
            out[f"{pipeline}/{workers}"] = entry
    return out


def all_digests():
    return {name: plan_digests(threshold)
            for name, threshold in THRESHOLDS.items()}


@pytest.mark.parametrize("config", sorted(THRESHOLDS))
def test_every_plan_is_byte_identical_to_the_recorded_one(config):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)[config]
    fresh = plan_digests(THRESHOLDS[config])
    assert fresh.keys() == golden.keys()
    differing = sorted(
        f"{key}:{name}" for key in golden for name in golden[key]
        if fresh[key][name] != golden[key][name])
    assert not differing


# ---------------------------------------------------------------------------
# (b) what one miss constructs (counts, no clock)
# ---------------------------------------------------------------------------

GROUPED = ("select l_returnflag, sum(l_quantity) from lineitem "
           "where l_discount > 0.02 and l_quantity < 30 "
           "group by l_returnflag order by l_returnflag")

#: ``Pipeline.reports`` of the two statements at commit 8ac7a30, scale
#: 0.1, workers 2: ``(pass, instructions before, after)``; a pass saw
#: the same counts in every pipeline that has it.  q3's first three
#: counts read 73 until a join step stopped emitting the ``leftjoin``s
#: of tables not joined yet, which deadcode removed (73 -> 66).
REPORTS = {
    "q3": [("constant_fold", 70, 70), ("cse", 70, 70),
           ("deadcode", 70, 66), ("adaptive_order", 66, 66),
           ("mitosis", 66, 66), ("garbage_collector", 66, 126),
           ("dataflow", 126, 127)],
    "grouped": [("constant_fold", 23, 23), ("cse", 23, 23),
                ("deadcode", 23, 23), ("adaptive_order", 23, 23),
                ("mitosis", 23, 23), ("garbage_collector", 23, 42),
                ("dataflow", 42, 43)],
}
PIPELINE_PASSES = {
    "default_pipe": ("constant_fold", "cse", "deadcode", "adaptive_order",
                     "mitosis", "garbage_collector", "dataflow"),
    "static_pipe": ("constant_fold", "cse", "deadcode", "mitosis",
                    "garbage_collector", "dataflow"),
    "sequential_pipe": ("constant_fold", "cse", "deadcode",
                        "garbage_collector"),
    "minimal_pipe": ("constant_fold", "deadcode"),
}


@pytest.fixture(scope="module")
def database():
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.1, seed=3)
    return database


def statement(name):
    return GROUPED if name == "grouped" else query_sql(name)


@pytest.mark.parametrize("name", ["q3", "grouped"])
def test_one_miss_builds_one_program(database, monkeypatch, name):
    """Parent: 6 programs, 3 validations, 14 renumberings."""
    calls = {"__init__": 0, "validate": 0, "renumber": 0}

    def counted(attribute):
        function = getattr(MalProgram, attribute)

        def wrapper(*args, **kwargs):
            calls[attribute] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(MalProgram, attribute, wrapper)

    # warm the stats first: a plan compiled with a select chain the
    # store has never seen is re-planned once, on its next lookup
    database.execute(statement(name))
    for attribute in calls:
        counted(attribute)
    database.plan_cache.clear()
    outcome = database.execute(statement(name))  # _plan + its first run
    assert database.plan_cache.stats()["size"] == 1
    assert outcome.program.dataflow_enabled
    assert calls["__init__"] <= 2
    assert calls["validate"] == 1
    assert calls["renumber"] <= 2
    database.execute(statement(name))  # a hit: nothing is built or checked
    assert calls["validate"] == 1 and calls["renumber"] <= 2


# ---------------------------------------------------------------------------
# (c) the plan-cache key is a function of what the lexer sees
# ---------------------------------------------------------------------------

#: Statements as token lists: the base text joins them with one space.
TOKEN_LISTS = [
    "select count ( * ) from nation where n_regionkey < 2".split(),
    ["select", "n_name", "as", '"a  b"', "from", "nation", "where",
     "n_name", "<>", "'it''s  --  here'", "order", "by", "n_name"],
    "select l_returnflag , sum ( l_quantity ) from lineitem where "
    "l_discount between 0.02 and 1e-1 and l_tax >= 5 group by "
    "l_returnflag".split(),
    ["select", "o_orderpriority", "from", "orders", "where",
     "o_orderdate", ">=", "date", "'1993-07-01'", "and", "o_comment",
     "not", "like", "'%special  requests%'", "limit", "3", ";"],
]
SEPARATORS = st.lists(
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "-- note\n",
                     "--'\n", '--"\n', "-- a -- b\n ", "\n--\n"]),
    min_size=1, max_size=3).map("".join)


def lexed(sql):
    """What the parser is given: kinds and texts, a number by value;
    None for text the tokenizer refuses."""
    try:
        return [(token.kind, float(token.text) if token.kind == "number"
                 else token.text) for token in tokenize(sql)]
    except SqlParseError:
        return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_layout_comments_and_case_never_change_the_key(data):
    tokens = data.draw(st.sampled_from(TOKEN_LISTS))
    pieces = []
    for token in tokens:
        if token[0] not in "'\"" and data.draw(st.booleans()):
            token = data.draw(st.sampled_from(  # a keyword, name or number
                [token.upper(), token.capitalize(), token.swapcase()]))
        pieces.append(token)
        pieces.append(data.draw(SEPARATORS))
    rewritten = data.draw(SEPARATORS | st.just("")) + "".join(pieces)
    base = " ".join(tokens)
    assert normalize_sql(rewritten) == normalize_sql(base)
    assert lexed(rewritten) == lexed(base) is not None


#: What statements are written in: quotes of both kinds, comment
#: starts, newlines, blanks, a semicolon, mixed case, numbers.
SQL_TEXT = st.text(alphabet="aB \n'\"-;1.e,", max_size=14)
EDITS = st.lists(st.tuples(
    st.integers(0, 14),
    st.sampled_from(["blank", "newline", "delete", "swapcase"])), max_size=3)


@settings(max_examples=1000, deadline=None)
@given(SQL_TEXT, EDITS)
def test_statements_with_equal_keys_tokenize_equally(left, edits):
    right = left
    for position, edit in edits:
        head, tail = right[:position], right[position:]
        if edit == "blank":
            right = head + " " + tail
        elif edit == "newline":
            right = head + "\n" + tail
        elif edit == "delete":
            right = head + tail[1:]
        else:
            right = head + tail[:1].swapcase() + tail[1:]
    if normalize_sql(left) == normalize_sql(right):
        # (the key drops one trailing semicolon: so does the comparison)
        streams = [lexed(sql) for sql in (left, right)]
        for tokens in streams:
            if tokens and tokens[-2:-1] == [("op", ";")]:
                del tokens[-2]
        assert streams[0] == streams[1]


def test_key_keeps_todays_text_for_plain_statements():
    for name in TPCH_NAMES:  # lower-case, literals, no comment
        sql = query_sql(name)
        assert normalize_sql(sql) == " ".join(sql.split()).rstrip(";")
    for sql in random_statements()[:50]:
        assert normalize_sql(sql + " ;") == sql


#: Pairs the parent gave one key: ``(statement, rows, column names)``.
COLLIDING = {
    "a comment ends at its newline": (
        ("select count(*) from nation -- c\n where n_regionkey < 2",
         [(10,)], ["count(*)"]),
        ("select count(*) from nation -- c where n_regionkey < 2",
         [(25,)], ["count(*)"])),
    "whitespace inside a quoted name": (
        ('select r_regionkey as "a  b" from region where r_regionkey = 1',
         [(1,)], ["a  b"]),
        ('select r_regionkey as "a b" from region where r_regionkey = 1',
         [(1,)], ["a b"])),
    "an exponent is part of the number": (
        ("select 1e3 from region where r_regionkey = 0",
         [(1000.0,)], ["1000.0"]),
        ("select 1 e3 from region where r_regionkey = 0",
         [(1,)], ["e3"])),
}
ORDERS = [(pair, order) for pair in sorted(COLLIDING)
          for order in ("as written", "reversed")]


def in_order(pair, order):
    statements = COLLIDING[pair]
    return statements if order == "as written" else statements[::-1]


@pytest.mark.parametrize("pair, order", ORDERS)
def test_colliding_statements_get_their_own_rows(pair, order):
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.1, seed=3)
    for _ in range(2):  # the second round is served from the cache
        for sql, rows, columns in in_order(pair, order):
            outcome = database.execute(sql)
            assert (outcome.rows, outcome.columns) == (rows, columns)
    assert database.plan_cache.stats()["hits"] == 2


@pytest.mark.parametrize("pair, order", ORDERS)
def test_colliding_statements_get_their_own_rows_over_the_wire(pair, order):
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.1, seed=3)
    with Mserver(database) as server, \
            MClient(port=server.port) as client:
        for _ in range(2):
            for sql, rows, columns in in_order(pair, order):
                result = client.query(sql)
                assert (result.rows, result.columns) == (rows, columns)


def test_exponent_literals_compare_and_limit_stays_an_integer(database):
    below = database.execute(
        "select count(*) from lineitem where l_quantity < 1e1").rows
    assert below == database.execute(
        "select count(*) from lineitem where l_quantity < 10.0").rows
    for sql in ("select n_name from nation limit 1e1",
                "select n_name from nation limit 5 offset 1e0",
                "select interval 1e1 day from nation"):
        with pytest.raises(SqlParseError):
            parse_sql(sql)


# ---------------------------------------------------------------------------
# (d) reports and parse errors are what they were
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REPORTS))
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_reports_list_every_pass_with_the_recorded_counts(
        database, monkeypatch, name, pipeline):
    seen = []
    apply = Pipeline.apply

    def recording(self, program):
        out = apply(self, program)
        seen.append([(r.name, r.instructions_before, r.instructions_after)
                     for r in self.reports])
        return out

    monkeypatch.setattr(Pipeline, "apply", recording)
    database.plan_cache.clear()
    database.compile(statement(name), pipeline_name=pipeline)
    [reports] = seen
    assert reports == [report for report in REPORTS[name]
                       if report[0] in PIPELINE_PASSES[pipeline]]


#: statement, message at commit 8ac7a30: the malformed statements of
#: tests/test_sql_parser.py and tests/test_offset_timeline_glue.py, and
#: one for every other ``expected ...`` the expression parser raises
MALFORMED = [
    ("select 1", "expected FROM (near '')"),
    ("select a from t where a = 1 42",
     "trailing input after statement (near '42')"),
    ("select a from t limit 1.5", "LIMIT expects an integer (near '1.5')"),
    ("select x from t limit 5 offset 1.5",
     "OFFSET expects an integer (near '1.5')"),
    ("select a from t where d = date 'tomorrow'",
     "bad date literal 'tomorrow' (near '')"),
    ("select a from t where s like 5",
     "LIKE expects a string literal pattern (near '5')"),
    ("select case end from t",
     "CASE needs at least one WHEN branch (near 'FROM')"),
    ("select @x", "unexpected character '@' at offset 7"),
    ("select a from t where a not 5",
     "expected BETWEEN, IN or LIKE after NOT (near '5')"),
    ("select a from t where", "expected expression (near '')"),
    ("select a, from t", "expected expression (near 'FROM')"),
    ("select a from t where a in (1, 2", "expected ')' (near '')"),
    ("select sum(a from t", "expected ')' (near 'FROM')"),
    ("select a from t where a between 1 or 2", "expected AND (near 'OR')"),
    ("select a from t where a is 5", "expected NULL (near '5')"),
    ("select interval x day from t", "INTERVAL expects a number (near 'x')"),
    ("select cast(a int) from t", "expected AS (near 'int')"),
    ("select a from t where a < > 5", "expected expression (near '>')"),
    ("select a from t where a = 1 = 2", "trailing input after statement "
                                        "(near '=')"),
    ("select a from t where a = not b", "expected expression (near 'NOT')"),
    ("select - from t", "expected expression (near 'FROM')"),
    ("select a from t join u on a = ", "expected identifier (near '')"),
    ("select .5 from t", "expected expression (near '.')"),
    ("select 5. from t", "expected FROM (near '.')"),
    ("update t set a = 1",
     "expected SELECT, CREATE, DROP or INSERT (near 'update')"),
]


@pytest.mark.parametrize("sql, message", MALFORMED)
def test_a_parse_error_names_the_same_token(sql, message):
    with pytest.raises(SqlParseError) as caught:
        parse_sql(sql)
    assert str(caught.value) == message


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_compile_path.py --regen")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(all_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")

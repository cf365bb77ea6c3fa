"""Reference-oracle properties for the three text kernels a session
opens through: the dot tokenizer, the XML escapes of the SVG writer and
the trace-line parser.

Each oracle below is the straightforward version these kernels started
from, kept here verbatim: the one-regex ``split`` tokenizer, ``escape``
and ``quoteattr`` over the U+FFFD substitution, and the eight-``group``
line parser, whose statement is unescaped one character at a time
since line feeds and carriage returns are escaped too.  The kernels in
``src/`` may be rewritten for speed; they must give what the oracle
gives, error messages included.
"""

import os
import re
import tempfile
from dataclasses import fields
from itertools import islice
from xml.sax.saxutils import escape, quoteattr

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.dot.parser import _tokenize
from repro.errors import DotParseError, TraceFormatError
from repro.profiler.events import TraceEvent, format_event, parse_event
from repro.profiler.traceio import read_trace, write_trace
from repro.svg.writer import xml_attr, xml_text

# ---------------------------------------------------------------------
# the dot tokenizer

_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/)*
    (?: ( "(?:\\.|[^"\\])*"
        | ->
        | [A-Za-z_][A-Za-z_0-9]*|-?\d+(?:\.\d+)?
        | [{}\[\];,=]
        | $ )
      | (.) )
    """,
    re.VERBOSE | re.DOTALL,
)


def oracle_tokenize(text):
    """The token texts, ``''`` last; raises the first bad character's
    ``DotParseError`` with its line."""
    pieces = _ORACLE_TOKEN_RE.split(text)
    bad = pieces[2::3]
    if any(bad):
        index = next(i for i, char in enumerate(bad) if char)
        match = next(islice(_ORACLE_TOKEN_RE.finditer(text), index, None))
        token = match[1] or match[2] or ""
        line = text.count("\n", 0, match.end() - len(token)) + 1
        raise DotParseError(
            f"line {line}: unexpected character {bad[index]!r}")
    return pieces[1::3]


#: pieces of dot text, syntax and near-syntax: every comment form
#: (closed, unclosed, nested markers), strings with escapes, arrows,
#: numbers and characters dot does not allow
_DOT_PIECES = st.sampled_from([
    " ", "\n", "\t", "\r", "a", "Node", "digraph", "_x1", "n17", "0", "-",
    "-1", "2.5", ".5", "1.", "->", "--", "{", "}", "[", "]", ";", ",", "=",
    '"', '\\', '\\"', '"a b"', '"x\\"y"', '"\\\\"', '"\n"', "//", "// c\n",
    "#", "# c\n", "/*", "*/", "/* c */", "/* a\nb */", "/", "*", "@",
    "\u00e9", "\x00", ">", "<",
])
_DOT_TEXT = st.one_of(
    st.lists(_DOT_PIECES, max_size=30).map("".join),
    st.text(alphabet=st.sampled_from(
        ' \n\t\r"\\/*#->{}[];,=.09aZ_@\u00e9'), max_size=40),
)


class TestTokenizer:
    @given(_DOT_TEXT)
    @example('digraph G { n0 [label="X_1 := sql.mvc();"]; n0 -> n1; }')
    @example('a "unterminated\n b')
    @example('/* open comment\n a')
    @example('"a\\\n" @')
    @example("")
    @settings(max_examples=1500, deadline=None)
    def test_same_tokens_or_same_error(self, text):
        try:
            expected = oracle_tokenize(text)
        except DotParseError as error:
            with pytest.raises(DotParseError) as caught:
                _tokenize(text)
            assert str(caught.value) == str(error)
        else:
            assert _tokenize(text) == expected


# ---------------------------------------------------------------------
# the SVG writer's escapes

_NOT_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def oracle_text(value):
    return escape(_NOT_XML_CHAR.sub("\ufffd", value), {"\r": "&#13;"})


def oracle_attr(value):
    return quoteattr(_NOT_XML_CHAR.sub("\ufffd", value))


_XML_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(
        "a1 :_-\"'&<>\t\n\r\x00\x1f\x7f\ud800\udfff\ufffe\uffff\u00e9"
        "\U0001f600"), max_size=20),
    st.text(max_size=20),
)


class TestXmlEscapes:
    @given(_XML_TEXT)
    @example("shape:n17")
    @example("n0")
    @example("")
    @example("say \"hi\" and 'bye'")
    @example("'only single'")
    @settings(max_examples=1000, deadline=None)
    def test_attr_and_text_match_the_oracle(self, value):
        assert xml_attr(value) == oracle_attr(value)
        assert xml_text(value) == oracle_text(value)


# ---------------------------------------------------------------------
# the trace-line parser

_ORACLE_LINE_RE = re.compile(
    r"^\[\s*(\d+),\s*(\d+),\s*\"(start|done)\",\s*(\d+),\s*(\d+),"
    r"\s*(\d+),\s*(\d+),\s*\"(.*)\"\s*\]$",
    re.DOTALL,
)


#: what a backslash and the character after it stand for
_ORACLE_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}


def oracle_unescape(text):
    """Left to right: a backslash and the character after it are one
    escape; one the format does not define stays as it is."""
    out = []
    chars = iter(text)
    for char in chars:
        if char == "\\":
            after = next(chars, "")
            char = _ORACLE_ESCAPES.get(after, char + after)
        out.append(char)
    return "".join(out)


def oracle_parse_event(line):
    match = _ORACLE_LINE_RE.match(line.strip())
    if match is None:
        raise TraceFormatError(f"bad trace line: {line!r}")
    stmt = oracle_unescape(match.group(8))
    return TraceEvent(
        event=int(match.group(1)),
        clock_usec=int(match.group(2)),
        status=match.group(3),
        pc=int(match.group(4)),
        thread=int(match.group(5)),
        usec=int(match.group(6)),
        rss_bytes=int(match.group(7)),
        stmt=stmt,
    )


FIELDS = fields(TraceEvent)
_STMT = st.one_of(
    st.text(alphabet=st.sampled_from('X_1 :=.(),"\\\t\n\r]['), max_size=30),
    st.text(max_size=30),
)
_EVENTS = st.builds(
    TraceEvent, st.integers(0, 10**9), st.integers(0, 10**12),
    st.sampled_from(["start", "done"]), st.integers(0, 10**5),
    st.integers(0, 64), st.integers(0, 10**9), st.integers(0, 10**12),
    _STMT)
#: lines near the format: a formatted line with a piece replaced,
#: dropped or doubled, and blanks around it
_LINE_EDITS = st.sampled_from([
    ("", ""), (",", ""), ("\t", "  "), ('"', ""), ('"', '\\"'),
    ("done", "doing"), ("start", "Start"), ("[", ""), ("]", "]]"),
    ("1", "-1"), ("1", "x"), ("\\", "\\\\"), ("[ ", "["), ("\\n", "\n"),
    ("\\", ""),
])


def assert_same_parse(line):
    try:
        expected = oracle_parse_event(line)
    except TraceFormatError as error:
        with pytest.raises(TraceFormatError) as caught:
            parse_event(line)
        assert str(caught.value) == str(error)
    else:
        parsed = parse_event(line)
        assert parsed == expected
        assert [type(getattr(parsed, field.name)) for field in FIELDS] \
            == [type(getattr(expected, field.name)) for field in FIELDS]


class TestTraceLines:
    @given(_EVENTS)
    @example(TraceEvent(0, 0, "done", 0, 0, 0, 0, 'a\\"b'))
    @example(TraceEvent(7, 1, "start", 3, 0, 0, 18432, '\\'))
    @settings(max_examples=1000, deadline=None)
    def test_round_trip_and_oracle(self, event):
        line = format_event(event)
        assert parse_event(line) == event
        assert_same_parse(line)

    @given(st.lists(_EVENTS, max_size=4))
    @example([TraceEvent(1, 2, "done", 3, 0, 5, 6, 'X_1:str := "a\nb";')])
    @example([TraceEvent(1, 2, "done", 3, 0, 5, 6, "\\\r\\n\\")])
    @settings(max_examples=300, deadline=None)
    def test_a_trace_file_round_trips_every_statement(self, events):
        """One physical line per event, whatever its statement holds."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "events.trace")
            write_trace(events, path)
            assert read_trace(path) == events

    @given(_EVENTS, _LINE_EDITS, st.sampled_from(["", " ", "\n", "\t "]))
    @settings(max_examples=1000, deadline=None)
    def test_edited_lines_parse_as_the_oracle_does(self, event, edit,
                                                   blank):
        old, new = edit
        assert_same_parse(blank + format_event(event).replace(old, new, 1)
                          + blank)

    @given(st.text(alphabet=st.sampled_from('[]",\\ \t\n0123startdone'),
                   max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_as_the_oracle_does(self, line):
        assert_same_parse(line)

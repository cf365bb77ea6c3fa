"""Parser for the dot language subset MAL plan files use.

Covers the constructs that occur in generated plan files and common
hand-written graphs::

    digraph name {
        rankdir=TB;                      // graph attribute
        node [shape=box];                // node defaults
        edge [color=gray];               // edge defaults
        n0 [label="...", shape=box];     // node with attributes
        n0 -> n1 -> n2 [weight=2];       // edge chains
        subgraph cluster_0 { ... }       // flattened into the parent
    }

Comments (``//``, ``#``, ``/* */``) are ignored.  Errors raise
:class:`~repro.errors.DotParseError` with a line number.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Dict, List, Optional

from repro.errors import DotParseError
from repro.dot.graph import Digraph

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/)*        # blanks and comments, then
    (?: ( "(?:\\.|[^"\\])*"                      # a token: a string,
        | ->                                      #   an arrow,
        | [A-Za-z_][A-Za-z_0-9]*|-?\d+(?:\.\d+)?  #   a name or a number,
        | [{}\[\];,=]                             #   punctuation,
        | $ )                                     #   '' at the end of the text;
      | (.) )                                     # or a bad character
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"digraph", "graph", "subgraph", "node", "edge", "strict"}
#: the token texts that are not a name, a number or a string
_NOT_A_VALUE = {"", "->", "{", "}", "[", "]", ";", ",", "="}


def _tokenize(text: str) -> List[str]:
    """The token texts in order, ``''`` for the end of the text last.

    A string keeps its quotes, so a token's text says what kind it is,
    and only an error message wants a line: :func:`_line_of` finds it
    then.  Nothing is kept per token but its text — ``split`` returns
    one flat list, no object per match for the collector to walk.
    """
    pieces = _TOKEN_RE.split(text)  # '', token, bad, '', token, bad, ...
    bad = pieces[2::3]
    if any(bad):
        index = next(i for i, char in enumerate(bad) if char)
        raise DotParseError(
            f"line {_line_of(text, index)}: "
            f"unexpected character {bad[index]!r}"
        )
    return pieces[1::3]


def _line_of(text: str, index: int) -> int:
    """The line on which token ``index`` of ``text`` starts."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    token = match[1] or match[2] or ""
    return text.count("\n", 0, match.end() - len(token)) + 1


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.graph: Optional[Digraph] = None
        self.node_defaults: Dict[str, str] = {}
        self.edge_defaults: Dict[str, str] = {}

    def peek(self) -> str:
        return self.tokens[self.index]

    def error(self, message: str) -> DotParseError:
        """``message`` behind the line of the token :meth:`peek` sees."""
        line = _line_of(self.text, self.index)
        return DotParseError(f"line {line}: {message}")

    def accept(self, text: str) -> bool:
        """Step over the next token if it is ``text`` (never ``''``: the
        end of the text is never stepped over)."""
        if self.tokens[self.index] != text:
            return False
        self.index += 1
        return True

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(f"expected {text!r}, got {self.peek()!r}")

    def value(self, what: str) -> str:
        """Step over a name, number or string; what it says, unquoted."""
        token = self.peek()
        if token in _NOT_A_VALUE:
            raise self.error(f"expected {what}, got {token!r}")
        self.index += 1
        if token[0] != '"':
            return token
        # one pass, left to right: between two escaped backslashes
        # the only escapes left are \" and \n
        return "\\".join(
            part.replace('\\"', '"').replace("\\n", "\n")
            for part in token[1:-1].split("\\\\"))

    # ------------------------------------------------------------------

    def parse(self) -> Digraph:
        self.accept("strict")
        header = self.peek()
        if header in _NOT_A_VALUE or header[0] == '"':
            raise self.error(f"expected 'name', got {header!r}")
        if header != "digraph":
            raise self.error("only 'digraph' graphs are supported")
        self.index += 1
        name = "G"
        if self.peek() not in _NOT_A_VALUE:
            name = self.value("graph name")
        self.graph = Digraph(name)
        self._parse_body()
        if self.peek():
            raise self.error(f"trailing input {self.peek()!r}")
        return self.graph

    def _parse_body(self) -> None:
        self.expect("{")
        while not self.accept("}"):
            if not self.peek():
                raise self.error("missing closing brace")
            self._parse_statement()

    def _parse_statement(self) -> None:
        token = self.peek()
        if token == "subgraph":
            self.index += 1
            if self.peek() not in _NOT_A_VALUE:
                self.index += 1  # subgraph name, ignored (flattened)
            self._parse_body()
            self.accept(";")
            return
        if token in ("node", "edge", "graph"):
            self.index += 1
            attrs = self._parse_attr_list() or {}
            if token == "node":
                self.node_defaults.update(attrs)
            elif token == "edge":
                self.edge_defaults.update(attrs)
            else:
                self.graph.attrs.update(attrs)
            self.accept(";")
            return
        first = self._parse_id()
        if self.accept("="):
            if self.peek() in _NOT_A_VALUE:
                raise self.error("expected attribute value")
            self.graph.attrs[first] = self.value("attribute value")
            self.accept(";")
            return
        chain = [first]
        while self.accept("->"):
            chain.append(self._parse_id())
        attrs = self._parse_attr_list()
        if len(chain) == 1:
            node = self.graph.ensure_node(first)
            merged = dict(self.node_defaults)
            merged.update(node.attrs)
            merged.update(attrs or {})
            node.attrs = merged
        else:
            for src, dst in zip(chain, chain[1:]):
                for endpoint in (src, dst):
                    if endpoint not in self.graph.nodes:
                        self.graph.add_node(endpoint,
                                            dict(self.node_defaults))
                merged = dict(self.edge_defaults)
                merged.update(attrs or {})
                self.graph.add_edge(src, dst, merged)
        self.accept(";")

    def _parse_id(self) -> str:
        if self.peek() in _KEYWORDS:
            raise self.error(f"keyword {self.peek()!r} cannot be an id")
        return self.value("node id")

    def _parse_attr_list(self) -> Optional[Dict[str, str]]:
        if not self.accept("["):
            return None
        attrs: Dict[str, str] = {}
        while not self.accept("]"):
            key = self.value("name or string")
            self.expect("=")
            attrs[key] = self.value("name or string")
            self.accept(",")
            self.accept(";")
        return attrs


def parse_dot(text: str) -> Digraph:
    """Parse dot text into a :class:`~repro.dot.graph.Digraph`.

    Raises:
        DotParseError: on syntax errors, with a line number.
    """
    return _Parser(text).parse()

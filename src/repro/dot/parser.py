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
from typing import Dict, List, Optional, Tuple

from repro.errors import DotParseError
from repro.dot.graph import Digraph

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<arrow>->)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*|-?\d+(?:\.\d+)?)
  | (?P<punct>[{}\[\];,=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"digraph", "graph", "subgraph", "node", "edge", "strict"}


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "bad":
            raise DotParseError(
                f"line {line}: unexpected character {value!r}"
            )
        if kind in ("ws", "comment"):
            line += value.count("\n")
            continue
        tokens.append(_Token(kind, value, line))
        if kind == "string":  # the only token kind that can span lines
            line += value.count("\n")
    tokens.append(_Token("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.graph: Optional[Digraph] = None
        self.node_defaults: Dict[str, str] = {}
        self.edge_defaults: Dict[str, str] = {}

    def peek(self) -> _Token:
        return self.tokens[self.index]  # advance() stops at eof

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            raise DotParseError(
                f"line {token.line}: expected {text or kind!r}, "
                f"got {token.text!r}"
            )
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    # ------------------------------------------------------------------

    def parse(self) -> Digraph:
        self.accept("name", "strict")
        header = self.expect("name")
        if header.text != "digraph":
            raise DotParseError(
                f"line {header.line}: only 'digraph' graphs are supported"
            )
        name = "G"
        token = self.peek()
        if token.kind in ("name", "string") and token.text != "{":
            name = self._unquote(self.advance())
        self.graph = Digraph(name)
        self._parse_body()
        if self.peek().kind != "eof":
            token = self.peek()
            raise DotParseError(
                f"line {token.line}: trailing input {token.text!r}"
            )
        return self.graph

    def _parse_body(self) -> None:
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            if self.peek().kind == "eof":
                raise DotParseError(
                    f"line {self.peek().line}: missing closing brace"
                )
            self._parse_statement()

    def _parse_statement(self) -> None:
        token = self.peek()
        if token.kind == "name" and token.text == "subgraph":
            self.advance()
            if self.peek().kind in ("name", "string") and \
                    self.peek().text != "{":
                self.advance()  # subgraph name, ignored (flattened)
            self._parse_body()
            self.accept("punct", ";")
            return
        if token.kind == "name" and token.text in ("node", "edge", "graph"):
            kind = self.advance().text
            attrs = self._parse_attr_list() or {}
            if kind == "node":
                self.node_defaults.update(attrs)
            elif kind == "edge":
                self.edge_defaults.update(attrs)
            else:
                self.graph.attrs.update(attrs)
            self.accept("punct", ";")
            return
        first = self._parse_id()
        if self.accept("punct", "="):
            value_token = self.peek()
            if value_token.kind not in ("name", "string"):
                raise DotParseError(
                    f"line {value_token.line}: expected attribute value"
                )
            self.graph.attrs[first] = self._unquote(self.advance())
            self.accept("punct", ";")
            return
        chain = [first]
        while self.accept("arrow"):
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
        self.accept("punct", ";")

    def _parse_id(self) -> str:
        token = self.peek()
        if token.kind not in ("name", "string"):
            raise DotParseError(
                f"line {token.line}: expected node id, got {token.text!r}"
            )
        if token.text in _KEYWORDS:
            raise DotParseError(
                f"line {token.line}: keyword {token.text!r} cannot be an id"
            )
        return self._unquote(self.advance())

    def _parse_attr_list(self) -> Optional[Dict[str, str]]:
        if not self.accept("punct", "["):
            return None
        attrs: Dict[str, str] = {}
        while not self.accept("punct", "]"):
            key = self._unquote(self.expect_any(("name", "string")))
            self.expect("punct", "=")
            value = self._unquote(self.expect_any(("name", "string")))
            attrs[key] = value
            self.accept("punct", ",")
            self.accept("punct", ";")
        return attrs

    def expect_any(self, kinds: Tuple[str, ...]) -> _Token:
        token = self.peek()
        if token.kind not in kinds:
            raise DotParseError(
                f"line {token.line}: expected {' or '.join(kinds)}, "
                f"got {token.text!r}"
            )
        return self.advance()

    @staticmethod
    def _unquote(token: _Token) -> str:
        if token.kind == "string":
            inner = token.text[1:-1]
            return inner.replace('\\"', '"').replace("\\\\", "\\").replace(
                "\\n", "\n"
            )
        return token.text


def parse_dot(text: str) -> Digraph:
    """Parse dot text into a :class:`~repro.dot.graph.Digraph`.

    Raises:
        DotParseError: on syntax errors, with a line number.
    """
    return _Parser(text).parse()

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

Comments (``//``, ``#``, ``/* */``) are ignored, and keywords match in
any case (``Node``, ``DiGraph``), as the DOT grammar says.  Errors raise
:class:`~repro.errors.DotParseError` with a line number.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Dict, List

from repro.errors import DotParseError
from repro.dot.graph import Digraph

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/)*        # blanks and comments, then
    (?: ( [A-Za-z_][A-Za-z_0-9]*                 # a token: a name,
        | [{}\[\];,=]                            #   punctuation,
        | "[^"\\]*(?:\\.[^"\\]*)*"               #   a string (a run per escape),
        | ->                                     #   an arrow,
        | -?\d+(?:\.\d+)?                        #   a number,
        | $ )                                    #   '' at the end of the text;
      | (.) )                                    # or a bad character
    """,
    re.VERBOSE | re.DOTALL,
)

#: the keywords, lower case: DOT compares them case-independently
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
        raise _error(text, index, f"unexpected character {bad[index]!r}")
    return pieces[1::3]


def _line_of(text: str, index: int) -> int:
    """The line on which token ``index`` of ``text`` starts."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    token = match[1] or match[2] or ""
    return text.count("\n", 0, match.end() - len(token)) + 1


def _error(text: str, index: int, message: str) -> DotParseError:
    """``message`` behind the line of token ``index``."""
    return DotParseError(f"line {_line_of(text, index)}: {message}")


def _unquote(token: str) -> str:
    """What a string token says: no quotes, ``\\"``, ``\\n`` and
    ``\\\\`` unescaped."""
    body = token[1:-1]
    if "\\" not in body:
        return body
    # one pass, left to right: between two escaped backslashes
    # the only escapes left are \" and \n
    return "\\".join(part.replace('\\"', '"').replace("\\n", "\n")
                     for part in body.split("\\\\"))


def _attr_list(text: str, tokens: List[str], index: int):
    """The attributes of the ``[...]`` list whose ``[`` is token
    ``index``, and the index of the token after its ``]``."""
    attrs: Dict[str, str] = {}
    index += 1
    while True:
        key = tokens[index]
        if key == "]":
            return attrs, index + 1
        if key in _NOT_A_VALUE:
            raise _error(text, index,
                         f"expected name or string, got {key!r}")
        if tokens[index + 1] != "=":
            raise _error(text, index + 1,
                         f"expected '=', got {tokens[index + 1]!r}")
        value = tokens[index + 2]
        if value in _NOT_A_VALUE:
            raise _error(text, index + 2,
                         f"expected name or string, got {value!r}")
        attrs[key if key[0] != '"' else _unquote(key)] = \
            value if value[0] != '"' else _unquote(value)
        index += 3
        if tokens[index] == ",":
            index += 1
        if tokens[index] == ";":
            index += 1


def parse_dot(text: str) -> Digraph:
    """Parse dot text into a :class:`~repro.dot.graph.Digraph`.

    One loop over the token texts; a subgraph's statements are read as
    the parent's (flattened), so only the brace depth tells them apart.

    Raises:
        DotParseError: on syntax errors, with a line number.
    """
    tokens = _tokenize(text)
    index = 1 if tokens[0].lower() == "strict" else 0
    header = tokens[index]
    if header in _NOT_A_VALUE or header[0] == '"':
        raise _error(text, index, f"expected 'name', got {header!r}")
    if header.lower() != "digraph":
        raise _error(text, index, "only 'digraph' graphs are supported")
    index += 1
    name = tokens[index]
    if name in _NOT_A_VALUE:
        name = "G"
    else:
        index += 1
        if name[0] == '"':
            name = _unquote(name)
    graph = Digraph(name)
    nodes = graph.nodes
    node_defaults: Dict[str, str] = {}
    edge_defaults: Dict[str, str] = {}
    token = tokens[index]
    if token != "{":
        raise _error(text, index, f"expected '{{', got {token!r}")
    index += 1
    depth = 1  # braces open
    while True:
        token = tokens[index]
        if token == "}":
            index += 1
            depth -= 1
            if not depth:
                break
            if tokens[index] == ";":  # after a subgraph's body
                index += 1
            continue
        if not token:
            raise _error(text, index, "missing closing brace")
        keyword = token.lower()
        if keyword in _KEYWORDS:
            index += 1
            if keyword == "subgraph":
                if tokens[index] not in _NOT_A_VALUE:
                    index += 1  # subgraph name, ignored (flattened)
                if tokens[index] != "{":
                    raise _error(text, index,
                                 f"expected '{{', got {tokens[index]!r}")
                index += 1
                depth += 1
                continue
            if keyword == "node":
                defaults = node_defaults
            elif keyword == "edge":
                defaults = edge_defaults
            elif keyword == "graph":
                defaults = graph.attrs
            else:
                raise _error(text, index - 1,
                             f"keyword {token!r} cannot be an id")
            if tokens[index] == "[":
                attrs, index = _attr_list(text, tokens, index)
                defaults.update(attrs)
            if tokens[index] == ";":
                index += 1
            continue
        # a node, an edge chain or a graph attribute: an ID first
        if token in _NOT_A_VALUE:
            raise _error(text, index, f"expected node id, got {token!r}")
        first = token if token[0] != '"' else _unquote(token)
        index += 1
        token = tokens[index]
        if token == "=":
            index += 1
            value = tokens[index]
            if value in _NOT_A_VALUE:
                raise _error(text, index, "expected attribute value")
            graph.attrs[first] = \
                value if value[0] != '"' else _unquote(value)
            index += 1
        elif token == "->":
            chain = [first]
            while tokens[index] == "->":
                index += 1
                token = tokens[index]
                if token.lower() in _KEYWORDS:
                    raise _error(text, index,
                                 f"keyword {token!r} cannot be an id")
                if token in _NOT_A_VALUE:
                    raise _error(text, index,
                                 f"expected node id, got {token!r}")
                chain.append(token if token[0] != '"' else _unquote(token))
                index += 1
            attrs = edge_defaults  # Digraph.add_edge copies them
            if tokens[index] == "[":
                attrs, index = _attr_list(text, tokens, index)
                attrs = {**edge_defaults, **attrs}
            src = first
            for dst in chain[1:]:
                if src not in nodes:
                    graph.add_node(src, node_defaults)
                if dst not in nodes:
                    graph.add_node(dst, node_defaults)
                graph.add_edge(src, dst, attrs)
                src = dst
        else:
            attrs = {}
            if token == "[":
                attrs, index = _attr_list(text, tokens, index)
            node = nodes.get(first)
            if node is None:  # Digraph.add_node copies the attributes
                graph.add_node(first, {**node_defaults, **attrs})
            else:
                node.attrs = {**node_defaults, **node.attrs, **attrs}
        if tokens[index] == ";":
            index += 1
    if tokens[index]:
        raise _error(text, index, f"trailing input {tokens[index]!r}")
    return graph

"""SQL lexer.

Produces a flat token stream; keywords are case-insensitive and reported
upper-case, identifiers are lower-cased (MonetDB folds unquoted
identifiers to lower case), string literals keep their exact content.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.errors import SqlParseError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT",
    "BETWEEN", "IN", "LIKE", "IS", "NULL", "TRUE", "FALSE",
    "JOIN", "INNER", "ON", "CREATE", "TABLE", "INSERT", "INTO",
    "VALUES", "DATE", "INTERVAL", "DAY", "MONTH", "YEAR",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "CASE", "WHEN", "THEN",
    "ELSE", "END", "EXTRACT", "SUBSTRING", "FOR", "DROP", "CAST",
}


class Token:
    """One lexical unit: kind, text and source position."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # keyword | name | number | string | op | eof
        self.text = text
        self.pos = pos

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.text in words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.text!r})"


#: The lexical forms whose inside is not SQL text: a string literal, a
#: quoted name, and a comment up to the end of its line.  The tokenizer
#: and :func:`normalize_sql` share them, so the plan-cache key drops and
#: keeps exactly what the token stream does.
_STRING = r"'(?:[^']|'')*'"
_QNAME = r'"[^"]+"'
_COMMENT = r"--[^\n]*"
_SKIPPED = rf"\s*(?:{_COMMENT}\s*)*"

#: One token and whatever may be skipped before it.
_TOKEN_RE = re.compile(
    rf"""
    {_SKIPPED}
    (?:
        (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><>|<=|>=|!=|\|\||[-+*/%(),.;<>=])
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<string>{_STRING})
      | (?P<qname>{_QNAME})
      | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into tokens; the last one is the ``eof`` sentinel
    the parser stops at.  Whitespace and comments are dropped.

    Raises:
        SqlParseError: on characters outside the grammar.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    while True:
        found = match(sql, pos)
        if found is None:
            pos = _SKIPPED_RE.match(sql, pos).end()
            raise SqlParseError(
                f"unexpected character {sql[pos]!r} at offset {pos}"
            )
        kind = found.lastgroup
        text = found.group(kind)
        start = found.start(kind)
        pos = found.end()
        if kind == "name":
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token("keyword", upper, start))
            else:
                append(Token("name", text.lower(), start))
        elif kind == "op" or kind == "number":
            append(Token(kind, text, start))
        elif kind == "string":
            append(Token("string", text[1:-1].replace("''", "'"), start))
        elif kind == "qname":
            append(Token("name", text[1:-1], start))
        else:
            append(Token("eof", "", start))
            return tokens


_SKIPPED_RE = re.compile(_SKIPPED)
#: What :func:`normalize_sql` copies as written, and what it drops.
_VERBATIM_RE = re.compile(rf"({_STRING}|{_QNAME})|{_COMMENT}")


def _squeezed(text: str) -> str:
    """``text`` with each run of blanks as one space, at its ends too."""
    words = text.split()
    if not words:
        return " " if text else ""
    return (" " if text[0].isspace() else "") + " ".join(words) \
        + (" " if text[-1].isspace() else "")


def normalize_sql(sql: str) -> str:
    """The statement as the tokenizer sees it, for plan-cache keying.

    Whitespace and comments separate tokens and mean nothing else, and
    keywords and unquoted names are case-insensitive: outside string
    literals and quoted names, runs of whitespace and comments become
    one space and ASCII text is lower-cased (a trailing semicolon plus
    surrounding blanks are dropped), so reformatted but equivalent
    statements share a cache entry.  Literals and quoted names are kept
    exactly — ``'a  b'`` and ``'a b'`` are different values, ``"a  b"``
    and ``"a b"`` different columns — and a comment ends at its newline,
    so what follows it is still part of the statement.
    """
    if "'" in sql or '"' in sql or "--" in sql or not sql.isascii():
        # SQL text at even places, literals and quoted names at odd ones;
        # a comment separates like the newline that ends it
        pieces = [""]
        for index, piece in enumerate(_VERBATIM_RE.split(sql)):
            if index % 2 == 0:
                pieces[-1] += piece
            elif piece is None:
                pieces[-1] += " "
            else:
                pieces += [piece, ""]
        for index in range(0, len(pieces), 2):
            piece = _squeezed(pieces[index])
            # (no other text may fold into an ASCII statement's key)
            pieces[index] = piece.lower() if piece.isascii() else piece
        text = "".join(pieces).strip()
    else:
        text = " ".join(sql.lower().split())
    if text.endswith(";"):
        text = text[:-1].rstrip()
    return text

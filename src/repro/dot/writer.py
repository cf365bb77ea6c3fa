"""MAL plan → dot file generation (the server side of the workflow).

One node per instruction, named ``n<pc>`` — the paper §3.3: "an
instruction execution trace statement with pc=1 maps to the node 'n1' in
the dot file.  The 'stmt' field ... maps to the 'label' field in the dot
file."  One edge per dataflow dependency.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.dot.graph import Digraph
from repro.dot.parser import _KEYWORDS
from repro.mal.ast import MalProgram
from repro.mal.printer import format_instruction


def node_name(pc: int) -> str:
    """Dot node id for a program counter (``n<pc>``)."""
    return f"n{pc}"


def plan_to_graph(program: MalProgram) -> Digraph:
    """Build the dataflow DAG of a plan as a :class:`Digraph`."""
    graph = Digraph(program.name.replace(".", "_"))
    graph.attrs["rankdir"] = "TB"
    for instr in program.instructions:
        graph.add_node(node_name(instr.pc), {
            "label": format_instruction(instr, program),
            "shape": "box",
            "pc": str(instr.pc),
        })
    for pc, deps in sorted(program.dependencies().items()):
        for dep in sorted(deps):
            graph.add_edge(node_name(dep), node_name(pc))
    return graph


def plan_to_dot(program: MalProgram) -> str:
    """Render a plan's dataflow DAG as dot text."""
    return graph_to_dot(plan_to_graph(program))


def graph_to_dot(graph: Digraph) -> str:
    """Render any :class:`Digraph` as dot text (parseable by
    :func:`repro.dot.parser.parse_dot`)."""
    lines: List[str] = [f"digraph {_quote(graph.name)} {{"]
    for key, value in graph.attrs.items():
        lines.append(f"    {_quote(key)}={_quote(value)};")
    for node in graph.nodes.values():
        attrs = _format_attrs(node.attrs)
        lines.append(f"    {_quote(node.node_id)}{attrs};")
    for edge in graph.edges:
        attrs = _format_attrs(edge.attrs)
        lines.append(f"    {_quote(edge.src)} -> {_quote(edge.dst)}{attrs};")
    lines.append("}")
    return "\n".join(lines)


def _format_attrs(attrs: Dict[str, str]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{_quote(key)}={_quote(value)}"
                      for key, value in attrs.items())
    return f" [{inner}]"


#: what ``parse_dot`` reads back as one token that says the same text: a
#: name or a run of digits (``0X`` and ``1e`` are two tokens each)
_BARE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+")


def _quote(value: str) -> str:
    """``value`` as one dot ID: bare when that parses back as the same
    text, quoted otherwise.  Ids, attribute names and values and the
    graph name all go through here.
    """
    text = str(value)
    # a bare keyword, in any case, is syntax to the parser where an id
    # may stand
    if _BARE.fullmatch(text) and text.lower() not in _KEYWORDS:
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'

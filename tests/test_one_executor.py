"""The executor never sleeps a modelled cost.

Every MAL instruction runs on the thread that called ``Executor.run``;
the N dataflow workers are modelled on a virtual clock.  Two structural
facts keep it that way, read off the source with :mod:`ast`:

* no module under ``src/repro/mal/`` imports :mod:`threading`;
* exactly one ``sleep`` call is there: the ``scheduler.worker`` stall
  fault in ``Execution.step``, which sleeps its value in microseconds
  so that a stalled query takes wall time (what the chaos ``overload``
  and ``slow-query`` mixes and the lifecycle tests rely on).
"""

import ast
import pathlib

MAL = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "mal"


class _Scan(ast.NodeVisitor):
    """Collects ``threading`` imports and ``sleep`` calls with the
    qualified name of the function they are in."""

    def __init__(self, module: str) -> None:
        self.scope = [module]
        self.threading = []
        self.sleeps = []

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def visit_Import(self, node) -> None:
        if any(alias.name.split(".")[0] == "threading"
               for alias in node.names):
            self.threading.append(".".join(self.scope))

    def visit_ImportFrom(self, node) -> None:
        if (node.module or "").split(".")[0] == "threading":
            self.threading.append(".".join(self.scope))
        if node.module == "time" and any(alias.name == "sleep"
                                         for alias in node.names):
            self.sleeps.append(".".join(self.scope) + " (import)")

    def visit_Call(self, node) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name == "sleep":
            self.sleeps.append(".".join(self.scope))
        self.generic_visit(node)


def _scans():
    modules = sorted(MAL.rglob("*.py"))
    assert modules, f"no modules under {MAL}"
    for path in modules:
        scan = _Scan(".".join(path.relative_to(MAL).with_suffix("").parts))
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        yield scan


def test_no_module_under_mal_imports_threading():
    importers = [where for scan in _scans() for where in scan.threading]
    assert importers == []


def test_the_one_sleep_is_the_stall_fault():
    sleeps = [where for scan in _scans() for where in scan.sleeps]
    assert sleeps == ["interpreter.Execution.step"]


def test_the_scan_sees_what_it_looks_for():
    """The guard is not vacuous: it flags both kinds of offender."""
    scan = _Scan("m")
    scan.visit(ast.parse(
        "import threading\n"
        "class A:\n"
        "    def f(self):\n"
        "        time.sleep(cost * 1e-4)\n"))
    assert scan.threading == ["m"]
    assert scan.sleeps == ["m.A.f"]

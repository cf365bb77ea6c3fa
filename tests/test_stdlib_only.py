"""The package runs on the Python standard library alone.

``pyproject.toml`` declares no runtime dependency; this keeps it honest.
Every import statement under ``src/`` — at module level or inside a
function — must name a standard-library module or ``repro`` itself, and
importing the package, its CLI and the rasteriser must leave numpy (the
last third-party module the package used) out of ``sys.modules``.
"""

import ast
import glob
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
ALLOWED = set(sys.stdlib_module_names) | {"repro"}


def imported_roots(path):
    """(line, top-level module name) for every absolute import."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_source_import_is_stdlib_or_repro():
    paths = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    assert len(paths) > 100
    offenders = [f"{os.path.relpath(path, REPO_ROOT)}:{line}: {name}"
                 for path in paths
                 for line, name in imported_roots(path)
                 if name not in ALLOWED]
    assert not offenders, f"non-stdlib imports under src/: {offenders}"


def test_importing_the_package_loads_no_numpy():
    probe = ("import sys, repro, repro.cli, repro.viz.raster; "
             "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"

"""Documentation invariants: generated references stay in sync, the
public API carries docstrings, and prose never drifts from the code —
every module path, CLI subcommand, metric family and intra-repo link
mentioned in README.md and docs/*.md must exist."""

import glob
import importlib
import os
import re

import pytest

import repro
from repro.mal.modules import reference_text, registered_names

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
DOCS_DIR = os.path.join(REPO_ROOT, "docs")


def _doc_files():
    """README.md plus every markdown file under docs/."""
    paths = [os.path.join(REPO_ROOT, "README.md")]
    paths += sorted(glob.glob(os.path.join(DOCS_DIR, "*.md")))
    return paths


def _doc_texts():
    return {path: open(path).read() for path in _doc_files()}


class TestMalReference:
    def test_reference_covers_every_instruction(self):
        text = reference_text()
        for qualified_name in registered_names():
            assert f"`{qualified_name}`" in text

    def test_reference_has_no_undocumented_entries(self):
        assert "(undocumented)" not in reference_text()

    def test_committed_reference_in_sync(self):
        path = os.path.join(DOCS_DIR, "mal_reference.md")
        with open(path) as handle:
            committed = handle.read()
        assert committed.strip() == reference_text().strip(), (
            "docs/mal_reference.md is stale; regenerate with "
            "python -c \"from repro.mal.modules import reference_text; "
            "open('docs/mal_reference.md','w')"
            ".write(reference_text() + '\\n')\""
        )


class TestDocstringCoverage:
    def _public_names(self, module):
        return [
            getattr(module, name) for name in getattr(module, "__all__", [])
            if not isinstance(getattr(module, name), (str, int, float))
            and getattr(module, name) is not None  # the nil sentinel
        ]

    @pytest.mark.parametrize("module_name", [
        "repro", "repro.core", "repro.storage", "repro.mal",
        "repro.sqlfe", "repro.server", "repro.profiler", "repro.dot",
        "repro.layout", "repro.svg", "repro.viz", "repro.tpch",
        "repro.workloads", "repro.metrics", "repro.faults",
    ])
    def test_every_public_item_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for item in self._public_names(module):
            assert getattr(item, "__doc__", None), (
                f"{module_name}: {item!r} lacks a docstring"
            )

    def test_docs_directory_complete(self):
        for name in ("adaptive.md", "architecture.md", "durability.md",
                     "mal_reference.md", "trace_format.md",
                     "metrics_reference.md", "operations.md",
                     "streaming.md"):
            assert os.path.exists(os.path.join(DOCS_DIR, name))


class TestProseMatchesCode:
    """The docs-consistency gate: names in prose must exist in code."""

    MODULE_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
    CLI_COMMAND = re.compile(r"python -m repro ([a-z][\w-]*)")
    METRIC_NAME = re.compile(r"\brepro_[a-z0-9_]+\b")
    MD_LINK = re.compile(r"\[[^\]]+\]\(([^)]+)\)")
    FILE_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:md|py))`")

    @staticmethod
    def _resolvable(dotted):
        """True if ``repro.a.b.c`` is a module, or a module plus an
        attribute chain (``repro.metrics.REGISTRY.reset``)."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        return False

    def test_module_paths_exist(self):
        broken = []
        for path, text in _doc_texts().items():
            for dotted in set(self.MODULE_PATH.findall(text)):
                if not self._resolvable(dotted):
                    broken.append(f"{os.path.basename(path)}: `{dotted}`")
        assert not broken, f"docs mention unknown module paths: {broken}"

    def test_cli_subcommands_exist(self):
        from repro.cli import _COMMANDS

        broken = []
        for path, text in _doc_texts().items():
            for command in set(self.CLI_COMMAND.findall(text)):
                if command not in _COMMANDS:
                    broken.append(f"{os.path.basename(path)}: {command}")
        assert not broken, f"docs mention unknown CLI subcommands: {broken}"

    def test_metric_names_match_registry(self):
        import repro.metrics as metrics

        families = set(metrics.snapshot())
        suffixes = ("_bucket", "_sum", "_count")

        def normalize(name):
            for suffix in suffixes:
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    return name[: -len(suffix)]
            return name

        mentioned = set()
        for path, text in _doc_texts().items():
            for name in self.METRIC_NAME.findall(text):
                name = normalize(name)
                assert name in families, (
                    f"{os.path.basename(path)} mentions unregistered "
                    f"metric {name}"
                )
                mentioned.add(name)
        undocumented = families - mentioned
        assert not undocumented, (
            f"registered families missing from docs: {sorted(undocumented)}"
        )

    def test_no_dead_intra_repo_links(self):
        broken = []
        for path, text in _doc_texts().items():
            base = os.path.dirname(path)
            for target in self.MD_LINK.findall(text):
                if target.startswith(("http://", "https://", "#")):
                    continue
                resolved = os.path.join(base, target.split("#")[0])
                if not os.path.exists(resolved):
                    broken.append(f"{os.path.basename(path)} -> {target}")
        assert not broken, f"dead links: {broken}"

    HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

    @classmethod
    def _anchors(cls, text):
        """GitHub-style anchor slugs for every heading in a doc."""
        slugs = set()
        for heading in cls.HEADING.findall(text):
            slug = re.sub(r"[^\w\- ]", "", heading.strip().lower())
            slugs.add(slug.replace(" ", "-"))
        return slugs

    def test_no_dead_anchors(self):
        """Every ``#fragment`` in an intra-repo link names a heading."""
        texts = _doc_texts()
        broken = []
        for path, text in texts.items():
            base = os.path.dirname(path)
            for target in self.MD_LINK.findall(text):
                if target.startswith(("http://", "https://")):
                    continue
                if "#" not in target:
                    continue
                file_part, fragment = target.split("#", 1)
                resolved = path if not file_part \
                    else os.path.join(base, file_part)
                resolved = os.path.normpath(resolved)
                if resolved not in texts:
                    continue  # dead files are the link test's job
                if fragment not in self._anchors(texts[resolved]):
                    broken.append(f"{os.path.basename(path)} -> "
                                  f"{target}")
        assert not broken, f"dead anchors: {broken}"

    def test_streaming_doc_covers_every_verb(self):
        """docs/streaming.md documents each protocol verb, and its verb
        table names nothing the dispatcher does not accept."""
        from repro.server.protocol import VERBS

        text = open(os.path.join(DOCS_DIR, "streaming.md")).read()
        missing = [verb for verb in VERBS if f"`{verb}`" not in text]
        assert not missing, (
            f"streaming.md does not document verbs: {missing}")
        # table rows whose first cell is a single backticked word must
        # name real verbs or error codes — no phantom protocol surface
        from repro.server.protocol import ERROR_CODES

        known = set(VERBS) | set(ERROR_CODES)
        phantom = [cell for cell in
                   re.findall(r"^\| `([a-z-]+)` \|", text, re.MULTILINE)
                   if cell not in known]
        assert not phantom, (
            f"streaming.md tables name unknown verbs/codes: {phantom}")

    def test_streaming_doc_covers_every_error_code(self):
        from repro.server.protocol import ERROR_CODES

        text = open(os.path.join(DOCS_DIR, "streaming.md")).read()
        missing = [code for code in ERROR_CODES
                   if f"`{code}`" not in text]
        assert not missing, (
            f"streaming.md does not document error codes: {missing}")

    def test_backtick_file_paths_exist(self):
        roots = (REPO_ROOT, DOCS_DIR, os.path.join(REPO_ROOT, "src/repro"))
        broken = []
        for path, text in _doc_texts().items():
            for target in set(self.FILE_PATH.findall(text)):
                if not any(os.path.exists(os.path.join(root, target))
                           for root in roots):
                    broken.append(f"{os.path.basename(path)}: {target}")
        assert not broken, f"docs mention missing files: {broken}"


class TestNoPickleInSrc:
    def test_no_source_file_mentions_pickle(self):
        """ROADMAP item 3's done-when, kept true: column and WAL bytes
        are JSON, so nothing under ``src/`` imports (or names) the
        module — ``grep -rn pickle src/`` prints nothing."""
        pattern = os.path.join(REPO_ROOT, "src", "**", "*.py")
        offenders = [os.path.relpath(path, REPO_ROOT)
                     for path in glob.glob(pattern, recursive=True)
                     if "pickle" in open(path).read()]
        assert not offenders, f"pickle is back in: {offenders}"


class TestRegressionGateDocs:
    """The one gate (``benchmarks/check_regression.py``) and the places
    that tell a reader to run it name the same experiments."""

    ONLY = re.compile(r"--only[ =](e\d+)")
    #: everything that spells a ``check_regression.py`` command line
    CALLERS = ("EXPERIMENTS.md", ".github/workflows/ci.yml",
               ".claude/skills/verify/SKILL.md", "benchmarks/e2e/README.md")

    @staticmethod
    def _experiments():
        import sys

        sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
        import check_regression

        return {row.experiment for row in check_regression.GATE}

    def test_every_gated_experiment_has_an_experiments_heading(self):
        text = open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")).read()
        headings = set(re.findall(r"^## (E\d+) ", text, re.MULTILINE))
        missing = sorted(name for name in self._experiments()
                         if name.upper() not in headings)
        assert not missing, f"EXPERIMENTS.md has no section for {missing}"

    def test_every_only_flag_names_an_experiment_in_the_table(self):
        paths = _doc_files() + [os.path.join(REPO_ROOT, name)
                                for name in self.CALLERS]
        experiments = self._experiments()
        written = {(os.path.relpath(path, REPO_ROOT), name)
                   for path in paths
                   for name in self.ONLY.findall(open(path).read())}
        assert {name for _, name in written} >= experiments - {"e9"}, (
            "the pattern no longer finds the gate's command lines")
        unknown = sorted(pair for pair in written
                         if pair[1] not in experiments)
        assert not unknown, f"--only names no row of the gate table: {unknown}"

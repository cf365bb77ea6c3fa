"""Deterministic fault plans and the global arming point.

A :class:`FaultPlan` is a seeded description of *what should go wrong*:
per injection site, an ordered list of rules, each firing with a given
probability from a PRNG seeded by ``f"{seed}/{site}"``.  String seeding
makes decisions stable across processes (no ``PYTHONHASHSEED``
dependence), so a failing chaos run replays exactly by re-running with
the same seed and spec.

Sites and their actions:

=====================  =============================================
site                   actions
=====================  =============================================
``udp.emit``           ``drop``, ``dup``, ``reorder``, ``truncate``
``server.loop``        ``latency`` (ms), ``reset``
``scheduler.worker``   ``stall`` (usec), ``crash``
``persist.wal``        ``torn-write``, ``fsync-loss``, ``latency`` (ms)
``persist.checkpoint`` ``partial-manifest``, ``crash-before-rename``
``persist.recover``    ``corrupt-record``
``repl.stream``        ``drop``, ``latency`` (ms), ``partition`` (ms)
``repl.promote``       ``crash``
=====================  =============================================

Plans are *armed* globally through the module-level :data:`ACTIVE`
holder.  Hot paths check ``ACTIVE.plan is None`` — one attribute load
and an identity test — so the disarmed harness costs essentially
nothing (benchmarked in E8).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FaultSpecError
from repro.metrics.families import FAULT_INJECTIONS

#: Every valid injection site and the actions it understands.
SITES: Dict[str, Tuple[str, ...]] = {
    "udp.emit": ("drop", "dup", "reorder", "truncate"),
    "server.loop": ("latency", "reset"),
    "scheduler.worker": ("stall", "crash"),
    "persist.wal": ("torn-write", "fsync-loss", "latency"),
    "persist.checkpoint": ("partial-manifest", "crash-before-rename"),
    "persist.recover": ("corrupt-record",),
    "repl.stream": ("drop", "latency", "partition"),
    "repl.promote": ("crash",),
}


@dataclass(frozen=True)
class FaultDecision:
    """One fired fault: which site, which action, with which value."""

    site: str
    action: str
    value: Optional[float] = None


@dataclass
class FaultRule:
    """One clause of a plan: fire ``action`` with ``probability``.

    ``value`` is action-specific (latency in ms, stall in usec,
    truncate in bytes); ``limit`` caps the total number of fires.
    """

    action: str
    probability: float = 1.0
    value: Optional[float] = None
    limit: Optional[int] = None
    fires: int = 0

    def exhausted(self) -> bool:
        return self.limit is not None and self.fires >= self.limit


class FaultPlan:
    """A seeded, replayable set of fault rules keyed by injection site.

    Every decision draws from a per-site ``random.Random`` seeded with
    ``f"{seed}/{site}"``; given the same seed, spec, and sequence of
    :meth:`decide` calls per site, the same decisions fire in the same
    order.  Fired decisions are appended to :attr:`journal` so tests can
    assert byte-identical replays.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rules: Dict[str, List[FaultRule]] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._lock = threading.Lock()
        #: (site, action, detail) for every decision that fired.
        self.journal: List[Tuple[str, str, str]] = []

    # -- construction ---------------------------------------------------

    def on(self, site: str, action: str, probability: float = 1.0,
           value: Optional[float] = None,
           limit: Optional[int] = None) -> "FaultPlan":
        """Add a rule; returns ``self`` for chaining."""
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; known sites: "
                f"{', '.join(sorted(SITES))}")
        if action not in SITES[site]:
            raise FaultSpecError(
                f"site {site!r} has no action {action!r}; valid: "
                f"{', '.join(SITES[site])}")
        if not (0.0 <= probability <= 1.0):
            raise FaultSpecError(
                f"probability must be in [0, 1], got {probability!r}")
        if limit is not None and limit < 0:
            raise FaultSpecError(f"limit must be >= 0, got {limit!r}")
        self._rules.setdefault(site, []).append(
            FaultRule(action=action, probability=probability,
                      value=value, limit=limit))
        if site not in self._rngs:
            self._rngs[site] = random.Random(f"{self.seed}/{site}")
        return self

    @classmethod
    def from_config(cls, config: Dict) -> "FaultPlan":
        """Build a plan from a config dict.

        Shape: ``{"seed": 7, "sites": {"udp.emit": [{"action": "drop",
        "p": 0.1}, ...], ...}}``.  ``p`` defaults to 1.0; ``value`` and
        ``limit`` are optional per rule.
        """
        if not isinstance(config, dict):
            raise FaultSpecError("fault config must be a dict")
        unknown = set(config) - {"seed", "sites"}
        if unknown:
            raise FaultSpecError(
                f"unknown fault config keys: {', '.join(sorted(unknown))}")
        try:
            seed = int(config.get("seed", 0))
        except (TypeError, ValueError):
            raise FaultSpecError(
                f"seed must be an integer, got {config.get('seed')!r}")
        plan = cls(seed=seed)
        sites = config.get("sites", {})
        if not isinstance(sites, dict):
            raise FaultSpecError("'sites' must be a dict of site -> rules")
        for site, rules in sites.items():
            if not isinstance(rules, (list, tuple)):
                raise FaultSpecError(
                    f"rules for site {site!r} must be a list")
            for rule in rules:
                if not isinstance(rule, dict) or "action" not in rule:
                    raise FaultSpecError(
                        f"each rule for {site!r} needs an 'action' key")
                plan.on(site, rule["action"],
                        probability=float(rule.get("p", 1.0)),
                        value=rule.get("value"),
                        limit=rule.get("limit"))
        return plan

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI spec string into a plan.

        Grammar: ``clause(";"clause)*`` where each clause is
        ``site ":" action ["=" value] ["@" probability] ["#" limit]``,
        e.g. ``udp.emit:drop@0.1;server.loop:latency=25@0.3`` or
        ``scheduler.worker:crash#1``.
        """
        plan = cls(seed=seed)
        if not isinstance(spec, str) or not spec.strip():
            raise FaultSpecError("empty fault spec")
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if ":" not in clause:
                raise FaultSpecError(
                    f"bad fault clause {clause!r}: expected site:action")
            site, rest = clause.split(":", 1)
            probability, limit, value = 1.0, None, None
            if "#" in rest:
                rest, raw = rest.rsplit("#", 1)
                try:
                    limit = int(raw)
                except ValueError:
                    raise FaultSpecError(
                        f"bad limit {raw!r} in clause {clause!r}")
            if "@" in rest:
                rest, raw = rest.rsplit("@", 1)
                try:
                    probability = float(raw)
                except ValueError:
                    raise FaultSpecError(
                        f"bad probability {raw!r} in clause {clause!r}")
            if "=" in rest:
                rest, raw = rest.split("=", 1)
                try:
                    value = float(raw)
                except ValueError:
                    raise FaultSpecError(
                        f"bad value {raw!r} in clause {clause!r}")
            plan.on(site.strip(), rest.strip(), probability=probability,
                    value=value, limit=limit)
        if not plan._rules:
            raise FaultSpecError(f"fault spec {spec!r} has no clauses")
        return plan

    # -- decisions ------------------------------------------------------

    def decide(self, site: str, detail: str = "") -> Optional[FaultDecision]:
        """Roll the site's PRNG against its rules; return what fired.

        Rules are consulted in declaration order; the first that fires
        wins.  Exhausted (limit-reached) rules still consume a PRNG
        draw so replays stay aligned.  Returns ``None`` when nothing
        fires (including for sites the plan has no rules for — but then
        no PRNG draw happens, keeping unrelated sites independent).
        """
        rules = self._rules.get(site)
        if not rules:
            return None
        with self._lock:
            rng = self._rngs[site]
            for rule in rules:
                roll = rng.random()
                if rule.exhausted():
                    continue
                if roll < rule.probability:
                    rule.fires += 1
                    self.journal.append((site, rule.action, detail))
                    FAULT_INJECTIONS.labels(
                        site=site, action=rule.action).inc()
                    return FaultDecision(site=site, action=rule.action,
                                         value=rule.value)
        return None

    def fires(self, site: str, action: str) -> int:
        """Total fires recorded for (site, action)."""
        with self._lock:
            return sum(rule.fires for rule in self._rules.get(site, ())
                       if rule.action == action)

    # -- introspection --------------------------------------------------

    def signature(self) -> str:
        """A stable one-line description (seed + rules), for reports."""
        clauses = []
        for site in sorted(self._rules):
            for rule in self._rules[site]:
                clause = f"{site}:{rule.action}"
                if rule.value is not None:
                    clause += f"={rule.value:g}"
                if rule.probability != 1.0:
                    clause += f"@{rule.probability:g}"
                if rule.limit is not None:
                    clause += f"#{rule.limit}"
                clauses.append(clause)
        return f"seed={self.seed} {';'.join(clauses)}"

    def describe(self) -> str:
        """Multi-line human-readable summary including fire counts."""
        lines = [f"FaultPlan(seed={self.seed})"]
        for site in sorted(self._rules):
            for rule in self._rules[site]:
                lines.append(
                    f"  {site}:{rule.action} p={rule.probability:g}"
                    + (f" value={rule.value:g}" if rule.value is not None
                       else "")
                    + (f" limit={rule.limit}" if rule.limit is not None
                       else "")
                    + f" fired={rule.fires}")
        return "\n".join(lines)


class _ActiveHolder:
    """Mutable holder for the armed plan.

    Hot paths do ``ACTIVE.plan`` (not ``from ... import plan``) so
    arming is visible everywhere without rebinding module globals.
    """

    __slots__ = ("plan",)

    def __init__(self) -> None:
        self.plan: Optional[FaultPlan] = None


#: The single global arming point; ``ACTIVE.plan is None`` == disarmed.
ACTIVE = _ActiveHolder()


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` globally; returns it for convenience."""
    ACTIVE.plan = plan
    return plan


def disarm() -> None:
    """Disarm whatever plan is active."""
    ACTIVE.plan = None


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager arming ``plan`` for the block, then disarming."""
    previous = ACTIVE.plan
    ACTIVE.plan = plan
    try:
        yield plan
    finally:
        ACTIVE.plan = previous

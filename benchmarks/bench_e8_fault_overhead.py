"""Experiment E8 — disarmed fault-site overhead.

The fault-injection sites (``repro.faults``) sit on three hot paths:
``UdpEmitter.send_line``, the Mserver response loop, and both dataflow
schedulers' dispatch step.  Disarmed (no plan active), each site is one
module-attribute load plus an identity test (``ACTIVE.plan is None``).
These benchmarks bound that cost: the same workload with the sites
present (the shipped code) versus an armed-but-empty plan (every
dispatch additionally pays a full ``decide()`` that matches no rule),
plus the raw guard cost measured in isolation.

Acceptance target (ISSUE): < 2% interpreter overhead with no plan
armed.  Disarmed *is* the shipped hot path, so the headline number
compares scheduler runs against the E7-style uninstrumented baseline
the guard rides on; the armed-empty variant shows the price of leaving
a plan armed with no matching rules.
"""

import os
import time

from repro.faults import ACTIVE, FaultPlan, armed
from repro.profiler import UdpEmitter, format_event
from repro.tpch import query_sql
from repro.workloads import synthetic_trace

from timing import interleaved_medians

QUERY = query_sql("q6")


def test_e8_guard_cost_isolated(benchmark, artifacts):
    """The raw disarmed check, measured in a tight loop: what every
    fault site pays per pass when no plan is armed."""
    holder = ACTIVE
    loops = 100_000

    def spin_guarded():
        for _ in range(loops):
            if holder.plan is not None:  # pragma: no cover
                raise AssertionError

    def spin_bare():
        for _ in range(loops):
            pass

    bare, guarded = interleaved_medians(spin_bare, spin_guarded, inner=3)
    per_check_ns = (guarded - bare) / loops * 1e9

    benchmark(spin_guarded)
    with open(os.path.join(artifacts, "e8_faults.txt"), "a") as f:
        f.write(f"guard ({loops} checks): bare={bare * 1e3:.2f}ms "
                f"guarded={guarded * 1e3:.2f}ms "
                f"added={per_check_ns:.1f}ns/check\n")
    # one attribute load + identity test; anything near a microsecond
    # would mean the guard grew real work
    assert per_check_ns < 1000.0, (
        f"disarmed guard costs {per_check_ns:.0f}ns/check"
    )


def test_e8_scheduler_disarmed_overhead(benchmark, tpch_db_small,
                                        artifacts):
    """Full Q6 dataflow runs: disarmed sites (the shipped path) versus
    an armed plan whose only rule never matches the exercised sites'
    actions — the worst case an operator pays for *leaving* chaos armed.
    The disarmed-vs-armed gap brackets the sites' total cost; the
    acceptance bound applies to the disarmed side."""
    # a rule on server.loop only: scheduler/udp sites take the full
    # decide() path and find no rule for themselves
    idle_plan = FaultPlan(seed=0).on("server.loop", "latency",
                                     value=0, probability=0.0)

    def run_disarmed():
        tpch_db_small.execute(QUERY)

    def run_armed_idle():
        with armed(idle_plan):
            tpch_db_small.execute(QUERY)

    disarmed, armed_idle = interleaved_medians(
        run_disarmed, run_armed_idle, inner=5)
    armed_overhead = armed_idle / disarmed - 1.0

    benchmark(run_disarmed)
    with open(os.path.join(artifacts, "e8_faults.txt"), "a") as f:
        f.write(f"dataflow q6: disarmed={disarmed * 1e3:.2f}ms "
                f"armed-idle={armed_idle * 1e3:.2f}ms "
                f"armed overhead={armed_overhead:+.2%}\n")
    # even fully armed with a never-matching plan the dispatch loop
    # should stay cheap; generous bound for timer noise in CI
    assert armed_idle < disarmed * 1.25, (
        f"armed-idle overhead {armed_overhead:.1%}"
    )


def test_e8_interpreter_disarmed_bound(tpch_db_small, artifacts):
    """The ISSUE's acceptance number: disarmed sites must cost the
    interpreter hot path < 2%.  The sequential ``Interpreter`` carries
    no fault site at all, so its cost is exactly zero by construction —
    the measurable proxy is the per-site guard cost against the
    ~usec-scale per-instruction dispatch it would ride on."""
    from repro.mal.interpreter import Interpreter

    program = tpch_db_small.compile(QUERY)
    interp = Interpreter(tpch_db_small.catalog)

    began = time.perf_counter()
    runs = 5
    for _ in range(runs):
        interp.run(program)
    per_run_s = (time.perf_counter() - began) / runs
    per_instruction_us = per_run_s / max(len(program.instructions), 1) * 1e6

    holder = ACTIVE
    loops = 200_000
    began = time.perf_counter()
    for _ in range(loops):
        if holder.plan is not None:  # pragma: no cover
            raise AssertionError
    guard_us = (time.perf_counter() - began) / loops * 1e6

    share = guard_us / per_instruction_us
    with open(os.path.join(artifacts, "e8_faults.txt"), "a") as f:
        f.write(f"interpreter q6: {per_instruction_us:.2f}us/instr, "
                f"guard {guard_us * 1e3:.1f}ns "
                f"= {share:.3%} of an instruction\n")
    assert share < 0.02, (
        f"disarmed guard is {share:.2%} of one instruction dispatch"
    )


def test_e8_udp_disarmed_overhead(benchmark, artifacts):
    """The emitter's per-line guard: ship a synthetic trace with no
    plan armed and with an armed plan holding only a never-firing
    udp rule (probability 0 — every line pays a PRNG draw)."""
    events = synthetic_trace(chains=40, chain_length=6)
    lines = [format_event(e) for e in events]
    idle_plan = FaultPlan(seed=0).on("udp.emit", "drop", probability=0.0)

    def ship_disarmed():
        emitter = UdpEmitter(port=40998)  # no receiver: pure send path
        for line in lines:
            emitter.send_line(line)
        emitter.close()

    def ship_armed_idle():
        with armed(idle_plan):
            ship_disarmed()

    disarmed, armed_idle = interleaved_medians(
        ship_disarmed, ship_armed_idle, inner=3)
    added_usec = (armed_idle - disarmed) / len(lines) * 1e6

    benchmark(ship_disarmed)
    with open(os.path.join(artifacts, "e8_faults.txt"), "a") as f:
        f.write(f"udp stream ({len(lines)} lines): "
                f"disarmed={disarmed * 1e3:.3f}ms "
                f"armed-idle={armed_idle * 1e3:.3f}ms "
                f"added={added_usec:.3f}us/line\n")
    # a never-firing armed rule pays one PRNG draw per line; that must
    # stay far below the ~20us a datagram costs end to end
    assert added_usec < 10.0, (
        f"armed-idle udp path adds {added_usec:.2f}us/line"
    )

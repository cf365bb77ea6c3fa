"""The reference loop: how fast is this core right now?

The box this benchmark was built on changes speed in episodes of
seconds, core by core (README.md, "Steadiness"): neighbours contend for
the cache and memory, and the same interpreted work takes a third longer
in one stretch than in the next.  :func:`spin` times a fixed piece of
work that is none of the program's code but is shaped like it: select,
gather, grouped sum and sort over 20 000-element Python lists, then
12 000 reads at random positions of a 200 000-element list (8 MB of
objects, so most of them miss the cache).

Why this mix: timed beside TPC-H queries, ad-hoc statements and the
offline replay for six noisy minutes, a pure arithmetic loop felt only
part of the slowdown, the kernels alone slowed in proportion to the work
but left a tenth of spread, and kernels plus random reads in the ratio
7:3 fitted all three kinds of work (least squares gave 66:34, 73:27 and
69:31) and left 4.5-9 % where there had been 19-29 %.

The harness runs it in its own process, which shares one core with the
process under test (``harness.pin_to_one_core``), while that process is
idle.
"""

import random
import time

ROWS = 20_000
HEAP = 200_000
READS = 12_000

_rng = random.Random(1)
_KEYS = [_rng.randrange(1000) for _ in range(ROWS)]
_VALUES = [_rng.random() * 100 for _ in range(ROWS)]
_GROUPS = [_rng.randrange(32) for _ in range(ROWS)]
_HEAP = [_rng.random() for _ in range(HEAP)]
_POSITIONS = [_rng.randrange(HEAP) for _ in range(READS)]


def spin() -> int:
    """Nanoseconds the fixed work took."""
    began = time.perf_counter_ns()
    chosen = [i for i, key in enumerate(_KEYS) if 100 <= key <= 899]
    values = [_VALUES[i] for i in chosen]
    sums = {}
    for i in chosen:
        group = _GROUPS[i]
        sums[group] = sums.get(group, 0.0) + _VALUES[i]
    sorted(range(len(values)), key=values.__getitem__)
    heap = _HEAP
    [heap[i] * 2.0 for i in _POSITIONS]
    return time.perf_counter_ns() - began

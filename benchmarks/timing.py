"""The one wall-clock timer the E7-E9 races share."""

import time


def interleaved_medians(*runs, repeat=9, inner=10):
    """Median seconds-per-call of each of ``runs``, sampled interleaved
    (a, b, a, b, ...) so drifting machine load hits every side equally,
    with ``inner`` calls per timing sample so that one stall (a
    collection, a neighbour's burst) is spread over several calls
    instead of deciding a sample."""
    samples = [[] for _ in runs]
    for _ in range(repeat):
        for run, taken in zip(runs, samples):
            began = time.perf_counter()
            for _ in range(inner):
                run()
            taken.append((time.perf_counter() - began) / inner)
    return [sorted(taken)[repeat // 2] for taken in samples]

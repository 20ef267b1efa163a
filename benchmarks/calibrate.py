"""Reference kernel that measures how fast the host runs right now.

On a shared host the same work can take half as long again from one minute
to the next.  This module holds the two references the benchmark rescales
host time by.  The benchmark times this fixed kernel between operations and
rescales the host times measured in between to a host on which the kernel
takes NOMINAL_S seconds, which cancels most of that drift.  The kernel does
the kind of work the simulator does -- NumPy draws, Python objects, hashing,
sorting -- and does not touch the package under test.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 0.030
WARM_UP = 3

# Set-up time is process start and imports, which the kernel does not
# track.  It is rescaled instead by a reference process that starts the
# interpreter and imports NumPy, the bulk of the package's own import, to a
# host on which that process reaches READY in SPAWN_NOMINAL_S seconds.
SPAWN_NOMINAL_S = 0.100
SPAWN_REFERENCE = ("-c", "import numpy; print('READY', flush=True)")


def _kernel(n: int = 20_000) -> int:
    """Draw 96-bit IDs as two 48-bit halves, join them into Python ints,
    deduplicate, group by a key and sort each group: the same mix of NumPy
    draws, object churn and memory traffic as building a population."""
    rng = np.random.default_rng(12345)
    halves = rng.integers(0, 1 << 48, size=(n, 2), dtype=np.uint64)
    seen: set[int] = set()
    groups: dict[int, list] = {}
    for hi, lo in halves.tolist():
        v = (hi << 48) | lo
        if v not in seen:
            seen.add(v)
            groups.setdefault(v % 97, []).append([v, 0])
    ordered = [sorted(g, key=lambda o: o[0]) for g in groups.values()]
    slots = ((halves[:, 1] >> np.uint64(5)) % np.uint64(977)).astype(np.int64)
    return sum(len(g) for g in ordered) + int(np.bincount(slots).max())


def warm_up():
    """Run the kernel a few times untimed: the first runs in a process pay
    for growing the heap, which later runs reuse."""
    for _ in range(WARM_UP):
        _kernel()


def reference_seconds() -> float:
    """Time of one run of the kernel.

    A full collection first empties the young generations, so each run
    starts from the same garbage-collector state whatever the caller did."""
    gc.collect()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def speed_factors(references: list[float]) -> list[float]:
    """Factor for each segment between consecutive kernel runs.

    Segment i lies between references[i] and references[i + 1]; its factor
    uses the median of the kernel times from i - 1 to i + 2, which damps
    the noise of single kernel runs but still follows a host that changes
    speed within a second or two."""
    return [
        NOMINAL_S / statistics.median(references[max(0, i - 1):i + 3])
        for i in range(len(references) - 1)
    ]

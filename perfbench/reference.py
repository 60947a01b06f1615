"""A fixed reference task that gauges how fast the host runs right now.

The benchmark's host is shared, and its speed drifts by tens of percent over
seconds to minutes, for interpreter work and native numpy work alike.  The
benchmark runs this task before and after every timed command and expresses
each command's time as a multiple of the two flanking reference times (see
run.py).  The task does not use torustrace, so no change to the package moves
it: interpreter start-up and ``import numpy`` when run as a script, then a
pure-Python loop, a sort and a dict over a list of small tuples, and small
numpy array work with a dense eigensolve, the kinds of work the torustrace
commands mix.

Usage: python3 perfbench/reference.py
"""

from __future__ import annotations

import numpy as np

LOOP = 50_000
POINTS = 30_000
MATRIX = np.random.default_rng(0).standard_normal((120, 120))


def work() -> float:
    total = 0
    for i in range(LOOP):
        total += i * i
    points = [(i % 211, i // 211) for i in range(POINTS)]
    points.sort(key=lambda p: p[0] * p[0] + p[1] * p[1])
    index = {p: i for i, p in enumerate(points)}
    arr = np.array(points, dtype=np.float64)
    norms = np.sqrt((arr * arr).sum(axis=1))
    return float(total) + len(index) + float(norms.sum()) + float(np.abs(np.linalg.eigvals(MATRIX)).sum())


if __name__ == "__main__":
    work()

"""Fixed pure-Python reference work that measures the host's current speed.

Usage: python3 perfbench/calibrate.py ITERATIONS   (prints its wall time in s)

It uses only the standard library and the operations cobcalc's hot loops use
(tuple keys, dict updates, ``Fraction`` products), so a shared host slows it
down about as much as it slows a job.  It never imports cobcalc, so no change
to the program can move it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter


def reference_work(iterations: int) -> int:
    keys = [(i % 7, i % 11, i % 13) for i in range(200)]
    coeffs = [Fraction(i % 17 + 1, i % 5 + 1) for i in range(200)]
    acc = {}
    for r in range(iterations):
        shift = (r % 3, 1, 0)
        factor = coeffs[r % 200]
        for key, c in zip(keys, coeffs):
            m = tuple(x + y for x, y in zip(key, shift))
            v = acc.get(m)
            p = c * factor
            acc[m] = p if v is None else v + p
    return len(acc)


if __name__ == "__main__":
    start = perf_counter()
    reference_work(int(sys.argv[1]))
    print(perf_counter() - start)

#!/usr/bin/env python3
"""Time the exact routes on the coprime family, the bit-growth worst case.

Law X of size n has the values 1/p over the first n primes and weights
proportional to 1/q over the next n primes, so that every scaled integer is
thousands of bits long.  Y is X shifted by -1/7 with `affine`, and X >=ssd Y
holds, so `check_ssd` scans every level.  For each size the script prints
the time of `normalize` (X from its raw atoms), of `affine` (Y from X) and of
`check_ssd(X, Y)`, each the best of REPEAT runs, and the bit lengths of X's
probability scale D and value scale V.

    python3 scripts/bit_growth.py
"""

import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import affine, check_ssd, normalize

SHIFT = F(-1, 7)
SIZES, REPEAT = (300, 1000, 2000), 3


def primes(k):
    """The first k primes."""
    out, c = [], 2
    while len(out) < k:
        if all(c % p for p in out if p * p <= c):
            out.append(c)
        c += 1
    return out


def best(fn, *args):
    """fn(*args) and its least wall time over REPEAT runs, in ms."""
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append((time.perf_counter() - t0) * 1e3)
    return out, min(times)


def main():
    print(f"{'n':>6} {'normalize ms':>13} {'affine ms':>10} {'check_ssd ms':>13} {'bits D':>7} {'bits V':>7}")
    for n in SIZES:
        ps = primes(2 * n)
        raw = [(F(1, p), F(1, q)) for p, q in zip(ps[:n], ps[n:])]
        x, t_norm = best(normalize, raw)
        y, t_aff = best(affine, x, 1, SHIFT)
        verdict, t_ssd = best(check_ssd, x, y)
        assert verdict.holds
        print(f"{n:>6} {t_norm:>13.0f} {t_aff:>10.0f} {t_ssd:>13.0f} "
              f"{x.ints.D.bit_length():>7} {x.ints.V.bit_length():>7}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the exact routes on the coprime family, the bit-growth worst case.

Law X of size n has the values 1/p over the first n primes and weights
proportional to 1/q over the next n primes, so that every scaled integer is
thousands of bits long.  Y is X shifted by -1/7 with `affine`, and X >=ssd Y
holds, so `check_ssd` scans every level.  For each size the script prints
the time of `normalize` (X from its raw atoms), of `affine` (Y from X) and of
`check_ssd(X, Y)`, each the best of REPEAT runs, and the bit lengths of X's
probability scale D and value scale V.

The joint of the same size n has ANCHORS w values 1/p and n / ANCHORS z
values 1/q over distinct primes, and cell (i, j) the weight 1/(p_i r_j) over
further primes r.  The script times `normalize_joint` on its cells once in
ascending (w, z) order and once shuffled (the merge path), and prints the
bit length of the joint's D.

    python3 scripts/bit_growth.py
"""

import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import affine, check_ssd, normalize, normalize_joint

SHIFT = F(-1, 7)
SIZES, REPEAT = (300, 1000, 2000), 3
ANCHORS = 10


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


def coprime_joint(n):
    """The raw cells of the size-n joint, in ascending (w, z) order."""
    m = n // ANCHORS
    ps = primes(ANCHORS + 2 * m)
    anchors, zs, rs = ps[:ANCHORS], ps[ANCHORS:ANCHORS + m], ps[ANCHORS + m:]
    return sorted((F(1, p), F(1, q), F(1, p * r)) for p in anchors for q, r in zip(zs, rs))


def main():
    print(f"{'n':>6} {'normalize ms':>13} {'affine ms':>10} {'check_ssd ms':>13} {'bits D':>7} {'bits V':>7}"
          f" {'joint asc ms':>13} {'joint shuf ms':>14} {'joint bits D':>13}")
    for n in SIZES:
        ps = primes(2 * n)
        raw = [(F(1, p), F(1, q)) for p, q in zip(ps[:n], ps[n:])]
        x, t_norm = best(normalize, raw)
        y, t_aff = best(affine, x, 1, SHIFT)
        verdict, t_ssd = best(check_ssd, x, y)
        assert verdict.holds
        cells = coprime_joint(n)
        shuffled = random.Random(n).sample(cells, len(cells))
        j, t_asc = best(normalize_joint, cells)
        j_shuf, t_shuf = best(normalize_joint, shuffled)
        assert j_shuf == j and len(j.atoms) == len(cells)
        print(f"{n:>6} {t_norm:>13.0f} {t_aff:>10.0f} {t_ssd:>13.0f} "
              f"{x.ints.D.bit_length():>7} {x.ints.V.bit_length():>7} "
              f"{t_asc:>13.1f} {t_shuf:>14.1f} {j.ints.D.bit_length():>13}")


if __name__ == "__main__":
    main()

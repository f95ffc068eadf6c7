#!/usr/bin/env python3
"""Time coupling synthesis at the cap, the measurement behind the cap.

The support cap of coupling synthesis (`coupling._MAX_SUPPORT`) is
the largest size, in steps of 500, at which every feasible synthesis of laws
of at most that many atoms takes under 1 s, in either mode.  This script
builds four families of pairs with equal means, three seeds each, at sizes
1500, 2000, ..., times `synth_martingale` on each pair and
`synth_supermartingale` on the pair with its second law shifted down by
1/3, and stops after the first size at which some synthesis takes 1 s or
more:

    spreads   random values and weights against pairwise mean-preserving
              spreads of them;
    wide      a narrow law against a wide one, means aligned;
    bimodal   the narrow law against two far clusters, aligned likewise;
    point     a point mass at the mean of the wide law against that law:
              one row spans every merged stretch.

Each feasible line also gives the time of `coupling_to_joint` on the result,
which the `synthesize` command runs after the synthesis; the cap does not
depend on it.

    python3 scripts/support_cap.py
"""

import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import (
    affine,
    coupling,
    coupling_to_joint,
    mean,
    normalize,
    synth_martingale,
    synth_supermartingale,
)

SHIFT = F(1, 3)
START, STEP, SEEDS = 1500, 500, (1, 2, 3)


def spreads(rng, n):
    values = sorted(F(v, 3) for v in rng.sample(range(-20 * n, 20 * n), n))
    probs = [F(rng.randint(1, 59), 60) for _ in values]
    x = normalize(zip(values, probs))
    y = []
    for k in range(0, n - 1, 2):  # the pair (a, p), (b, q) -> (a - d/p, p), (b + d/q, q)
        (a, p), (b, q) = x.atoms[k], x.atoms[k + 1]
        d = F(rng.randint(1, 60), 7) * p * q
        y += [(a - d / p, p), (b + d / q, q)]
    y += x.atoms[n - n % 2:]
    return x, normalize(y)


def _narrow(rng, n):
    return normalize((F(k, n) - F(1, 2), F(rng.randint(1, 59), 60)) for k in range(n))


def _aligned(x, y):
    return affine(y, 1, mean(x) - mean(y))


def _wide(rng, n):
    values = rng.sample(range(-100 * n, 100 * n), n)
    return normalize((F(v, 4 * n), F(rng.randint(1, 59), 60)) for v in values)


def wide(rng, n):
    x = _narrow(rng, n)
    return x, _aligned(x, _wide(rng, n))


def bimodal(rng, n):
    x = _narrow(rng, n)
    values = rng.sample(range(-n, n), n)
    y = normalize((F(v, 4 * n) + (10 if v > 0 else -10), F(rng.randint(1, 59), 60))
                  for v in values)
    return x, _aligned(x, y)


def point(rng, n):
    y = _wide(rng, n)
    x = normalize([(mean(y), 1)])
    return x, _aligned(x, y)


FAMILIES = {"spreads": spreads, "wide": wide, "bimodal": bimodal, "point": point}


def main() -> None:
    coupling._MAX_SUPPORT = 10**9  # the cap under test is lifted
    n, worst = START, 0.0
    while worst < 1.0:
        worst = 0.0
        for name, family in FAMILIES.items():
            for seed in SEEDS:
                x, y = family(random.Random(seed), n)
                for synth, ys in ((synth_martingale, y),
                                  (synth_supermartingale, affine(y, 1, -SHIFT))):
                    start = time.perf_counter()
                    res = synth(x, ys)
                    elapsed = time.perf_counter() - start
                    line = (f"n={n} {name} seed={seed} {synth.__name__} {len(x.atoms)}x{len(ys.atoms)} "
                            f"feasible={res.feasible} {elapsed:.3f} s")
                    if res.feasible:
                        worst = max(worst, elapsed)
                        start = time.perf_counter()
                        coupling_to_joint(res.coupling)
                        line += f", coupling_to_joint {time.perf_counter() - start:.3f} s"
                    print(line, flush=True)
        print(f"n={n}: slowest feasible synthesis {worst:.3f} s", flush=True)
        n += STEP


if __name__ == "__main__":
    main()

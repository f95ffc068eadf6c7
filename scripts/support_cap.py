#!/usr/bin/env python3
"""Time the `synthesize` command at the cap, the measurement behind the cap.

The support cap of coupling synthesis (`coupling._MAX_SUPPORT`) is
the largest size, in steps of 500, at which every feasible `synthesize`
command on laws of at most that many atoms takes under 1 s of in-process
work, in either mode: reading and parsing both laws' JSON files, the
synthesis with its recheck, and building and serializing the report.  This
script builds four families of pairs with equal means, three seeds each, at
sizes 1500, 2000, ..., runs `stochorder.cli.main` three times on each pair
with `--mode cx` and on the pair with its second law shifted down by 1/3
with `--mode ssd`, takes the median of each command's three times (one slow
phase of a shared machine then moves no command), and stops after the first
size at which some feasible command's median is 1 s or more:

    spreads   random values and weights against pairwise mean-preserving
              spreads of them;
    wide      a narrow law against a wide one, means aligned;
    bimodal   the narrow law against two far clusters, aligned likewise;
    point     a point mass at the mean of the wide law against that law:
              one row spans every merged stretch.

One line per command with its three times and their median, then the
slowest feasible median per size.  The interpreter's start and the import of
the package are not counted.

    python3 scripts/support_cap.py
"""

import contextlib
import io
import json
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import affine, cli, coupling, dist_to_json, mean, normalize

SHIFT = F(1, 3)
START, STEP, SEEDS, REPEATS = 1500, 500, (1, 2, 3), 3


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


def _command(mode, x, y, folder):
    """The feasibility and in-process seconds of `synthesize --mode mode` on
    the laws x and y, written to JSON files in folder first."""
    paths = []
    for name, d in (("x.json", x), ("y.json", y)):
        path = Path(folder) / name
        path.write_text(json.dumps(dist_to_json(d)))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["synthesize", "--mode", mode, *paths])
        elapsed = time.perf_counter() - start
    if code not in (0, 1):
        raise SystemExit(f"synthesize --mode {mode} exited {code}")
    return json.loads(out.getvalue())["result"]["feasible"], elapsed


def measure(n: int) -> float:
    """Print one line per command on every family's pairs at n atoms, and
    return the slowest feasible command's median seconds."""
    worst = 0.0
    with tempfile.TemporaryDirectory() as folder:
        for name, family in FAMILIES.items():
            for seed in SEEDS:
                x, y = family(random.Random(seed), n)
                for mode, ys in (("cx", y), ("ssd", affine(y, 1, -SHIFT))):
                    runs = [_command(mode, x, ys, folder) for _ in range(REPEATS)]
                    feasible, times = runs[0][0], [elapsed for _, elapsed in runs]
                    median = statistics.median(times)
                    if feasible:
                        worst = max(worst, median)
                    print(f"n={n} {name} seed={seed} {mode} {len(x.atoms)}x{len(ys.atoms)} "
                          f"runs {' '.join(f'{t:.3f}' for t in times)} "
                          f"feasible={feasible} command {median:.3f} s", flush=True)
    return worst


def main() -> None:
    coupling._MAX_SUPPORT = 10**9  # the cap under test is lifted
    n, worst = START, 0.0
    while worst < 1.0:
        worst = measure(n)
        print(f"n={n}: slowest feasible median {worst:.3f} s", flush=True)
        n += STEP


if __name__ == "__main__":
    main()

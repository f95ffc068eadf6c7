"""Seeded benchmark inputs whose verdicts are known by construction.

Everything here is the benchmark's own code: it never imports stochorder
(and in particular not stochorder.gen), so an edit to the library cannot
change the workloads.  A generator takes a random.Random built from the
run's seed and returns plain data: raw (value, weight) atoms for laws and
raw (w, z, weight) cells for joints, with Fraction values and positive
Fraction or int weights that the library normalizes itself.

Order pairs (except the holding cx pairs, whose Y splits every atom of X)
share one probability vector, so the merged level grid has one level per
atom and a holding pair scans all of it.  Each "late" pair fails
only at the last level or threshold the decider can fail at; the docstring
of each pair function says where, and perfbench/test_perfbench.py checks the
claim against the library's oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

HALF = F(1, 2)


def _halves(rng: random.Random, n: int) -> list[int]:
    """2x the values of n increasing half-integers with random gaps."""
    k = rng.randint(-4 * n, 0)
    out = []
    for gap in rng.randbytes(n):
        out.append(k)
        k += 1 + gap % 4
    return out


def _law(rng: random.Random, n: int) -> tuple[list[F], list[int]]:
    """n increasing half-integer values and int weights."""
    return [F(k, 2) for k in _halves(rng, n)], _weight_block(rng, n, n)[0]


def _probs(weights: list) -> list[F]:
    total = sum(weights)
    return [F(w, total) for w in weights]


def _shifted(rng: random.Random, n: int):
    """A law X, the law X - d on the same weights, and d."""
    ks, ws = _halves(rng, n), _weight_block(rng, n, n)[0]
    dk = rng.randint(1, 4)
    xs = [F(k, 2) for k in ks]
    ys = [F(k - dk, 2) for k in ks]
    return xs, ys, ws, F(dk, 2)


def _top(ws: list[int]) -> tuple[F, F]:
    """Probabilities of the two largest atoms."""
    total = sum(ws)
    return F(ws[-2], total), F(ws[-1], total)


# ---------------------------------------------------------------------------
# Order pairs (X, Y) as raw atoms, plus the only failing point of a late pair
# ---------------------------------------------------------------------------


def ssd_pair(rng: random.Random, n: int, late: bool):
    """X >=ssd Y.  Holding: Y = X - d.  Late: Y = X - d with the top atom
    raised so that E[Y] = E[X] + 1/2; the integrated lower quantiles then
    cross only at level 1, and E[min(., t)] only at the largest atom."""
    xs, ys, ws, d = _shifted(rng, n)
    if late:
        ys[-1] = xs[-1] - d + (d + HALF) / _top(ws)[1]
    return list(zip(xs, ws)), list(zip(ys, ws)), (F(1) if late else None)


def icx_pair(rng: random.Random, n: int, late: bool):
    """X >=icx Y.  Holding: Y = X - d.  Late: Y = X - d except the top atom,
    raised to x_n + e with e = d p_{n-1} / (2 p_n); ES_p then fails only at
    the last level below 1, p = 1 - p_n."""
    xs, ys, ws, d = _shifted(rng, n)
    where = None
    if late:
        p1, p2 = _top(ws)
        ys[-1] = xs[-1] + d * p1 / (2 * p2)
        where = 1 - p2
    return list(zip(xs, ws)), list(zip(ys, ws)), where


def cx_pair(rng: random.Random, n: int, late: bool):
    """X <=cx Y.  Holding: every atom of X split into x -/+ s with half its
    weight (a martingale spread).  Late: equal means, with the integrated
    lower quantiles ordered at every level except 1 - p_n, the last one
    below 1 (at level 1 they are equal)."""
    if not late:
        ks, ws = _halves(rng, n), _weight_block(rng, n, n)[0]
        x, y = [], []
        for k, w, s in zip(ks, ws, rng.randbytes(n)):
            s = 1 + s % 6  # the spread, in quarters
            x.append((F(k, 2), 2 * w))
            y += [(F(2 * k - s, 4), w), (F(2 * k + s, 4), w)]
        return x, y, None
    xs, ys, ws, d = _shifted(rng, n)
    p1, p2 = _top(ws)
    below = 1 - p1 - p2
    a = d * below / p1 + HALF
    e = HALF * p1 / p2
    # widen the top gap of X so that Y stays increasing
    xs[-1] = xs[-2] + a + e + HALF
    ys[-2:] = [xs[-2] + a, xs[-1] - e]
    return list(zip(xs, ws)), list(zip(ys, ws)), 1 - p2


def st_pair(rng: random.Random, n: int, late: bool):
    """X >=st Y.  Holding: Y = X - d.  Late: Y = X - d except y_n = x_n + d;
    the survival functions then cross only at t = x_n, the last threshold
    at which they can differ."""
    xs, ys, ws, d = _shifted(rng, n)
    if late:
        ys[-1] = xs[-1] + d
    return list(zip(xs, ws)), list(zip(ys, ws)), (xs[-1] if late else None)


ORDER_PAIRS = {
    "check_ssd": ssd_pair,
    "oracle_ssd": ssd_pair,
    "check_icx": icx_pair,
    "oracle_icx": icx_pair,
    "check_cx": cx_pair,
    "check_st": st_pair,
}


# ---------------------------------------------------------------------------
# Joint laws with prescribed conditional means of Z given the anchor
# ---------------------------------------------------------------------------


def _rows(rng: random.Random, k: int, m: int):
    """k rows of m weights, each row symmetric so that the z values
    (2j - m + 1) / 4, j < m, have conditional mean exactly 0."""
    rows = []
    for raw in _weight_block(rng, k * ((m + 1) // 2), (m + 1) // 2):
        rows.append(raw + raw[: m // 2][::-1])
    return rows


def _weight_block(rng: random.Random, count: int, width: int):
    """count raw weights in 1..59, cut into lists of `width`."""
    ws = [1 + b % 59 for b in rng.randbytes(count)]
    return [ws[i:i + width] for i in range(0, count, width)]


def _row_targets(cond: str, late: bool, ps: list[F], c: F) -> tuple[list[F], int | None]:
    """Conditional means E[Z | anchor = a_i] that make `cond` hold, or fail
    only late; returns the targets and the index of the failing threshold."""
    k = len(ps)
    if cond in ("cond_new", "cond_on_difference"):
        # E[Z | anchor <= x] <= 0; late: only the whole-space mean is positive
        t = [-c] * k
        if late:
            t[-1] = 2 * c * (1 - ps[-1]) / ps[-1]
            return t, k - 1
        return t, None
    if cond == "cond_classic":
        t = [-c] * k
        if late:
            t[-1] = c
            return t, k - 1
        return t, None
    if cond == "cond_icx":
        # E[Z | anchor >= x] >= 0; late: only the top row alone is negative
        t = [c] * k
        if late:
            t[-1] = -c * ps[-2] / (2 * ps[-1])
            return t, k - 1
        return t, None
    if cond == "cond_cx_pair":
        # E[Z] = 0 and the lower-tail condition; late: the lower tail fails
        # only at the second-to-last threshold (at the last it is E[Z] = 0)
        t = [-c] * k
        if late:
            below = sum(ps[:-2])
            t[-2] = 2 * c * below / ps[-2]
            t[-1] = -c * below / ps[-1]
            return t, k - 2
        t[-1] = c * (1 - ps[-1]) / ps[-1]
        return t, None
    raise ValueError(cond)


def cond_joint(rng: random.Random, cond: str, k: int, m: int, late: bool):
    """Raw cells of a k x m joint for `cond`, and the failing threshold.

    Rows are anchor values a_i = base + i/2.  Each row's z values sit
    symmetrically about 0 and are shifted by the row's target, so that
    E[Z | anchor = a_i] follows _row_targets exactly.  Rows with the same
    target share their Fraction objects, which keeps generation cheap.  For
    cond_on_difference the anchor is V = Y - Z, so cells are (v + z, z).
    """
    rows = _rows(rng, k, m)
    ps = _probs([sum(r) for r in rows])
    c = F(rng.randint(1, 4), 4)
    targets, fail_at = _row_targets(cond, late, ps, c)
    base = F(rng.randint(-k, 0), 2)
    anchors = [base + F(i, 2) for i in range(k)]
    zs: dict[F, list[F]] = {}
    for t in set(targets):
        if (4 * t).denominator == 1:
            zs[t] = [F(int(4 * t) + 2 * j - m + 1, 4) for j in range(m)]
        else:
            zs[t] = [t + F(2 * j - m + 1, 4) for j in range(m)]
    cells = []
    if cond == "cond_on_difference":
        # y = v + z = base + t + (2i + 2j - m + 1) / 4: one Fraction per (t, i + j)
        sums: dict[tuple[int, int], F] = {}
        tid = {t: n for n, t in enumerate(zs)}
        for i, (t, row) in enumerate(zip(targets, rows)):
            for j, (z, w) in enumerate(zip(zs[t], row)):
                key = (tid[t], i + j)
                y = sums.get(key)
                if y is None:
                    y = sums[key] = anchors[i] + z
                cells.append((y, z, w))
    else:
        for a, t, row in zip(anchors, targets, rows):
            cells += zip([a] * m, zs[t], row)
    return cells, (anchors[fail_at] if fail_at is not None else None)


# ---------------------------------------------------------------------------
# Coupling pairs
# ---------------------------------------------------------------------------


def _split_chain(rng: random.Random, atoms: list[tuple[F, F]], splits: int):
    """Chained mean-preserving spreads: split a random atom into two halves
    at v -/+ s, never onto an existing value, `splits` times."""
    atoms = list(atoms)
    for _ in range(splits):
        while True:
            i = rng.randrange(len(atoms))
            v, w = atoms[i]
            s = F(rng.randint(1, 6), 2)
            taken = {a for a, _ in atoms}
            if v - s not in taken and v + s not in taken:
                break
        atoms[i:i + 1] = [(v - s, w / 2), (v + s, w / 2)]
    return sorted(atoms)


SYNTH_CONSTRUCTIONS = ("spread", "shift_down", "shift_up", "contraction")


def synth_pair(rng: random.Random, a: int, b: int, how: str):
    """Laws X with a atoms and Y with b > a atoms, built as `how`:

    spread:      Y = chained mean-preserving spreads of X (X <=cx Y)
    shift_down:  Y = spreads of X - d      (X >=ssd Y, means differ)
    shift_up:    Y = spreads of X + d      (E[Y] > E[X]: no ssd, no cx)
    contraction: E[Y] = E[X] with the range of Y strictly inside that of X
                 (not X <=cx Y, hence not X >=ssd Y either)
    """
    xs, ws = _law(rng, a)
    x = [(v, F(w)) for v, w in zip(xs, ws)]
    if how == "contraction":
        ys, yw = _law(rng, b)
        px, py = _probs(ws), _probs(yw)
        mx = sum(v * p for v, p in zip(xs, px))
        my = sum(v * p for v, p in zip(ys, py))
        room = min(mx - xs[0], xs[-1] - mx)
        reach = max(abs(v - my) for v in ys)
        lam = room / (2 * reach)
        return x, [(mx + lam * (v - my), F(w)) for v, w in zip(ys, yw)]
    d = {"spread": 0, "shift_down": -1, "shift_up": 1}[how] * F(rng.randint(1, 4), 2)
    return x, _split_chain(rng, [(v + d, w) for v, w in x], b - a)


def synth_expected(mode: str, how: str) -> bool:
    """Whether a coupling exists for a pair built as `how`."""
    if mode == "supermartingale":
        return how in ("spread", "shift_down")
    return how == "spread"


# ---------------------------------------------------------------------------
# Small research-sweep joints
# ---------------------------------------------------------------------------


def sweep_joint(rng: random.Random, nonneg_w: bool):
    """Raw cells of a joint of at most 6 x 6 cells, drawn as the criterion-3
    sweep draws them: 2 to 6 values of W (nonnegative when `nonneg_w`) and
    of Z from the half-integers in [-6, 6] ([0, 6] for W), each cell of the
    grid kept with probability 0.6 at weight k/60, k in 1..59, until both
    marginals keep two values.  No verdict is forced."""
    w_lat = [F(k, 2) for k in (range(0, 13) if nonneg_w else range(-6, 7))]
    z_lat = [F(k, 2) for k in range(-6, 7)]
    while True:
        nw, nz = rng.randint(2, 6), rng.randint(2, 6)
        ws, zs = rng.sample(w_lat, nw), rng.sample(z_lat, nz)
        cells = [(w, z, F(rng.randint(1, 59), 60)) for w in ws for z in zs if rng.random() < 0.6]
        if len({c[0] for c in cells}) >= 2 and len({c[1] for c in cells}) >= 2:
            return cells

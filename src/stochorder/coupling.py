"""Coupling synthesis by construction, after an exact order decision.

Given finite marginal laws X (rows) and Y (columns), find a joint law on
support(X) x support(Y) with those marginals such that, writing
Z = Y - W for the coordinate pair (W, Y),

    supermartingale mode:  E[Z | W = w] <= 0 at every atom w   (exists iff X >=ssd Y)
    martingale mode:       E[Z | W = w]  = 0 at every atom w   (exists iff X <=cx Y)

Both existence statements are Strassen's theorem, so check_ssd or check_cx
decides first, exactly, and a failing pair returns that checker's witness
as its certificate.  A holding pair is built directly, with no search.

Both modes end in the left-curtain coupling (Beiglboeck and Juillet, Ann.
Probab. 2016) of a law U <=cx Y with Y.  The atoms (x, a) of U are taken in
ascending order, and each takes its shadow in what is left of Y: the
remaining mass between quantile levels t and t + a whose barycenter is x.
The window's first moment G(t + a) - G(t), with G the integrated quantile of
the remainder, is piecewise linear and nondecreasing in t, so t is solved
for exactly by sliding the window up through the atoms, starting from the
highest t at which it still lies wholly below x.  While U <=cx Y every
window exists: the shadow of a sum of measures exists and is the shadow of
the first part followed by the shadow of the second in what the first left.

U is the intermediate law: with G_X and G_Y the integrated quantiles (the
integrals of Q_X and Q_Y over (0, p)), put h(p) = min over q >= p of
(G_X - G_Y)(q) and G_U = G_X - h.  X >=ssd Y means G_X >= G_Y, so h runs
from h(0) = 0 to h(1) = E[X] - E[Y] (the gap in means), is nondecreasing,
and G_Y <= G_U with equality at p = 1: U <=cx Y.  Where h is flat,
Q_U = Q_X; where h rises it equals G_X - G_Y, so Q_U = Q_Y, and Q_Y <= Q_X
there.  At a level p where a rising stretch begins, G_X - G_Y did not fall
into p, so Q_X <= Q_Y just below p; where one ends, Q_Y <= Q_X.  So Q_U
only steps up where it switches between Q_X and Q_Y, G_U is convex, and
Q_U <= Q_X throughout.  The comonotone coupling of (X, U) moves every atom
weakly down, the left-curtain coupling of (U, Y) adds no drift, and their
composition is a supermartingale coupling of (X, Y); under equal means
h = 0 and U = X, so martingale mode is the same construction.  The ssd walk
names the atoms holding each merged stretch: one pass, at most one cut each.

verify_coupling rechecks every built coupling with plain sums over its
nonzero cells, independent of the construction; a holding order whose
construction cannot place an atom or does not verify raises InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dists import (
    DiscreteDist,
    Dist,
    InputError,
    InternalError,
    JointDist,
    as_discrete,
)
from .orders import Witness, _scale, _walk, check_cx, check_ssd

__all__ = [
    "Coupling",
    "SynthResult",
    "MODE_SUPERMARTINGALE",
    "MODE_MARTINGALE",
    "synth_supermartingale",
    "synth_martingale",
    "verify_coupling",
    "coupling_to_joint",
]

_ZERO = Fraction(0)

MODE_SUPERMARTINGALE = "supermartingale"
MODE_MARTINGALE = "martingale"

_MAX_SUPPORT = 2500  # per-marginal support bound for synthesis


@dataclass(frozen=True)
class Coupling:
    """A joint law over support(X) x support(Y) as its nonzero cells
    (row, column, mass), strictly ascending, with exact rational masses."""

    row_values: tuple[Fraction, ...]
    col_values: tuple[Fraction, ...]
    row_probs: tuple[Fraction, ...]
    col_probs: tuple[Fraction, ...]
    cells: tuple[tuple[int, int, Fraction], ...]

    @property
    def pi(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense n x m view of the cells."""
        rows = [[_ZERO] * len(self.col_values) for _ in self.row_values]
        for i, j, mass in self.cells:
            rows[i][j] = mass
        return tuple(map(tuple, rows))


@dataclass(frozen=True)
class SynthResult:
    feasible: bool
    coupling: Coupling | None = None
    certificate: Witness | None = None

    def __post_init__(self) -> None:
        if self.feasible and (self.coupling is None or self.certificate is not None):
            raise ValueError("feasible result must carry a coupling and no certificate")
        if not self.feasible and (self.coupling is not None or self.certificate is None):
            raise ValueError("infeasible result must carry a certificate and no coupling")


def synth_supermartingale(x: Dist, y: Dist) -> SynthResult:
    """Couple X and Y so the column coordinate drifts weakly down from the row."""
    return _synth(x, y, martingale=False)


def synth_martingale(x: Dist, y: Dist) -> SynthResult:
    """Couple X and Y with zero conditional drift (mean-preserving spread)."""
    return _synth(x, y, martingale=True)


def _require_discrete(d: Dist, side: str) -> DiscreteDist:
    disc = as_discrete(d)
    if disc is None:
        raise InputError(
            f"coupling synthesis needs finite-support marginals; {side} is "
            f"{type(d).__name__} (discretize first)"
        )
    return disc


def _synth(x: Dist, y: Dist, martingale: bool) -> SynthResult:
    dx = _require_discrete(x, "X")
    dy = _require_discrete(y, "Y")
    if dx.support_size() > _MAX_SUPPORT or dy.support_size() > _MAX_SUPPORT:
        raise InputError(f"marginal support exceeds the bound {_MAX_SUPPORT}")
    checker, mode = (check_cx, MODE_MARTINGALE) if martingale else (check_ssd, MODE_SUPERMARTINGALE)
    verdict = checker(dx, dy)
    if not verdict.holds:
        return SynthResult(False, None, verdict.witness)
    cells = _compose(dy, _intermediate(dx, dy))
    coupling = None if cells is None else Coupling(dx.values, dy.values, dx.probs, dy.probs, cells)
    if coupling is None or not verify_coupling(coupling, dx, dy, mode):
        failure = "cannot place an atom" if cells is None else "fails verification"
        raise InternalError(
            f"{checker.__name__} holds but the {mode} construction {failure}",
            routes={checker.__name__: verdict, "construction": cells},
            inputs=(dx, dy),
        )
    return SynthResult(True, coupling, None)


def _compose(
    dy: DiscreteDist, pieces: list[tuple[int, Fraction, Fraction]]
) -> tuple[tuple[int, int, Fraction], ...] | None:
    """The cells of the coupling of X with U given as pieces (row, u, mass),
    composed with the left-curtain coupling of (U, Y); None if the curtain
    fails.  Pieces of one row can reach one column: their cells merge."""
    law_u: dict[Fraction, Fraction] = {}
    for _, u, mass in pieces:
        law_u[u] = law_u.get(u, _ZERO) + mass
    atoms_u = sorted(law_u.items())
    curtain = _left_curtain(atoms_u, dy)
    if curtain is None:
        return None
    shadows = {u: (mass, shadow) for (u, mass), shadow in zip(atoms_u, curtain)}
    cells: dict[tuple[int, int], Fraction] = {}
    for i, u, mass in pieces:
        total, shadow = shadows[u]
        f = mass / total
        for k, share in shadow:
            cells[i, k] = cells.get((i, k), _ZERO) + f * share
    return tuple((i, k, p) for (i, k), p in sorted(cells.items()))


def _left_curtain(
    rows: Sequence[tuple[Fraction, Fraction]], dy: DiscreteDist
) -> list[list[tuple[int, Fraction]]] | None:
    """Each row's shadow as (column, mass) pairs, rows (x, a) taken
    ascending, or None when some row has no window of barycenter x."""
    # the columns with mass left: index, value and remaining mass
    cols, vals, rems = list(range(len(dy.atoms))), list(dy.values), list(dy.probs)
    below, k0 = _ZERO, 0  # the mass in rems[:k0], the values below x
    out = []
    for x, a in rows:
        while k0 < len(vals) and vals[k0] < x:
            below += rems[k0]
            k0 += 1
        window = _shadow(x, a, vals, rems, k0, below)
        if window is None:
            return None
        lo, shares = window
        shadow = []
        for k, share in enumerate(shares, lo):
            shadow.append((cols[k], share))
            rems[k] -= share
            if k < k0:
                below -= share
        out.append(shadow)
        # the window empties its inner columns and perhaps its ends: one run
        dead = [k for k in range(lo, lo + len(shares)) if not rems[k]]
        if dead:
            d0, d1 = dead[0], dead[-1] + 1
            del cols[d0:d1], vals[d0:d1], rems[d0:d1]
            k0 -= max(0, min(d1, k0) - d0)
    return out


def _shadow(
    x: Fraction, a: Fraction, vs: list[Fraction], rs: list[Fraction], k0: int, below: Fraction
) -> tuple[int, list[Fraction]] | None:
    """The atoms (vs, rs) between quantile levels t and t + a, for the t at
    which their barycenter is x, as (first index, masses), or None.

    vs[:k0], of total mass below, are the values below x.  The window slides
    up from the highest t at which it lies wholly below x (or from t = 0);
    between the levels where either end crosses into the next atom its
    moment grows at the rate vs[hi] - vs[lo].
    """
    target = x * a
    # fill the window at the start; lo_room and hi_room are the mass of
    # atom lo above t and of atom hi above t + a
    moment, rest = _ZERO, a
    if below > a:  # the top mass a below x
        lo, hi, hi_room = k0, k0 - 1, _ZERO
        while rest:
            lo -= 1
            step = min(rest, rs[lo])
            moment += vs[lo] * step
            rest -= step
        lo_room = step
    else:  # the bottom mass a
        lo, hi, lo_room = 0, -1, rs[0]
        while rest:
            hi += 1
            step = min(rest, rs[hi])
            moment += vs[hi] * step
            rest -= step
        hi_room = rs[hi] - step
    while moment < target:
        if not hi_room:
            hi += 1
            if hi == len(vs):
                return None
            hi_room = rs[hi]
        step = min(lo_room, hi_room)
        rate = vs[hi] - vs[lo]
        gain = rate * step
        if moment + gain >= target:
            step, gain = (target - moment) / rate, target - moment
        moment += gain
        lo_room -= step
        hi_room -= step
        if not lo_room:
            lo += 1
            lo_room = rs[lo]
    if moment != target:
        return None
    if lo == hi:
        return lo, [a]
    return lo, [lo_room, *rs[lo + 1:hi], rs[hi] - hi_room]


def _intermediate(dx: DiscreteDist, dy: DiscreteDist) -> list[tuple[int, Fraction, Fraction]]:
    """The comonotone coupling of X with the intermediate law U, as pieces
    (row, u, mass); G_U = G_X - h as in the module docstring.  Between two
    merged levels of the walk that decides ssd, atoms i of X and j of Y hold
    the mass, G_X - G_Y moves at the rate of their gap, and u is one of them."""
    x, y, _, D = _scale(dx, dy)
    xv, yv, xs, ys = x[0], y[0], dx.values, dy.values
    levels = [(0, 0, 0, 0, 0), *_walk(x, y)]  # (P, i, j, G_X, G_Y) in units 1/D and 1/(V D)
    # mass in units 1/D, one piece per row and u: a row meets each shadow once
    pieces: dict[tuple[int, Fraction], Fraction | int] = {}
    floor = levels[-1][3] - levels[-1][4]  # h(1); below, h at the segment's end
    for (p0, _, _, gx0, gy0), (p1, i, j, gx1, gy1) in zip(levels[-2::-1], levels[:0:-1]):
        g0, floor, rate = gx0 - gy0, min(floor, gx1 - gy1), xv[i] - yv[j]
        # h = G_X - G_Y (U = Y) up to the cut, then flat at floor (U = X)
        cut = Fraction(floor - g0, rate) if rate > 0 and g0 < floor else 0
        for key, mass in (((i, ys[j]), cut), ((i, xs[i]), p1 - p0 - cut)):
            if mass:
                pieces[key] = pieces.get(key, 0) + mass
    return [(i, u, Fraction(mass, D)) for (i, u), mass in pieces.items()]


def _indexed(c: Coupling) -> bool:
    """Every cell's row and column an int in range, strictly ascending."""
    n, m, last = len(c.row_values), len(c.col_values), (0, -1)
    for i, j, _ in c.cells:
        if not (type(i) is type(j) is int and last < (i, j) and i < n and 0 <= j < m):
            return False
        last = i, j
    return True


def verify_coupling(c: Coupling, x: Dist, y: Dist, mode: str) -> bool:
    """Recheck a coupling against its marginals and drift constraints.

    Independent arithmetic from the construction: plain sums over the
    cells.  A cell out of strictly ascending (row, column) order,
    with a row or column not an int in range, or with a negative mass, fails.
    """
    if mode not in (MODE_SUPERMARTINGALE, MODE_MARTINGALE):
        raise InputError(f"unknown mode {mode!r}")
    dx = _require_discrete(x, "X")
    dy = _require_discrete(y, "Y")
    if (c.row_values, c.col_values, c.row_probs, c.col_probs) != (
            dx.values, dy.values, dx.probs, dy.probs) or not _indexed(c):
        return False
    n, m = len(c.row_values), len(c.col_values)
    rows, drifts, cols = [_ZERO] * n, [_ZERO] * n, [_ZERO] * m
    for i, j, mass in c.cells:
        if mass < 0:
            return False
        rows[i] += mass
        drifts[i] += (c.col_values[j] - c.row_values[i]) * mass
        cols[j] += mass
    drift_ok = not any(drifts) if mode == MODE_MARTINGALE else all(d <= 0 for d in drifts)
    return drift_ok and tuple(rows) == c.row_probs and tuple(cols) == c.col_probs


def coupling_to_joint(c: Coupling) -> JointDist:
    """The coupling as a joint law of (W, Z) with Z = Y - W: its nonzero
    cells as they stand, since cells ascending in (row, column) ascend in
    (w, z).  Cells out of that order or out of range raise InputError."""
    if not _indexed(c):
        raise InputError("coupling cells must be ints in range, strictly ascending in (row, column)")
    ws, ys = c.row_values, c.col_values
    return JointDist(tuple((ws[i], ys[j] - ws[i], mass) for i, j, mass in c.cells if mass))

"""Coupling synthesis by construction, after an exact order decision.

Given finite marginal laws X (rows) and Y (columns), find a joint law on
support(X) x support(Y) with those marginals such that, writing
Z = Y - W for the coordinate pair (W, Y),

    supermartingale mode:  E[Z | W = w] <= 0 at every atom w   (exists iff X >=ssd Y)
    martingale mode:       E[Z | W = w]  = 0 at every atom w   (exists iff X <=cx Y)

Both existence statements are Strassen's theorem, so the exact route of
check_ssd or check_cx decides first, and a failing pair returns its witness
as the certificate.  A holding pair is built directly, with no search.

Both modes end in the left-curtain coupling (Beiglboeck and Juillet, Ann.
Probab. 2016) of a law U <=cx Y with Y.  The atoms (x, a) of U are taken in
ascending order, and each takes its shadow in what is left of Y: the
remaining mass between quantile levels t and t + a whose barycenter is x.
The window's first moment G(t + a) - G(t), with G the integrated quantile of
the remainder, is piecewise linear and nondecreasing in t, so t is solved
for exactly: one loop fills the window at the highest t at which it lies
wholly below x (or at t = 0), and the window slides up from there, carrying
the moment it still misses down to zero.  While U <=cx Y every window
exists: the shadow of a sum of measures exists and is the shadow of the
first part followed by the shadow of the second in what the first left.

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

The decision and the construction read one scaling of the pair's integer
forms (orders._scale): values are ints over one scale V, and masses are
ints over one scale M = D L, with D the pair's probability scale and L the
lcm of the cuts' denominators.  Where a window's last step ends inside an
atom at a level that no int over M reaches, that atom keeps what is left of
it as an int over its own small denominator, the step's rate over its gcd
with the moment still missing.  A later window works over the lcm of the
denominators of the atoms it touches and of its own last step; what it
leaves of its two end atoms goes over that lcm, reduced, and every other
mass stays an int over M.  Each cell's mass is summed as an integer and its
Fraction built once.

verify_coupling rechecks every built coupling with its own integer sums,
per row and per column over the nonzero cells, independent of the
construction; a holding order whose construction cannot place an atom or
does not verify raises InternalError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .dists import (
    DiscreteDist,
    Dist,
    InputError,
    InternalError,
    JointDist,
    _Record,
    _record,
    as_discrete,
    as_integers,
    rescale,
)
from .orders import Witness, _cx_exact, _IntLaw, _scale, _ssd_exact, _walk

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

# The most atoms per marginal that synthesis takes.  scripts/support_cap.py
# times the whole `synthesize` command in process (both laws' JSON read and
# parsed, the synthesis with its recheck, the report built and serialized) in
# both modes, three seeds of four families, three times each, and reads the
# median of each command's three times.  Three runs on a shared 2-vCPU Xeon
# VM, Python 3.11, whose speed varies by up to 2x: at 8000 x 8000 the medians
# were wide 0.61-0.99 s, bimodal 0.59-0.98 s, spreads 0.32-0.74 s and a point
# mass against the wide law 0.20-0.35 s, and the 1 s rule first failed at
# 9000, 8500 and 8500 atoms (1.16, 1.08 and 1.14 s, the wide law at seed 3).
_MAX_SUPPORT = 8000


@_record
class Coupling(_Record):
    """A joint law over support(X) x support(Y) as its nonzero cells
    (row, column, mass), strictly ascending, with exact rational masses."""

    row_values: tuple[Fraction, ...]
    col_values: tuple[Fraction, ...]
    row_probs: tuple[Fraction, ...]
    col_probs: tuple[Fraction, ...]
    cells: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, row_values: tuple[Fraction, ...], col_values: tuple[Fraction, ...],
                 row_probs: tuple[Fraction, ...], col_probs: tuple[Fraction, ...],
                 cells: tuple[tuple[int, int, Fraction], ...]) -> None:
        object.__setattr__(self, "row_values", row_values)
        object.__setattr__(self, "col_values", col_values)
        object.__setattr__(self, "row_probs", row_probs)
        object.__setattr__(self, "col_probs", col_probs)
        object.__setattr__(self, "cells", cells)

    @property
    def pi(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense n x m view of the cells."""
        rows = [[_ZERO] * len(self.col_values) for _ in self.row_values]
        for i, j, mass in self.cells:
            rows[i][j] = mass
        return tuple(map(tuple, rows))


@_record
class SynthResult(_Record):
    """A synthesis outcome: a coupling when feasible, else the order's failure witness."""

    feasible: bool
    coupling: Coupling | None = None
    certificate: Witness | None = None

    def __init__(self, feasible: bool, coupling: Coupling | None = None,
                 certificate: Witness | None = None) -> None:
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "certificate", certificate)
        if feasible and (coupling is None or certificate is not None):
            raise ValueError("feasible result must carry a coupling and no certificate")
        if not feasible and (coupling is not None or certificate is None):
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
    checker, decide, mode = (("check_cx", _cx_exact, MODE_MARTINGALE) if martingale
                             else ("check_ssd", _ssd_exact, MODE_SUPERMARTINGALE))
    ix, iy, V, D = _scale(dx.ints, dy.ints)
    verdict = decide(lambda: (dx, dy), ix, iy, V, D)
    if not verdict.holds:
        return SynthResult(False, None, verdict.witness)
    cells = _compose(ix, iy, D)
    coupling = None if cells is None else Coupling(dx.values, dy.values, dx.probs, dy.probs, cells)
    if coupling is None or not verify_coupling(coupling, dx, dy, mode):
        failure = "cannot place an atom" if cells is None else "fails verification"
        raise InternalError(
            f"{checker} holds but the {mode} construction {failure}",
            routes={checker: verdict, "construction": cells},
            inputs=(dx, dy),
        )
    return SynthResult(True, coupling, None)


def _compose(x: _IntLaw, y: _IntLaw, D: int) -> tuple[tuple[int, int, Fraction], ...] | None:
    """The cells of the coupling of X with U (_intermediate) composed with
    the left-curtain coupling of (U, Y), for laws over one value scale and
    one probability scale D; None if the curtain fails.  Pieces of one row
    can reach one column: each cell's parts are summed as integers over one
    denominator, and its Fraction is built once."""
    pieces, L = _intermediate(x, y)
    law_u: dict[int, int] = {}
    for _, u, mass in pieces:
        law_u[u] = law_u.get(u, 0) + mass
    atoms_u = sorted(law_u.items())
    curtain = _left_curtain(atoms_u, y[0], rescale(y[1], L))
    if curtain is None:
        return None
    # a piece (i, u, mass) puts share * mass / (total q D L) on cell (i, k)
    # for each (k, share) of the shadow of u, whose shares are over q D L:
    # share / (q D L) when the piece is all of u
    M = D * L
    shadows = {u: (total, q * M, shadow) for (u, total), (q, shadow) in zip(atoms_u, curtain)}
    rows: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}
    for i, u, mass in pieces:
        total, qm, shadow = shadows[u]
        part = (1, qm, shadow) if mass == total else (mass, total * qm, shadow)
        rows.setdefault(i, []).append(part)
    cells = []
    for i in sorted(rows):
        parts = rows[i]
        if len(parts) == 1:
            (mass, scale, shadow), = parts
            for k, share in shadow:
                cells.append((i, k, Fraction(share * mass, scale)))
            continue
        # the row's pieces can reach one column: sum over one denominator
        sums: dict[int, tuple[int, int]] = {}
        for mass, scale, shadow in parts:
            for k, share in shadow:
                if k in sums:
                    n, d = sums[k]
                    g = gcd(d, scale)
                    sums[k] = n * (scale // g) + share * mass * (d // g), d // g * scale
                else:
                    sums[k] = share * mass, scale
        for k in sorted(sums):
            cells.append((i, k, Fraction(*sums[k])))
    return tuple(cells)


def _left_curtain(
    rows: list[tuple[int, int]], vals: Sequence[int], rems: Sequence[int]
) -> list[tuple[int, list[tuple[int, int]]]] | None:
    """Each row's shadow as (q, [(column, share), ...]) with the shares
    ints over q units of the masses' scale, rows (x, a) taken ascending, or
    None when some row has no window of barycenter x.  The rows' and the
    columns' values (vals) share one scale, their masses (a and rems)
    another."""
    # the columns with mass left: index, value, and remaining mass as an
    # int over the column's own denominator (1 until a window cuts it)
    cols, vals, rems = list(range(len(vals))), list(vals), list(rems)
    dens = [1] * len(rems)
    base = k0 = 0  # columns below base are spent; vals[base:k0] lie below x
    out = []
    for x, a in rows:
        while k0 < len(vals) and vals[k0] < x:
            k0 += 1
        window = _shadow(x, a, vals, rems, dens, base, k0)
        if window is None:
            return None
        lo, q, shares = window
        shadow = []
        for k, share in enumerate(shares, lo):
            shadow.append((cols[k], share))
            if q == 1:
                rems[k] -= share
            else:  # the remainder over its own lowest denominator
                rest = rems[k] * (q // dens[k]) - share
                g = gcd(rest, q)
                rems[k], dens[k] = rest // g, q // g
        out.append((q, shadow))
        # the window empties its inner columns and perhaps its ends: one
        # run, deleted, or skipped if it is the lowest (a del there would
        # move every live column)
        dead = [k for k in range(lo, lo + len(shares)) if not rems[k]]
        if dead:
            d0, d1 = dead[0], dead[-1] + 1
            if d0 == base:
                base, k0 = d1, max(k0, d1)
            else:
                del cols[d0:d1], vals[d0:d1], rems[d0:d1], dens[d0:d1]
                k0 -= max(0, min(d1, k0) - d0)
    return out


def _shadow(
    x: int, a: int, vs: list[int], rs: list[int], ds: list[int], base: int, k0: int
) -> tuple[int, int, list[int]] | None:
    """The atoms (vs, rs / ds) between quantile levels t and t + a, for the
    t at which their barycenter is x, as (first index, q, masses over q), or
    None.

    The atoms below base are spent, and vs[base:k0] are the values below x.
    One loop fills the window at the highest t at which it lies wholly below
    x: the atoms below x going down from k0 - 1, then, if they hold less
    than a, those from k0 up (t = 0).  The window slides up from there, and
    between the levels where either end crosses into the next atom, need,
    the moment x a less its own, falls at the rate vs[hi] - vs[lo].  Its
    masses are ints over q, which starts at 1: an atom it reaches whose
    denominator ds does not divide q multiplies q, need and the mass it
    tracks by the missing factor, and so does a last step that ends inside
    atoms at a level no int over q reaches, by the step's own denominator.
    """
    need, rest, q, k, dk = x * a, a, 1, k0, -1
    while rest:
        k += dk
        if k < base:  # every atom below x is in: go up from k0
            k, dk = k0, 1
        r, d = rs[k], ds[k]
        if d != q:
            if q % d:
                f = d // gcd(q, d)
                q, need, rest = q * f, need * f, rest * f
            r *= q // d
        step = min(rest, r)
        need -= vs[k] * step
        rest -= step
    # lo_room and hi_room are the mass of atom lo above t and of atom hi above t + a
    if k < k0:  # the top mass a below x
        lo, hi, lo_room, hi_room = k, k0 - 1, step, 0
    else:  # the bottom mass a: every atom below x and more
        lo, hi, lo_room, hi_room = base, k, rs[base] * (q // ds[base]), r - step
    while need > 0:
        if not hi_room:
            hi += 1
            if hi == len(vs):
                return None
            r, d = rs[hi], ds[hi]
            if d != q:
                if q % d:
                    f = d // gcd(q, d)
                    q, need, lo_room = q * f, need * f, lo_room * f
                r *= q // d
            hi_room = r
        step = min(lo_room, hi_room)
        rate = vs[hi] - vs[lo]
        gain = rate * step
        if gain < need:
            need -= gain
        else:
            step, short = divmod(need, rate)
            if short:  # the last step ends inside atoms lo and hi
                f = rate // gcd(need, rate)
                q, lo_room, hi_room, step = q * f, lo_room * f, hi_room * f, need * f // rate
            need = 0
        lo_room, hi_room = lo_room - step, hi_room - step
        if not lo_room:
            lo += 1
            lo_room = rs[lo] * (q // ds[lo])
    if need:
        return None
    if lo == hi:
        return lo, q, [a * q]
    inner = rs[lo + 1:hi] if q == 1 else [r * (q // d) for r, d in zip(rs[lo + 1:hi], ds[lo + 1:hi])]
    return lo, q, [lo_room, *inner, rs[hi] * (q // ds[hi]) - hi_room]


def _intermediate(x: _IntLaw, y: _IntLaw) -> tuple[list[tuple[int, int, int]], int]:
    """The comonotone coupling of X with the intermediate law U, as pieces
    (row, u, mass), and L; G_U = G_X - h as in the module docstring.  Values
    keep the laws' one scale; masses go over D L, with D the laws' scale and
    L the lcm of the cuts' denominators.  Between two merged levels of the
    walk that decides ssd, atoms i of X and j of Y hold the mass, G_X - G_Y
    moves at the rate of their gap, and u is one of them."""
    xv, yv = x[0], y[0]
    levels = [(0, 0, 0, 0, 0), *_walk(x, y)]  # (P, i, j, G_X, G_Y) in units 1/D and 1/(V D)
    # each stretch (i, j, its mass, the cut as numerator and denominator), in units 1/D
    stretches, L = [], 1
    floor = levels[-1][3] - levels[-1][4]  # h(1); below, h at the segment's end
    for (p0, _, _, gx0, gy0), (p1, i, j, gx1, gy1) in zip(levels[-2::-1], levels[:0:-1]):
        g0, floor, rate = gx0 - gy0, min(floor, gx1 - gy1), xv[i] - yv[j]
        # h = G_X - G_Y (U = Y) up to the cut, then flat at floor (U = X)
        cut, den = 0, 1
        if rate > 0 and g0 < floor:
            g = gcd(floor - g0, rate)
            cut, den = (floor - g0) // g, rate // g
            L = lcm(L, den)
        stretches.append((i, j, p1 - p0, cut, den))
    # one piece per row and u: a row meets each shadow once
    pieces: dict[tuple[int, int], int] = {}
    for i, j, width, cut, den in stretches:
        cut *= L // den
        for key, mass in (((i, yv[j]), cut), ((i, xv[i]), width * L - cut)):
            if mass:
                pieces[key] = pieces.get(key, 0) + mass
    return [(i, u, mass) for (i, u), mass in pieces.items()], L


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

    Independent arithmetic from the construction: the cells are grouped by
    row and by column, each group's masses go over that group's own lcm,
    and every row sum, column sum and row drift is an integer sum compared
    with the marginals' integer forms.  A cell out of strictly ascending
    (row, column) order, with a row or column not an int in range, or with a
    negative or non-finite mass, fails.
    """
    if mode not in (MODE_SUPERMARTINGALE, MODE_MARTINGALE):
        raise InputError(f"unknown mode {mode!r}")
    dx = _require_discrete(x, "X")
    dy = _require_discrete(y, "Y")
    if (c.row_values, c.col_values, c.row_probs, c.col_probs) != (
            dx.values, dy.values, dx.probs, dy.probs) or not _indexed(c):
        return False
    fx, fy = dx.ints, dy.ints
    row_cols: list[list[int]] = [[] for _ in fx.values]
    row_masses: list[list] = [[] for _ in fx.values]
    col_masses: list[list] = [[] for _ in fy.values]
    for i, j, mass in c.cells:
        row_cols[i].append(j)
        row_masses[i].append(mass)
        col_masses[j].append(mass)
    try:  # per row and column: one lcm over all cells has ~40,000 bits at 8000 atoms, ~20x slower
        rows = [as_integers(ms) for ms in row_masses]
        cols = [as_integers(ms) for ms in col_masses]
    except (ValueError, OverflowError):  # a float mass that is no rational: nan or inf
        return False
    for (ms, L), w in zip(cols, fy.weights):
        if sum(ms) * fy.D != w * L:
            return False
    martingale = mode == MODE_MARTINGALE
    for (ms, L), w, v, js in zip(rows, fx.weights, fx.values, row_cols):
        total = sum(ms)
        if total * fx.D != w * L or min(ms) < 0:
            return False
        # the row's drift, the sum of (y_j - x_i) m_ij, times V_X V_Y L
        drift = fx.V * sum(map(mul, map(fy.values.__getitem__, js), ms)) - fy.V * v * total
        if drift > 0 or martingale and drift:
            return False
    return True


def _joint_cells(c: Coupling) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The coupling's nonzero cells as (w, z, mass) with z = y - w, each z one
    int difference over the lcm V of every row and column value's
    denominator; cells ascending in (row, column) ascend in (w, z)."""
    ws = c.row_values
    ints, V = as_integers([*ws, *c.col_values])
    xs, ys = ints[:len(ws)], ints[len(ws):]
    return [(ws[i], Fraction(ys[j] - xs[i], V), mass) for i, j, mass in c.cells if mass]


def coupling_to_joint(c: Coupling) -> JointDist:
    """The coupling as a joint law of (W, Z) with Z = Y - W: its nonzero
    cells as they stand.  Cells out of (row, column) order or out of range
    raise InputError."""
    if not _indexed(c):
        raise InputError("coupling cells must be ints in range, strictly ascending in (row, column)")
    return JointDist(tuple(_joint_cells(c)))

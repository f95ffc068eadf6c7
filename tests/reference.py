"""Reference deciders: the direct Fraction routes the library's walks replace.

Each function evaluates its defining inequality at every point of the finite
test set, one Fraction sum per point, and returns the first violation in
ascending order.  They are quadratic and slow, and kept only so that the
tests can demand that the linear integer walks in `stochorder.orders` and
`stochorder.conditions` return equal verdicts and equal witnesses.

marketable_check evaluates the conditional indemnity mean afresh at every
threshold, and stop_loss_compare every premium by its own Fraction sum over
the atoms (stop_loss).  random_joint is the joint-law generator as it was
when it hashed Fraction values, kept to pin the random draw sequence.
is_comonotone decides whether weighted points can be the law of a
comonotone pair; the improver tests use it to tell which joints are.
cdf, quantile_right and upper_tail_mean are Fraction sums over a finite
law's atoms for its distribution function, right quantile and upper tail
mean, which the library does not hold; check_st and the tail-measure tests
read them.
normalize, normalize_joint and phi_envelope_points are the
Fraction routes of canonicalisation and of the expected-shortfall envelope:
a Fraction-keyed merge, a sort by Fraction comparison and one Fraction
division or sum per atom, where the library works over integers.  es and
phi read the envelope by linear interpolation between its breakpoints,
where the library sums the upper tail down to the one level; the check_icx
and check_ssd routes compare two envelopes at every breakpoint of either.
coupling_cells is the construction of coupling synthesis with every mass
a Fraction, where the library carries masses as integers over one scale.
solve_transport decides coupling feasibility by exact LP: a dense phase-1
simplex over Fractions with Bland's rule.  Its cost grows steeply with the
support sizes, so the tests call it on at most 6 x 6 atoms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from stochorder import (
    DiscreteDist,
    InputError,
    JointDist,
    StopLossComparison,
    as_discrete,
    as_fraction,
    conditional_indemnity_mean,
    indemnity_value,
    joint_marginal_w,
    joint_sum,
)
from stochorder.orders import OrderVerdict, Witness

_ZERO = Fraction(0)
_HOLDS = OrderVerdict(True, None)


# ---------------------------------------------------------------------------
# Canonical finite laws over Fractions
# ---------------------------------------------------------------------------


def normalize(raw_atoms) -> DiscreteDist:
    acc: dict[Fraction, Fraction] = {}
    for value, weight in raw_atoms:
        v = as_fraction(value)
        w = as_fraction(weight)
        if w < 0:
            raise InputError(f"negative weight {w} at value {v}")
        if w == 0:
            continue
        acc[v] = acc.get(v, _ZERO) + w
    total = sum(acc.values(), _ZERO)
    if total == 0:
        raise InputError("total weight must be positive")
    return DiscreteDist(tuple((v, acc[v] / total) for v in sorted(acc)))


def normalize_joint(raw_atoms) -> JointDist:
    acc: dict[tuple[Fraction, Fraction], Fraction] = {}
    for w, z, weight in raw_atoms:
        key = (as_fraction(w), as_fraction(z))
        wt = as_fraction(weight)
        if wt < 0:
            raise InputError(f"negative weight {wt} at cell {key}")
        if wt == 0:
            continue
        acc[key] = acc.get(key, _ZERO) + wt
    total = sum(acc.values(), _ZERO)
    if total == 0:
        raise InputError("total weight must be positive")
    return JointDist(tuple((w, z, acc[(w, z)] / total) for (w, z) in sorted(acc)))


def random_joint(rng, max_per_marginal: int = 6, nonneg_w: bool = False) -> JointDist:
    w_lat = [Fraction(k, 2) for k in (range(0, 13) if nonneg_w else range(-6, 7))]
    z_lat = [Fraction(k, 2) for k in range(-6, 7)]
    while True:
        nw = rng.randint(2, max_per_marginal)
        nz = rng.randint(2, max_per_marginal)
        ws = rng.sample(w_lat, nw)
        zs = rng.sample(z_lat, nz)
        cells = [
            (w, z, Fraction(rng.randint(1, 59), 60))
            for w in ws
            for z in zs
            if rng.random() < 0.6
        ]
        if len({w for w, _, _ in cells}) < 2 or len({z for _, z, _ in cells}) < 2:
            continue
        return normalize_joint(cells)


def phi_envelope_points(d: DiscreteDist) -> tuple[tuple[Fraction, Fraction], ...]:
    """Breakpoints (P_k, sum_{j>k} x_j p_j) of p -> (1-p) ES_p, by Fraction sums."""
    cums, c = [], _ZERO
    for _, p in d.atoms:
        c += p
        cums.append(c)
    vals = [_ZERO] * (len(d.atoms) + 1)
    for k in range(len(d.atoms) - 1, -1, -1):
        vals[k] = vals[k + 1] + d.atoms[k][0] * d.atoms[k][1]
    return ((_ZERO, vals[0]),) + tuple(zip(cums, vals[1:]))


def cdf(d: DiscreteDist, x) -> Fraction:
    """P(X <= x), one Fraction sum over the atoms."""
    xf = as_fraction(x)
    return sum((p for v, p in d.atoms if v <= xf), _ZERO)


def quantile_right(d: DiscreteDist, t) -> Fraction:
    """Q(t) = inf{x : P(X <= x) > t} for t in (0, 1): the first atom whose
    cumulative mass exceeds t."""
    tf = as_fraction(t)
    if not 0 < tf < 1:
        raise InputError(f"quantile level must lie in (0, 1), got {tf}")
    return next(v for v, c in zip(d.values, accumulate(d.probs)) if c > tf)


def upper_tail_mean(d: DiscreteDist, x) -> Fraction:
    """E[X | X >= x], by Fraction sums over the atoms at or above x."""
    xf = as_fraction(x)
    top = [(v, p) for v, p in d.atoms if v >= xf]
    mass = sum((p for _, p in top), _ZERO)
    if not mass:
        raise InputError(f"P(X >= {xf}) = 0")
    return sum((v * p for v, p in top), _ZERO) / mass


def _pair(x, y):
    dx, dy = as_discrete(x), as_discrete(y)
    assert dx is not None and dy is not None, "reference routes are finite only"
    return dx, dy


def _value_at(points, p: Fraction) -> Fraction:
    """The envelope at p, interpolated linearly between its breakpoints."""
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if p0 <= p <= p1:
            return v0 + (v1 - v0) * (p - p0) / (p1 - p0)
    raise AssertionError(f"level {p} outside [0, 1]")


def phi(d: DiscreteDist, p) -> Fraction:
    """(1 - p) ES_p: the envelope through phi_envelope_points."""
    pf = as_fraction(p)
    if not 0 <= pf <= 1:
        raise InputError(f"level must lie in [0, 1], got {pf}")
    return _value_at(phi_envelope_points(d), pf)


def es(d: DiscreteDist, p) -> Fraction:
    pf = as_fraction(p)
    if not 0 <= pf < 1:
        raise InputError(f"expected shortfall needs p in [0, 1), got {pf}")
    return _value_at(phi_envelope_points(d), pf) / (1 - pf)


def _merged_levels(px, py) -> list[Fraction]:
    return sorted({p for p, _ in px} | {p for p, _ in py})


def _integrated_lower_quantile(points, p: Fraction) -> Fraction:
    # integral of Q over (0, p) = mean - integral over (p, 1)
    return points[0][1] - _value_at(points, p)


# ---------------------------------------------------------------------------
# Envelope routes of the four finite order checkers
# ---------------------------------------------------------------------------


def check_icx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    ex, ey = phi_envelope_points(dx), phi_envelope_points(dy)
    for p in _merged_levels(ex, ey):
        if p == 1:
            continue  # both envelopes vanish there
        vx, vy = _value_at(ex, p), _value_at(ey, p)
        if vx < vy:
            return OrderVerdict(False, Witness("level_p", p, vx / (1 - p), vy / (1 - p)))
    return _HOLDS


def check_ssd(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    ex, ey = phi_envelope_points(dx), phi_envelope_points(dy)
    for p in _merged_levels(ex, ey):
        if p == 0:
            continue  # both integrals vanish there
        vx = _integrated_lower_quantile(ex, p)
        vy = _integrated_lower_quantile(ey, p)
        if vx < vy:
            return OrderVerdict(False, Witness("level_p", p, vx, vy))
    return _HOLDS


def check_cx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    mx = sum((v * p for v, p in dx.atoms), _ZERO)
    my = sum((v * p for v, p in dy.atoms), _ZERO)
    if mx != my:
        return OrderVerdict(False, Witness("level_p", Fraction(1), mx, my))
    return check_ssd(dx, dy)


def check_st(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        sx = 1 - cdf(dx, t)
        sy = 1 - cdf(dy, t)
        if sx < sy:
            return OrderVerdict(False, Witness("threshold_x", t, sx, sy))
    return _HOLDS


# ---------------------------------------------------------------------------
# Per-threshold transform oracles
# ---------------------------------------------------------------------------


def oracle_ssd(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        lhs = sum((min(v, t) * p for v, p in dx.atoms), _ZERO)
        rhs = sum((min(v, t) * p for v, p in dy.atoms), _ZERO)
        if lhs < rhs:
            return OrderVerdict(False, Witness("angle_t", t, lhs, rhs))
    return _HOLDS


def oracle_icx(x, y) -> OrderVerdict:
    dx, dy = _pair(x, y)
    for t in sorted(set(dx.values) | set(dy.values)):
        lhs = sum(((v - t) * p for v, p in dx.atoms if v > t), _ZERO)
        rhs = sum(((v - t) * p for v, p in dy.atoms if v > t), _ZERO)
        if lhs < rhs:
            return OrderVerdict(False, Witness("angle_t", t, lhs, rhs))
    return _HOLDS


# ---------------------------------------------------------------------------
# O(k n) dependence-condition loops
# ---------------------------------------------------------------------------


def _first_bad(cells, event, bad) -> OrderVerdict:
    """First anchor x, ascending, where E[Z | event(anchor, x)] is bad."""
    for x in sorted({a for a, _, _ in cells}):
        num = _ZERO
        den = _ZERO
        for a, z, p in cells:
            if event(a, x):
                num += z * p
                den += p
        if bad(num / den):
            return OrderVerdict(False, Witness("threshold_x", x, num / den, _ZERO))
    return _HOLDS


def cond_new(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w <= x, lambda r: r > 0)


def cond_classic(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w == x, lambda r: r > 0)


def cond_icx(j: JointDist) -> OrderVerdict:
    return _first_bad(j.atoms, lambda w, x: w >= x, lambda r: r < 0)


def cond_cx_pair(j: JointDist) -> OrderVerdict:
    mean_z = sum((z * p for _, z, p in j.atoms), _ZERO)
    if mean_z != 0:
        top = max(w for w, _, _ in j.atoms)
        return OrderVerdict(False, Witness("threshold_x", top, mean_z, _ZERO))
    return cond_new(j)


def cond_on_difference(j: JointDist) -> OrderVerdict:
    cells = [(y - z, z, p) for y, z, p in j.atoms]
    return _first_bad(cells, lambda v, x: v <= x, lambda r: r > 0)


def is_comonotone(pairs) -> bool:
    """Whether weighted points (a, b[, p]) support a comonotone pair.

    Comonotone means no two support points move in opposite directions:
    (a - a')(b - b') >= 0 for every pair of atoms.  After sorting
    lexicographically by (a, b), that is equivalent to the second coordinate
    being nondecreasing, so adjacent comparisons decide the whole set.
    Probabilities, when present, only need to be positive.
    """
    pts: list[tuple[Fraction, Fraction]] = []
    for item in pairs:
        seq = tuple(item)
        if len(seq) not in (2, 3):
            raise ValueError(f"expected (a, b) or (a, b, p), got {seq!r}")
        if len(seq) == 3 and as_fraction(seq[2]) <= 0:
            continue
        pts.append((as_fraction(seq[0]), as_fraction(seq[1])))
    pts.sort()
    for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
        if a0 < a1 and b1 < b0:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-threshold marketability
# ---------------------------------------------------------------------------


def marketable_check(i, x_dist, p0) -> OrderVerdict:
    """E[I(X) | X - I(X) >= x] >= P0 at each retained-loss atom x, ascending,
    one conditional_indemnity_mean per threshold."""
    p0 = Fraction(p0)
    for x in sorted({v - indemnity_value(i, v) for v, _ in x_dist.atoms}):
        cm = conditional_indemnity_mean(i, x_dist, x)
        if cm < p0:
            return OrderVerdict(False, Witness("threshold_x", x, cm, p0))
    return _HOLDS


def stop_loss(d: DiscreteDist, t) -> Fraction:
    t = as_fraction(t)
    return sum(((v - t) * p for v, p in d.atoms if v > t), _ZERO)


def stop_loss_compare(j: JointDist, deductibles=None) -> StopLossComparison:
    base, total = joint_marginal_w(j), joint_sum(j)
    if deductibles is None:
        ds = sorted({_ZERO} | set(base.values) | {v for v in total.values if v >= 0})
    else:
        ds = sorted({as_fraction(d) for d in deductibles})
    base_curve = tuple(stop_loss(base, d) for d in ds)
    summed_curve = tuple(stop_loss(total, d) for d in ds)
    return StopLossComparison(
        condition=cond_icx(j),
        deductibles=tuple(ds),
        base_premiums=base_curve,
        summed_premiums=summed_curve,
        dominates=all(s >= b for s, b in zip(summed_curve, base_curve)),
    )


# ---------------------------------------------------------------------------
# The coupling construction over Fractions
# ---------------------------------------------------------------------------


def coupling_cells(x, y) -> tuple[tuple[int, int, Fraction], ...] | None:
    """The cells (row, column, mass) of the coupling that coupling synthesis
    builds for a holding pair, in both modes, or None if some atom has no
    shadow: the comonotone coupling of X with the intermediate law U
    (G_U = G_X - h, h the running minimum of G_X - G_Y from above) composed
    with the left-curtain coupling of (U, Y), each U atom taking the window
    of the remaining Y mass with its barycenter.  Every quantity is a Fraction.
    """
    dx, dy = _pair(x, y)
    xs, ys = dx.values, dy.values
    # the merged walk: (P, i, j, G_X, G_Y) at every merged level P, atoms i
    # and j holding the mass just below P, G the integrated lower quantiles
    levels = [(_ZERO, 0, 0, _ZERO, _ZERO)]
    i = j = 0
    p = gx = gy = _ZERO
    cx, cy = dx.probs[0], dy.probs[0]
    while p < 1:
        nxt = min(cx, cy)
        gx += xs[i] * (nxt - p)
        gy += ys[j] * (nxt - p)
        p = nxt
        levels.append((p, i, j, gx, gy))
        if cx == p and p < 1:
            i += 1
            cx += dx.probs[i]
        if cy == p and p < 1:
            j += 1
            cy += dy.probs[j]
    # the pieces (row, u) -> mass of the comonotone coupling of X with U
    pieces: dict[tuple[int, Fraction], Fraction] = {}
    floor = levels[-1][3] - levels[-1][4]
    for (p0, _, _, gx0, gy0), (p1, i, j, gx1, gy1) in zip(levels[-2::-1], levels[:0:-1]):
        g0, floor, rate = gx0 - gy0, min(floor, gx1 - gy1), xs[i] - ys[j]
        cut = (floor - g0) / rate if rate > 0 and g0 < floor else _ZERO
        for key, mass in (((i, ys[j]), cut), ((i, xs[i]), p1 - p0 - cut)):
            if mass:
                pieces[key] = pieces.get(key, _ZERO) + mass
    law_u: dict[Fraction, Fraction] = {}
    for (_, u), mass in pieces.items():
        law_u[u] = law_u.get(u, _ZERO) + mass
    # the left curtain: each atom (u, a) of U, ascending, takes its shadow in
    # the remaining columns (cols, vs, rs); vs[:k0] of mass below lie below u
    cols, vs, rs = list(range(len(ys))), list(ys), list(dy.probs)
    below, k0 = _ZERO, 0
    shadows = {}
    for u, a in sorted(law_u.items()):
        while k0 < len(vs) and vs[k0] < u:
            below += rs[k0]
            k0 += 1
        # the window of mass a starts as the top mass a below u, or the
        # bottom mass a, and slides up until its moment reaches u a;
        # lo_room and hi_room are the mass of atom lo above t and of atom
        # hi above t + a
        target, moment, rest = u * a, _ZERO, a
        if below > a:
            lo, hi, hi_room = k0, k0 - 1, _ZERO
            while rest:
                lo -= 1
                step = min(rest, rs[lo])
                moment += vs[lo] * step
                rest -= step
            lo_room = step
        else:
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
        shares = [a] if lo == hi else [lo_room, *rs[lo + 1:hi], rs[hi] - hi_room]
        shadows[u] = a, [(cols[k], share) for k, share in enumerate(shares, lo)]
        for k, share in enumerate(shares, lo):
            rs[k] -= share
            if k < k0:
                below -= share
        dead = [k for k in range(lo, lo + len(shares)) if not rs[k]]
        if dead:
            d0, d1 = dead[0], dead[-1] + 1
            del cols[d0:d1], vs[d0:d1], rs[d0:d1]
            k0 -= max(0, min(d1, k0) - d0)
    # each piece of row i spreads over its U atom's shadow in proportion
    cells: dict[tuple[int, int], Fraction] = {}
    for (i, u), mass in pieces.items():
        total, shadow = shadows[u]
        for k, share in shadow:
            cells[i, k] = cells.get((i, k), _ZERO) + mass / total * share
    return tuple((i, k, q) for (i, k), q in sorted(cells.items()))


# ---------------------------------------------------------------------------
# Exact LP feasibility of a coupling
# ---------------------------------------------------------------------------

_ONE = Fraction(1)


def solve_transport(
    dx: DiscreteDist, dy: DiscreteDist, martingale: bool
) -> tuple[tuple[Fraction, ...], ...] | None:
    """A feasible transport matrix for the supermartingale or martingale
    coupling of X and Y, or None: the dense phase-1 simplex the coupling
    constructions replaced.

    Variables: pi_ij (row-major), then one slack per drift row in
    supermartingale mode.  Constraints: n row sums, m column sums, n drift
    rows  sum_j (y_j - w_i) pi_ij (+ slack) = 0.  Column sums are kept even
    though one is redundant; phase 1 tolerates that.
    """
    ws, ps = dx.values, dx.probs
    ys, qs = dy.values, dy.probs
    n, m = len(ws), len(ys)
    nvars = n * m + (0 if martingale else n)

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basic: list[int | None] = []

    for i in range(n):
        row = [_ZERO] * nvars
        for jx in range(m):
            row[i * m + jx] = _ONE
        rows.append(row)
        rhs.append(ps[i])
        basic.append(None)
    for jx in range(m):
        row = [_ZERO] * nvars
        for i in range(n):
            row[i * m + jx] = _ONE
        rows.append(row)
        rhs.append(qs[jx])
        basic.append(None)
    for i in range(n):
        row = [_ZERO] * nvars
        for jx in range(m):
            row[i * m + jx] = ys[jx] - ws[i]
        if not martingale:
            row[n * m + i] = _ONE
        rows.append(row)
        rhs.append(_ZERO)
        basic.append(None if martingale else n * m + i)

    solution = _phase_one(rows, rhs, basic)
    if solution is None:
        return None
    return tuple(
        tuple(solution[i * m + jx] for jx in range(m)) for i in range(n)
    )


def _phase_one(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    basic: list[int | None],
) -> list[Fraction] | None:
    """Exact phase-1 simplex: minimize artificial mass, Bland's rule.

    rows/rhs describe equality constraints over nonnegative variables; rhs
    must be nonnegative.  basic[i] names a column already usable as the
    initial basis in row i (a slack), or None to add an artificial.  Returns
    values for the original columns when total artificial mass reaches zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = [row[:] for row in rows]
    b = rhs[:]
    basis: list[int] = [0] * m
    ncol = n
    artificial: set[int] = set()
    for i in range(m):
        if b[i] < 0:
            raise ValueError("phase-1 right-hand sides must be nonnegative")
        if basic[i] is not None:
            basis[i] = basic[i]  # type: ignore[assignment]
        else:
            for r in range(m):
                tableau[r].append(_ONE if r == i else _ZERO)
            basis[i] = ncol
            artificial.add(ncol)
            ncol += 1

    # reduced-cost row for min sum(artificials); only original columns may enter
    cbar = [_ZERO] * ncol
    for j in range(ncol):
        s = _ZERO
        for i in range(m):
            if basis[i] in artificial:
                s += tableau[i][j]
        cbar[j] = (_ONE if j in artificial else _ZERO) - s
    w = sum((b[i] for i in range(m) if basis[i] in artificial), _ZERO)

    while True:
        enter = -1
        for j in range(n):
            if cbar[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            tij = tableau[i][enter]
            if tij > 0:
                ratio = b[i] / tij
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded")
        assert best is not None
        w += cbar[enter] * best
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        b[leave] /= piv
        pivot_row = tableau[leave]
        pivot_rhs = b[leave]
        for i in range(m):
            if i == leave:
                continue
            f = tableau[i][enter]
            if f != 0:
                tableau[i] = [a - f * c for a, c in zip(tableau[i], pivot_row)]
                b[i] -= f * pivot_rhs
        f = cbar[enter]
        cbar = [a - f * c for a, c in zip(cbar, pivot_row)]
        basis[leave] = enter

    if w != 0:
        return None
    solution = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = b[i]
    return solution
